"""Regenerate ``reference.json``: the digest of every run's simulated
summary, for every workload, at the committed seeds.

Usage, from the root of the repository::

    python3 perfbench/make_reference.py            # seeds 0-19
    python3 perfbench/make_reference.py --seeds 5   # seeds 0-4

Regenerate it only for a change that is meant to alter simulated results
(makespan, billed units, cost, utilization, restarts or event counts);
the benchmark counts every run that disagrees with it as failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import suite  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20,
                        help="commit seeds 0 .. N-1 (default 20)")
    args = parser.parse_args()
    workdir = HERE.parent / ".perfbench" / "reference-work"
    table: dict[str, dict[str, dict]] = {}
    try:
        for name, cls in suite.WORKLOADS.items():
            table[name] = {}
            for seed in range(args.seeds):
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                workload = cls(seed, workdir)
                workload.setup()
                runs = workload.profile_pass()
                bad = [r for r in runs if r.error is not None]
                if bad:
                    print(f"{name} seed {seed}: {bad[0].run_id}: {bad[0].error}")
                    return 1
                table[name][str(seed)] = {
                    "run_ids": suite.digest(*(r.run_id for r in runs)),
                    "digests": " ".join(r.digest for r in runs),
                }
                print(f"{name} seed {seed}: {len(runs)} runs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    suite.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
