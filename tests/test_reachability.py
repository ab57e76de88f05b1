"""Tests for ``tools/reachability.py`` on a tiny throwaway package."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "tools" / "reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


FILES = {
    "src/pkg/__init__.py": "from pkg.used import thing\n",
    "src/pkg/used.py": "from .helper import x\nthing = x\n",
    "src/pkg/helper.py": "x = 1\n",
    "src/pkg/cli.py": "def main():\n    from pkg.sub.lazy import run\n    run()\n",
    "src/pkg/sub/__init__.py": "from . import named\n",
    "src/pkg/sub/named.py": "",
    "src/pkg/sub/lazy.py": "from ..deep import leaf\n\ndef run():\n    return leaf\n",
    "src/pkg/deep/__init__.py": "",
    "src/pkg/deep/leaf.py": "",
    "src/pkg/bench_only.py": "",
    # imports reachable code but nothing imports it
    "src/pkg/dead.py": "import pkg.helper\n",
    "src/pkg/sub/orphan.py": "",
    "bench/run.py": "import pkg.bench_only\n",
}


def make_tree(tmp_path: Path) -> Path:
    for name, text in FILES.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


class TestReachability:
    def test_lists_only_unimported_modules(self, tmp_path):
        root = make_tree(tmp_path)
        tool = load_tool()
        dead = tool.unreachable(root / "src", "pkg", [root / "bench"])
        assert dead == ["pkg.dead", "pkg.sub.orphan"]

    def test_root_directories_count(self, tmp_path):
        root = make_tree(tmp_path)
        tool = load_tool()
        dead = tool.unreachable(root / "src", "pkg", [])
        assert dead == ["pkg.bench_only", "pkg.dead", "pkg.sub.orphan"]

    def test_report_on_this_repo_never_fails(self, capsys):
        assert load_tool().main() == 0
        assert "modules unreachable" in capsys.readouterr().err
