"""Fast pickling for frozen slots dataclasses.

``dataclasses`` gives every ``frozen=True, slots=True`` class a
``__getstate__``/``__setstate__`` pair that calls ``fields()`` on every
object it pickles or unpickles. A checkpoint pickles thousands of such
objects, so that walk shows up in the save time.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["pickle_by_slots"]


def pickle_by_slots(cls: type) -> type:
    """Replace a frozen slots dataclass's pickling pair with one over
    ``__slots__``.

    Apply it outside ``@dataclass``. ``__slots__`` lists the fields in
    definition order, so the state is the same list the generated pair
    produces, and pickles written by either pair load with the other.
    """
    names = cls.__slots__
    if len(names) < 2:
        raise TypeError(f"{cls.__name__} needs at least two slots")
    values = attrgetter(*names)
    # the slot descriptors write past the frozen __setattr__
    setters = tuple(getattr(cls, name).__set__ for name in names)

    def __getstate__(self) -> list:
        return list(values(self))

    def __setstate__(self, state: list) -> None:
        for set_value, value in zip(setters, state):
            set_value(self, value)

    cls.__getstate__ = __getstate__
    cls.__setstate__ = __setstate__
    return cls
