"""Python 3.12's built-in ``sum``, emulated on any Python >= 3.10.

Python 3.12 made ``sum()`` over floats compensated (Neumaier's variant
of Kahan summation), so the same float list can sum to different bits
on 3.11 and 3.12.  The simulator's goldens pin one answer on every
version; this module lets a 3.10/3.11 interpreter check that they hold
under 3.12's algorithm too.

:func:`py312_sum` follows CPython 3.12's ``builtin_sum_impl``:

* an int fast path while the running total is an int that fits a C
  ``long`` and the items are ints or bools;
* a compensated float fast path while the total is an exact ``float``
  and the items are exact floats; ints are added *uncompensated*, and
  the compensation is folded in on exit unless it is zero or not finite;
* plain left-to-right ``+`` for everything else (float subclasses such
  as ``numpy.float64``, big ints, non-numbers), with no way back into a
  fast path.

Use :func:`emulated_py312_sum` to patch ``builtins.sum`` for a block, or
load this module as a pytest plugin to run a whole session under it::

    PYTHONPATH=src:. python -m pytest -q -p tests.harness.py312_sum
"""

from __future__ import annotations

import builtins
import math
from contextlib import contextmanager
from typing import Iterable, Iterator

_LONG_MIN, _LONG_MAX = -(2 ** 63), 2 ** 63 - 1

_real_sum = builtins.sum


def py312_sum(iterable: Iterable, /, start=0):
    """``sum(iterable, start)`` as CPython 3.12 computes it."""
    items = iter(iterable)
    result = start
    if type(result) is int and _LONG_MIN <= result <= _LONG_MAX:
        for item in items:
            if (type(item) in (int, bool)
                    and _LONG_MIN <= item <= _LONG_MAX
                    and _LONG_MIN <= result + item <= _LONG_MAX):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _LONG_MIN <= item <= _LONG_MAX:
                total += float(item)
                continue
            if comp and math.isfinite(comp):
                total += comp
            result = total + item
            break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        result = result + item
    return result


@contextmanager
def emulated_py312_sum() -> Iterator[None]:
    """Patch ``builtins.sum`` with :func:`py312_sum` inside the block."""
    saved, builtins.sum = builtins.sum, py312_sum
    try:
        yield
    finally:
        builtins.sum = saved


def pytest_configure(config) -> None:
    builtins.sum = py312_sum


def pytest_unconfigure(config) -> None:
    builtins.sum = _real_sum
