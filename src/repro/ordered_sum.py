"""Left-to-right float summation with the same bits on every Python.

Python 3.12 made the built-in ``sum()`` over floats compensated, so the
same list of floats can sum to different bits on 3.11 and 3.12.  The
goldens pin every reported float, so any sum that reaches a report, a
trace or a golden goes through :func:`ordered_sum` instead.
"""

from __future__ import annotations

from typing import Iterable


def ordered_sum(values: Iterable):
    """``((0 + v0) + v1) + ...``: exactly what ``sum()`` computed before
    Python 3.12, including the int ``0`` of an empty input."""
    total = 0
    for value in values:
        total = total + value
    return total
