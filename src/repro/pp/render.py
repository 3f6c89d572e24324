"""ASCII rendering of pipeline schedules — Figure 2 as text.

:func:`render_timeline` draws an executed schedule on a character grid,
one row per rank, proportional to simulated time: forward ops as the
micro-batch digit, backwards as letters, idle as dots.  This is the
textual analogue of the paper's Figure 2/3 timelines and makes exposed
P2P bubbles visible at a glance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.pp.schedule import OpKind

if TYPE_CHECKING:  # typing only — avoids a package import cycle
    from repro.train.executor import PipelineRun


def _mb_char(kind: OpKind, microbatch: int) -> str:
    """Digit for forwards, letter for backwards, cycling past 10/26."""
    if kind is OpKind.FORWARD:
        return str(microbatch % 10)
    return chr(ord("a") + microbatch % 26)


def render_timeline(run: "PipelineRun", width: int = 100) -> str:
    """An executed schedule as a time-proportional character grid.

    Each row is one pipeline rank; each column is ``makespan / width``
    seconds.  Cells show the micro-batch of the op occupying that instant
    (digits = forward, letters = backward) or ``.`` for idle — the PP
    bubbles of Figures 2 and 3.
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    if run.makespan <= 0:
        return ""
    scale = width / run.makespan
    rows: List[str] = []
    for ppr in range(run.pp):
        row = ["."] * width
        for event in run.sim.events_for(ppr, stream="compute"):
            # Event names look like "F:mb3:s5".
            try:
                kind_s, mb_s, _stage = event.name.split(":")
                kind = OpKind(kind_s)
                mb = int(mb_s.removeprefix("mb"))
            except (ValueError, KeyError):
                continue
            start = int(event.start * scale)
            end = max(int(event.end * scale), start + 1)
            ch = _mb_char(kind, mb)
            for i in range(start, min(end, width)):
                row[i] = ch
        rows.append(f"rank {ppr}: " + "".join(row))
    return "\n".join(rows)
