"""Scan references for a window's reads of a run's table.

``known_window_tracks`` on a ``Tracks`` must return exactly what
``known_window_spans`` returns: the same tracks, in the same order, with
the same rows (one ``searchsorted`` per track). The summaries a ``Tracks``
builds once per run must answer what one scan of the whole table answers:
:func:`count_before` counts every track's rows before a frame, and the head
count, the cut, the stored samples and the gap check of a window follow
from those counts (:func:`ids_before`, :func:`covering`,
:func:`stored_rows`, :func:`first_gap`).
"""

from __future__ import annotations

import numpy as np

from crowdcast.core import _sample_layout


def frame_span(tr, first: int, steps: int):
    """``tr`` over frames ``first`` .. ``first + steps - 1``, or None unless
    it holds every one of them: frames strictly increase, so it does when
    the frame ``steps - 1`` places after the first is the last. The result
    is a ``Trajectory.span`` of ``tr``: read-only views, no copy."""
    i = int(np.searchsorted(tr.frames, first))
    if i + steps > len(tr) or tr.frames[i + steps - 1] != first + steps - 1:
        return None
    return tr.span(i, i + steps)


def known_window_spans(tracks, endtime: int, cfg) -> list:
    """Tracks restricted to the known window, keeping only agents present at
    every frame of it (:func:`frame_span`)."""
    steps = cfg.known_time_steps
    spans = (frame_span(tr, endtime - steps + 1, steps) for tr in tracks)
    return [span for span in spans if span is not None]


def count_before(table, frame) -> np.ndarray:
    """Per track of the ``Tracks`` ``table``, how many of its frames lie
    before ``frame``: its first rows, as frames strictly increase. One scan
    of every row; an empty track counts 0."""
    return np.bincount(table.owners[table.frames < frame], minlength=len(table))


def ids_before(table, frame) -> int:
    """How many agent ids hold a frame before ``frame``."""
    return len(np.unique(table.codes[count_before(table, frame) > 0]))


def covering(table, first: int, steps: int) -> tuple:
    """The tracks holding every frame ``first`` .. ``first + steps - 1``,
    ascending, and the row of ``first`` within each: a track holds them
    when the frame ``steps - 1`` rows after its first one not before
    ``first`` is the last of them."""
    n = count_before(table, first)
    t = np.flatnonzero(table.lengths - n >= steps)
    if t.size:      # else ``steps`` need not fit in int64
        t = t[table.frames[table.starts[t] + n[t] + (steps - 1)] == first + steps - 1]
    return t, n[t]


def stored_lengths(table, limit) -> np.ndarray:
    """Each track's points before the frame ``limit``, all when it is None."""
    return table.lengths if limit is None else count_before(table, limit)


def stored_rows(table, limit) -> np.ndarray:
    """The table rows of the samples stored before ``limit``: rows 2 ..
    n - 1 of each track's stored prefix of n points, in table order."""
    return _sample_layout(table.starts, stored_lengths(table, limit))[2]


def first_gap(table, limit):
    """The first track whose stored prefix holds three or more points and
    skips a frame, or None: strictly increasing frames are consecutive when
    they span n - 1."""
    lengths = stored_lengths(table, limit)
    t = np.flatnonzero(lengths >= 3)
    first = table.starts[t]
    gap = table.frames[first + lengths[t] - 1] - table.frames[first] != lengths[t] - 1
    return int(t[gap.argmax()]) if gap.any() else None
