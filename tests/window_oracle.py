"""Per-track reference for the window cut: one ``searchsorted`` per track.

``known_window_tracks`` on a ``Tracks`` must return exactly what
``known_window_spans`` returns: the same tracks, in the same order, with
the same rows.
"""

from __future__ import annotations

import numpy as np


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
