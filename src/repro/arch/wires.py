"""Wire segmentation: single-length RCM tracks and double-length lines.

The paper's switch-block structure (Fig. 10) mixes two wire kinds:

- **single-length tracks** that enter the RCM of every tile they pass —
  flexible but slow, because each hop adds a series pass-gate (SE);
- **double-length lines** that span two tiles and *bypass alternate
  diamond switches*, driven by buffers — used for critical paths.

:func:`make_track_specs` splits a channel of ``width`` tracks into the
two kinds according to ``double_fraction``.  Double-length segments are
staggered (odd/even start parity) so that from any tile a double line is
available in both phases, matching "double-length lines that bypass
alternate diamond switches".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ArchitectureError


class SegmentKind(enum.Enum):
    """Physical wire kind of a routing track."""

    SINGLE = "single"       # length-1, joins the RCM at every tile
    DOUBLE = "double"       # length-2, buffered, alternate diamonds only

    @property
    def length(self) -> int:
        return 1 if self is SegmentKind.SINGLE else 2

    @property
    def buffered(self) -> bool:
        """Double-length lines are rebuffered at each segment start; the
        single-length RCM tracks ride unbuffered pass-gates."""
        return self is SegmentKind.DOUBLE


@dataclass(frozen=True)
class TrackSpec:
    """One track position within a channel.

    ``phase`` staggers double-length segments: a DOUBLE track with phase
    ``p`` starts new segments at channel positions where
    ``position % 2 == p``.
    """

    index: int
    kind: SegmentKind
    phase: int = 0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ArchitectureError(f"track index must be >= 0, got {self.index}")
        if self.phase not in (0, 1):
            raise ArchitectureError(f"phase must be 0/1, got {self.phase}")
        if self.kind is SegmentKind.SINGLE and self.phase != 0:
            raise ArchitectureError("single-length tracks have no phase")

    def starts_segment_at(self, position: int) -> bool:
        """Does a new physical segment of this track begin at ``position``?"""
        if self.kind is SegmentKind.SINGLE:
            return True
        return position % 2 == self.phase

    def segment_origin(self, position: int) -> int:
        """Channel position where the segment covering ``position`` starts."""
        if self.kind is SegmentKind.SINGLE:
            return position
        if position % 2 == self.phase:
            return position
        return position - 1


def double_track_count(width: int, double_fraction: float) -> int:
    """How many of a channel's ``width`` tracks are double-length lines
    (the last ones, see :func:`make_track_specs`)."""
    return int(round(width * double_fraction))


def make_track_specs(width: int, double_fraction: float = 0.5) -> list[TrackSpec]:
    """Split a channel into single- and double-length tracks.

    ``double_fraction`` of the ``width`` tracks become DOUBLE lines with
    alternating phase; the rest are SINGLE RCM tracks.

    >>> [t.kind.value for t in make_track_specs(4, 0.5)]
    ['single', 'single', 'double', 'double']
    """
    if width < 1:
        raise ArchitectureError(f"channel width must be >= 1, got {width}")
    if not 0.0 <= double_fraction <= 1.0:
        raise ArchitectureError(
            f"double_fraction must be in [0, 1], got {double_fraction}"
        )
    n_double = double_track_count(width, double_fraction)
    n_single = width - n_double
    specs: list[TrackSpec] = []
    for i in range(n_single):
        specs.append(TrackSpec(i, SegmentKind.SINGLE))
    for j in range(n_double):
        specs.append(TrackSpec(n_single + j, SegmentKind.DOUBLE, phase=j % 2))
    return specs
