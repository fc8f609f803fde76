"""Physical defect models over the compiled routing fabric.

The behavioral fault layer (:mod:`repro.core.defects`) answers "what
does a stuck SE or a flipped plane bit do to a *configured* device".
This module models the other reliability axis the paper leaves open:
**manufacturing defects in the fabric itself** — the classic MC-FPGA
yield question.  A :class:`DefectMap` is one die's worth of defects,
sampled from a seeded model over a :class:`~repro.arch.compiled.CompiledRRG`
and lowered to the arrays the compiled router consumes directly:

- **wire defects** — a CHANX/CHANY segment is open/shorted; the node
  becomes unroutable (``node_ok`` mask);
- **switch defects** — one programmable switch (PASS/BUF/PIN edge) is
  dead; the CSR edge becomes untraversable (lowered to a self-loop in
  :meth:`DefectMap.live_edge_dst`) while the wires it joined stay
  usable through their other switches;
- **logic-site defects** — a tile's LB is broken; its logical
  SOURCE/SINK nodes are masked and the tile lands in :attr:`bad_tiles`,
  which the placer's ``forbidden`` parameter consumes during re-place
  repair.

Two spatial models share the same expected defect count per category:

- ``uniform`` — every candidate fails independently with probability
  ``rate`` (random point defects);
- ``clustered`` — the same number of defects is drawn in spatial
  clusters around random tile centers (lithography/particle damage is
  famously clustered, which is kinder to yield than independent
  defects at equal density — the classic negative-binomial yield
  observation the Monte Carlo campaigns can reproduce).

Maps are cheap per trial: candidate index arrays are cached on the
substrate (see ``CompiledRRG.wire_node_ids`` and friends), so sampling
is a handful of vectorised draws, not a graph walk.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.arch.compiled import CompiledRRG
from repro.arch.geometry import Coord
from repro.utils.rng import ensure_rng

#: Recognised spatial models.
DEFECT_MODELS = ("uniform", "clustered")

#: Clustered-model defaults: cluster span (Manhattan tile radius) and
#: expected defects per cluster.
CLUSTER_RADIUS = 2
CLUSTER_SIZE = 6


class DefectMap:
    """One die's defects, lowered to router/placer-ready masks.

    Build with :meth:`sample` (seeded statistical models) or
    :meth:`from_defects` (explicit resources, for tests and targeted
    what-if experiments).  Instances are immutable in spirit: the
    router and repair ladder only ever read them.

    The defects are arrays end to end: ``wire_defects`` (node ids) and
    ``switch_defects`` (CSR edge indexes) are sorted, unique, read-only
    int64 arrays, and ``bad_edge_codes`` holds each dead switch as its
    ``src * n_nodes + dst`` code (:meth:`CompiledRRG.edge_codes`),
    sorted, so consumers test membership with one binary search
    (:meth:`edges_dead`).  ``bad_tiles`` is a set of tile coordinates,
    the form the placer's ``forbidden`` takes.
    """

    __slots__ = (
        "params",
        "n_nodes",
        "n_edges",
        "model",
        "rate",
        "seed",
        "node_ok",
        "_node_ok_bytes",
        "_live_edge_dst",
        "wire_defects",
        "switch_defects",
        "bad_tiles",
        "bad_edge_codes",
    )

    def __init__(
        self,
        c: CompiledRRG,
        wire_defects: np.ndarray,
        switch_defects: np.ndarray,
        bad_tiles: Iterable[tuple[int, int]],
        model: str = "explicit",
        rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        """Wrap already-normalised defect arrays (sorted, unique int64
        ids; see :meth:`from_defects` for arbitrary input).  The node
        mask is lowered from the wire and logic-site defects."""
        self.params = c.params
        self.n_nodes = c.n_nodes
        self.n_edges = c.n_edges
        self.model = model
        self.rate = rate
        self.seed = seed
        self.wire_defects = _frozen(wire_defects)
        self.switch_defects = _frozen(switch_defects)
        self.bad_tiles = frozenset(
            Coord(int(x), int(y)) for x, y in bad_tiles
        )
        node_ok = np.ones(c.n_nodes, dtype=bool)
        node_ok[self.wire_defects] = False
        if self.bad_tiles:
            # a dead LB loses its logical endpoints; routes never pass
            # *through* SOURCE/SINK nodes, so this only bites nets that
            # terminate at the dead site (i.e. a blocked placement)
            node_ok[_tile_pin_nodes(c, self.bad_tiles)] = False
        self.node_ok = node_ok
        self._node_ok_bytes: bytes | None = None
        self._live_edge_dst: np.ndarray | None = None
        self.bad_edge_codes = _frozen(
            np.sort(c.edge_codes()[self.switch_defects])
        )

    @property
    def node_ok_bytes(self) -> bytes:
        """``node_ok`` as an immutable byte mask (the router's defect
        floor), built lazily — trials the ladder clears at NONE level
        never route, so they never pay the copy."""
        if self._node_ok_bytes is None:
            self._node_ok_bytes = self.node_ok.tobytes()
        return self._node_ok_bytes

    def edges_dead(self, codes: np.ndarray) -> np.ndarray:
        """Whether each edge code ``src * n_nodes + dst`` is a dead
        switch: one binary search over :attr:`bad_edge_codes`."""
        bad = self.bad_edge_codes
        if bad.size == 0:
            return np.zeros(len(codes), dtype=bool)
        pos = np.minimum(np.searchsorted(bad, codes), bad.size - 1)
        return bad[pos] == codes

    def live_edge_dst(self, c: CompiledRRG) -> np.ndarray:
        """``c.edge_dst`` with every dead switch ``u -> v`` lowered to
        the self-loop ``u -> u``.

        A self-loop never relaxes in the router's search (a popped node
        is already at its final distance and every cost is >= 1.0), so
        searching this array excludes dead switches without a per-edge
        test.  ``c`` must be the substrate the map was sampled on.
        Without switch defects this is ``c.edge_dst`` itself; otherwise
        an int32 copy, written with one vectorised store, built lazily
        and cached like :attr:`node_ok_bytes`.
        """
        dead = self.switch_defects
        if dead.size == 0:
            return c.edge_dst
        if self._live_edge_dst is None:
            edst = c.edge_dst.copy()
            edst[dead] = c.edge_src_ids()[dead]
            self._live_edge_dst = edst
        return self._live_edge_dst

    # -- construction ------------------------------------------------------- #
    @classmethod
    def sample(
        cls,
        c: CompiledRRG,
        rate: float,
        seed: int | np.random.Generator | None = 0,
        model: str = "uniform",
        wire_rate: float | None = None,
        switch_rate: float | None = None,
        logic_rate: float | None = None,
        cluster_radius: int = CLUSTER_RADIUS,
        cluster_size: int = CLUSTER_SIZE,
    ) -> "DefectMap":
        """Draw one die's defects from a seeded statistical model.

        ``rate`` is the per-resource defect probability, applied to all
        three categories unless overridden (``wire_rate`` /
        ``switch_rate`` / ``logic_rate``).  ``model="clustered"`` keeps
        the expected counts but draws spatially-correlated defects (see
        the module docstring).  Sampling is deterministic per seed, and
        independent of which process runs it — the compiled substrate
        (and thus every candidate index) is a pure function of
        ``ArchParams``.
        """
        if model not in DEFECT_MODELS:
            raise ValueError(
                f"model must be one of {DEFECT_MODELS}, got {model!r}"
            )
        rng = ensure_rng(seed)
        seed_val = seed if isinstance(seed, (int, np.integer)) else -1
        w_rate = rate if wire_rate is None else wire_rate
        s_rate = rate if switch_rate is None else switch_rate
        l_rate = rate if logic_rate is None else logic_rate

        wires = c.wire_node_ids()
        switches = c.switch_edge_ids()
        tiles = c.logic_tiles()
        # the candidate arrays are ascending and both draws keep their
        # order, so the hits are already sorted and unique
        if model == "uniform":
            wire_hit = wires[rng.random(len(wires)) < w_rate]
            switch_hit = switches[rng.random(len(switches)) < s_rate]
            tile_hit = np.flatnonzero(rng.random(len(tiles)) < l_rate)
        else:
            xlo, ylo = c.xlo, c.ylo
            wire_hit = _clustered_pick(
                rng, wires, xlo[wires], ylo[wires], w_rate,
                c.params, cluster_radius, cluster_size,
            )
            esrc = c.edge_src_ids()[switches]
            switch_hit = _clustered_pick(
                rng, switches, xlo[esrc], ylo[esrc], s_rate,
                c.params, cluster_radius, cluster_size,
            )
            txy = np.asarray(tiles, dtype=np.int64).reshape(-1, 2)
            tile_hit = _clustered_pick(
                rng, np.arange(len(tiles), dtype=np.int64),
                txy[:, 0], txy[:, 1], l_rate,
                c.params, cluster_radius, cluster_size,
            )
        return cls(
            c, wire_hit, switch_hit, [tiles[i] for i in tile_hit.tolist()],
            model=model, rate=rate, seed=int(seed_val),
        )

    @classmethod
    def from_defects(
        cls,
        c: CompiledRRG,
        wire_nodes: Sequence[int] = (),
        switch_edges: Sequence[int] = (),
        logic_tiles: Iterable[tuple[int, int]] = (),
    ) -> "DefectMap":
        """Explicit defect list (tests, targeted what-if experiments).

        Ids may come in any order and repeat: a resource is dead or it
        is not, so each one counts once."""
        return cls(c, np.unique(np.asarray(wire_nodes, dtype=np.int64)),
                   np.unique(np.asarray(switch_edges, dtype=np.int64)),
                   logic_tiles)

    # -- queries ------------------------------------------------------------ #
    @property
    def is_clean(self) -> bool:
        """True when the die carries no defect at all."""
        return self.n_defects == 0

    @property
    def n_defects(self) -> int:
        return (
            len(self.wire_defects)
            + len(self.switch_defects)
            + len(self.bad_tiles)
        )

    def to_dict(self) -> dict:
        """JSON-ready summary (counts, not raw ids — campaigns aggregate
        thousands of maps)."""
        return {
            "model": self.model,
            "rate": self.rate,
            "seed": self.seed,
            "wire_defects": len(self.wire_defects),
            "switch_defects": len(self.switch_defects),
            "logic_defects": len(self.bad_tiles),
            "total_defects": self.n_defects,
        }

    def describe(self) -> str:
        return (
            f"DefectMap[{self.model}] rate={self.rate}: "
            f"{len(self.wire_defects)} wires, "
            f"{len(self.switch_defects)} switches, "
            f"{len(self.bad_tiles)} logic sites"
        )


def _clustered_pick(
    rng: np.random.Generator,
    candidates: np.ndarray,
    cand_x: np.ndarray,
    cand_y: np.ndarray,
    rate: float,
    params,
    cluster_radius: int,
    cluster_size: int,
) -> np.ndarray:
    """Spatially-clustered defect draw with uniform-matched expectation.

    Draws ``k ~ Binomial(n, rate)`` total defects (the same marginal
    count as the uniform model), then fills them cluster by cluster:
    pick a random tile center, knock out up to ``cluster_size`` random
    candidates within Manhattan distance ``cluster_radius``.  A bounded
    retry count guards degenerate geometries; any remainder falls back
    to uniform picks so the expected count always holds.
    """
    n = len(candidates)
    if n == 0 or rate <= 0.0:
        return candidates[:0]
    k = int(rng.binomial(n, min(rate, 1.0)))
    if k == 0:
        return candidates[:0]
    taken = np.zeros(n, dtype=bool)  # positions into ``candidates``
    n_taken = 0
    attempts = 0
    while n_taken < k and attempts < 64 * (1 + k // max(1, cluster_size)):
        attempts += 1
        cx = int(rng.integers(0, params.cols + 1))
        cy = int(rng.integers(0, params.rows + 1))
        near = np.flatnonzero(
            (np.abs(cand_x - cx) + np.abs(cand_y - cy)) <= cluster_radius
        )
        near = near[~taken[near]]
        if len(near) == 0:
            continue
        take = min(int(rng.integers(1, cluster_size + 1)), k - n_taken,
                   len(near))
        taken[rng.choice(near, size=take, replace=False)] = True
        n_taken += take
    if n_taken < k:  # degenerate geometry: top up uniformly
        rest = np.flatnonzero(~taken)
        taken[rng.choice(rest, size=min(k - n_taken, len(rest)),
                         replace=False)] = True
    return candidates[taken]


def _frozen(ids: np.ndarray) -> np.ndarray:
    """``ids`` as a read-only int64 array (the caller's own array when
    it is int64 already: sampled hits are fresh copies)."""
    ids = np.asarray(ids, dtype=np.int64)
    ids.flags.writeable = False
    return ids


def _tile_pin_nodes(c: CompiledRRG, tiles: frozenset[Coord]) -> np.ndarray:
    """The SOURCE/SINK nodes of the logic blocks on ``tiles``: the
    tiles' rows of the substrate's ``(tile, pin)`` tables, without -1
    entries.  Tiles off the grid have no logic block."""
    cols, rows = c.params.cols, c.params.rows
    at = [t.y * cols + t.x for t in tiles
          if 0 <= t.x < cols and 0 <= t.y < rows]
    ids = np.concatenate(
        (c.lb_source_ids[at].ravel(), c.lb_sink_ids[at].ravel())
    )
    return ids[ids >= 0]
