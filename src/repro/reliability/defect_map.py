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
        "bad_edge_pairs",
    )

    def __init__(
        self,
        c: CompiledRRG,
        wire_defects: Sequence[int],
        switch_defects: Sequence[int],
        bad_tiles: Iterable[tuple[int, int]],
        model: str = "explicit",
        rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.params = c.params
        self.n_nodes = c.n_nodes
        self.n_edges = c.n_edges
        self.model = model
        self.rate = rate
        self.seed = seed
        self.wire_defects = tuple(sorted(int(n) for n in wire_defects))
        self.switch_defects = tuple(sorted(int(e) for e in switch_defects))
        self.bad_tiles = frozenset(
            Coord(int(x), int(y)) for x, y in bad_tiles
        )

        node_ok = np.ones(c.n_nodes, dtype=bool)
        if self.wire_defects:
            node_ok[np.asarray(self.wire_defects, dtype=np.int64)] = False
        if self.bad_tiles:
            # a dead LB loses its logical endpoints; routes never pass
            # *through* SOURCE/SINK nodes, so this only bites nets that
            # terminate at the dead site (i.e. a blocked placement)
            dead = {(t.x, t.y) for t in self.bad_tiles}
            for index in (c.lb_source, c.lb_sink):
                for (x, y, _pin), nid in index.items():
                    if (x, y) in dead:
                        node_ok[nid] = False
        self.node_ok = node_ok
        self._node_ok_bytes: bytes | None = None
        self._live_edge_dst: np.ndarray | None = None

        if self.switch_defects:
            eidx = np.asarray(self.switch_defects, dtype=np.int64)
            src = c.edge_src_ids()
            dst = c.edge_dst
            self.bad_edge_pairs = frozenset(
                (int(src[e]), int(dst[e])) for e in eidx.tolist()
            )
        else:
            self.bad_edge_pairs = frozenset()

    @property
    def node_ok_bytes(self) -> bytes:
        """``node_ok`` as an immutable byte mask (the router's defect
        floor), built lazily — trials the ladder clears at NONE level
        never route, so they never pay the copy."""
        if self._node_ok_bytes is None:
            self._node_ok_bytes = self.node_ok.tobytes()
        return self._node_ok_bytes

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
        if not self.switch_defects:
            return c.edge_dst
        if self._live_edge_dst is None:
            edst = c.edge_dst.copy()
            dead = np.asarray(self.switch_defects, dtype=np.int64)
            edst[dead] = c.edge_src_ids()[dead]
            self._live_edge_dst = edst
        return self._live_edge_dst

    @classmethod
    def from_lowered(
        cls,
        c: CompiledRRG,
        node_ok: np.ndarray,
        wire_defects: Sequence[int],
        switch_defects: Sequence[int],
        bad_tiles: Iterable[tuple[int, int]],
        model: str = "uniform",
        rate: float = 0.0,
        seed: int = 0,
    ) -> "DefectMap":
        """Rebuild a map from an already-lowered ``node_ok`` mask.

        The shared-memory trial path publishes each trial's node mask
        once (parent-side) and workers attach a read-only view; this
        constructor wraps such a view without re-sampling or re-lowering
        — the published mask already folds wire and logic-site defects.
        The small derived pieces (``bad_edge_pairs``, lazily the lowered
        edge array) are rebuilt from the defect id lists, exactly as the
        eager constructor would.
        """
        dm = cls.__new__(cls)
        dm.params = c.params
        dm.n_nodes = c.n_nodes
        dm.n_edges = c.n_edges
        dm.model = model
        dm.rate = rate
        dm.seed = seed
        dm.wire_defects = tuple(sorted(int(n) for n in wire_defects))
        dm.switch_defects = tuple(sorted(int(e) for e in switch_defects))
        dm.bad_tiles = frozenset(
            Coord(int(x), int(y)) for x, y in bad_tiles
        )
        dm.node_ok = node_ok
        dm._node_ok_bytes = None
        dm._live_edge_dst = None
        if dm.switch_defects:
            eidx = np.asarray(dm.switch_defects, dtype=np.int64)
            src = c.edge_src_ids()
            dst = c.edge_dst
            dm.bad_edge_pairs = frozenset(
                (int(src[e]), int(dst[e])) for e in eidx.tolist()
            )
        else:
            dm.bad_edge_pairs = frozenset()
        return dm

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
        if model == "uniform":
            wire_hit = wires[rng.random(len(wires)) < w_rate]
            switch_hit = switches[rng.random(len(switches)) < s_rate]
            tile_draw = rng.random(len(tiles))
            tile_hit = [t for t, u in zip(tiles, tile_draw) if u < l_rate]
        else:
            xlo, ylo = c.xlo_np, c.ylo_np
            wire_hit = _clustered_pick(
                rng, wires, xlo[wires], ylo[wires], w_rate,
                c.params, cluster_radius, cluster_size,
            )
            esrc = c.edge_src_ids()[switches]
            switch_hit = _clustered_pick(
                rng, switches, xlo[esrc], ylo[esrc], s_rate,
                c.params, cluster_radius, cluster_size,
            )
            tile_ids = np.arange(len(tiles), dtype=np.int64)
            tx = np.array([t[0] for t in tiles], dtype=np.int64)
            ty = np.array([t[1] for t in tiles], dtype=np.int64)
            tile_hit_ids = _clustered_pick(
                rng, tile_ids, tx, ty, l_rate,
                c.params, cluster_radius, cluster_size,
            )
            tile_hit = [tiles[i] for i in tile_hit_ids.tolist()]
        return cls(
            c, wire_hit.tolist(), switch_hit.tolist(), tile_hit,
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
        """Explicit defect list (tests, targeted what-if experiments)."""
        return cls(c, wire_nodes, switch_edges, logic_tiles)

    # -- queries ------------------------------------------------------------ #
    @property
    def is_clean(self) -> bool:
        """True when the die carries no defect at all."""
        return (
            not self.wire_defects
            and not self.switch_defects
            and not self.bad_tiles
        )

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
    chosen: set[int] = set()  # positions into ``candidates``
    attempts = 0
    while len(chosen) < k and attempts < 64 * (1 + k // max(1, cluster_size)):
        attempts += 1
        cx = int(rng.integers(0, params.cols + 1))
        cy = int(rng.integers(0, params.rows + 1))
        near = np.flatnonzero(
            (np.abs(cand_x - cx) + np.abs(cand_y - cy)) <= cluster_radius
        )
        near = near[~np.isin(near, np.fromiter(chosen, dtype=np.int64,
                                               count=len(chosen)))] \
            if chosen else near
        if len(near) == 0:
            continue
        take = min(int(rng.integers(1, cluster_size + 1)), k - len(chosen),
                   len(near))
        picked = rng.choice(near, size=take, replace=False)
        chosen.update(int(p) for p in picked)
    if len(chosen) < k:  # degenerate geometry: top up uniformly
        rest = np.setdiff1d(
            np.arange(n), np.fromiter(chosen, dtype=np.int64,
                                      count=len(chosen)),
        )
        extra = rng.choice(rest, size=min(k - len(chosen), len(rest)),
                           replace=False)
        chosen.update(int(p) for p in extra)
    idx = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    idx.sort()
    return candidates[idx]
