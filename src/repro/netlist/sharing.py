"""Cross-context sharing analysis (paper Fig. 14).

The adaptive logic block pays off when a node's configuration repeats
across contexts.  This module detects such repeats *semantically*:
each LUT cell gets a canonical signature — its truth table rewritten
over the transitive primary-input support — so structurally different
but functionally identical cones in different contexts still match.

Truth tables are computed bit-parallel, as Python ints (the ABC style
of Brayton & Mishchenko, CAV'10).  For a cell whose sorted support
has ``k`` inputs, input ``j`` is the ``2**k``-bit *projection mask*
whose bit ``w`` is bit ``j`` of ``w``; each LUT in the cone is a mux
tree over its table bits selecting on its inputs' masks
(:func:`~repro.netlist.logic.projections` and
:func:`~repro.netlist.logic.lut_value`).  Bit ``w`` of
the cell's result is then its output under input word ``w``, which is
exactly the table the ``2**k`` enumeration builds.  The form is
canonical because it depends only on the function and the sorted
support: two cones computing the same function of the same inputs
yield the same ``Signature``, whatever their structure.

Outputs feed three consumers:

- the multi-context mapper (pin shared cells to one LB → one plane),
- the Figs. 13/14 bench (global vs local LB counts),
- the area model (measured plane-count distribution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MappingError, SynthesisError
from repro.netlist.logic import TruthTable, lut_value, projections
from repro.netlist.netlist import Cell, CellKind, Netlist
from repro.netlist.dfg import MultiContextProgram


#: Largest support a signature is computed over (a ``2**12``-bit table).
MAX_SUPPORT = 12


@dataclass(frozen=True)
class Signature:
    """Canonical function-of-primary-inputs signature of a cell."""

    support: tuple[str, ...]
    bits: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{','.join(self.support)}:{self.bits:#x}"


def cell_signature(
    netlist: Netlist, cell_name: str, max_support: int = MAX_SUPPORT
) -> Signature | None:
    """Signature of a LUT cell as a function of primary inputs.

    Returns None when the transitive support exceeds ``max_support``
    (the truth table has ``2**support`` bits) or crosses a DFF boundary
    (state-dependent cones never share planes safely).
    """
    cell = netlist.cells[cell_name]
    if cell.kind is not CellKind.LUT:
        raise MappingError(f"{cell_name!r} is not a LUT cell")
    return _signatures(netlist, [cell], max_support)[cell_name]


def _signatures(
    netlist: Netlist, cells: list[Cell], max_support: int
) -> dict[str, Signature | None]:
    """Signatures of ``cells`` (LUTs of ``netlist``), keyed by cell name.

    Supports are memoised per net across all cells, so reconvergent
    fan-in is walked once; truth tables are memoised per net within one
    support, so cells over the same inputs share their cones' tables.
    """
    supports: dict[str, frozenset[str] | None] = {}
    tables: dict[tuple[str, ...], dict[str, int]] = {}
    out: dict[str, Signature | None] = {}
    for cell in cells:
        for driver in _cone(netlist, cell.output, supports):
            supports[driver.output] = _support(driver, supports)
        support = supports[cell.output]
        if support is None or len(support) > max_support:
            out[cell.name] = None
            continue
        names = tuple(sorted(support))
        full, masks = projections(len(names))
        values = tables.get(names)
        if values is None:
            values = tables[names] = dict(zip(names, masks))
        for driver in _cone(netlist, cell.output, values):
            values[driver.output] = lut_value(
                driver.table.bits, [values[net] for net in driver.inputs], full
            )
        out[cell.name] = Signature(names, values[cell.output])
    return out


def _cone(netlist: Netlist, root: str, known: dict[str, object]) -> list[Cell]:
    """Drivers of the nets in ``root``'s fan-in cone missing from
    ``known``, fan-in first.  Only LUTs are walked through: a primary
    input or a DFF ends its path."""
    order: list[Cell] = []
    finished: dict[str, bool] = {}  # net -> False while on the walk's path
    stack: list[tuple[str, Cell | None]] = [(root, None)]
    while stack:
        net, driver = stack.pop()
        if driver is not None:
            finished[net] = True
            order.append(driver)
            continue
        if net in known:
            continue
        state = finished.get(net)
        if state is False:
            raise SynthesisError(f"combinational cycle through net {net!r}")
        if state:
            continue
        driver = netlist.driver_cell(net)
        stack.append((net, driver))
        if driver.kind is CellKind.LUT:
            finished[net] = False
            stack.extend((in_net, None) for in_net in reversed(driver.inputs))
    return order


def _support(
    driver: Cell, supports: dict[str, frozenset[str] | None]
) -> frozenset[str] | None:
    """Primary-input support of ``driver``'s output; None past a DFF."""
    if driver.kind is CellKind.INPUT:
        return frozenset((driver.output,))
    if driver.kind is CellKind.DFF:
        return None
    support: frozenset[str] = frozenset()
    for net in driver.inputs:
        inner = supports[net]
        if inner is None:
            return None
        support |= inner
    return support


@dataclass
class SharedGroup:
    """Cells (one per listed context) computing the same PI function."""

    signature: Signature
    members: dict[int, str] = field(default_factory=dict)  # context -> cell name

    @property
    def n_contexts(self) -> int:
        return len(self.members)


@dataclass
class SharingReport:
    """Result of cross-context sharing analysis."""

    groups: list[SharedGroup]
    per_context_cells: dict[int, int]
    unsignable: int

    @property
    def shared_groups(self) -> list[SharedGroup]:
        return [g for g in self.groups if g.n_contexts > 1]

    @property
    def total_cells(self) -> int:
        return sum(self.per_context_cells.values())

    @property
    def distinct_functions(self) -> int:
        return len(self.groups) + self.unsignable

    def sharing_fraction(self) -> float:
        """Fraction of cells that are members of a multi-context group."""
        shared = sum(g.n_contexts for g in self.shared_groups)
        return shared / self.total_cells if self.total_cells else 0.0


def analyze_sharing(program: MultiContextProgram) -> SharingReport:
    """Group LUT cells across contexts by canonical signature."""
    by_sig: dict[Signature, SharedGroup] = {}
    per_context: dict[int, int] = {}
    unsignable = 0
    for c, netlist in enumerate(program.contexts):
        luts = netlist.luts()
        per_context[c] = len(luts)
        signatures = _signatures(netlist, luts, MAX_SUPPORT)
        for cell in luts:
            sig = signatures[cell.name]
            if sig is None:
                unsignable += 1
                continue
            group = by_sig.setdefault(sig, SharedGroup(sig))
            # keep the first matching cell of each context
            group.members.setdefault(c, cell.name)
    return SharingReport(list(by_sig.values()), per_context, unsignable)


# --------------------------------------------------------------------------- #
# LB-count accounting for the Figs. 13/14 comparison
# --------------------------------------------------------------------------- #
@dataclass
class PackingResult:
    """LB usage under one size-control policy."""

    policy: str
    n_lbs: int
    stored_planes: int
    redundant_planes: int


def lut_tables_by_slot(program: MultiContextProgram) -> list[dict[int, bytes]]:
    """Group the program's cells into logical LUT *slots*.

    A slot holds, for each context, the truth table that a physical LB
    would have to store.  Cells shared across contexts form one slot;
    context-unique cells form slots with gaps (a gap means the LB is
    free in that context and we conservatively store a repeat of an
    existing plane — matching the paper's accounting where unused
    contexts cost nothing extra under local control).
    """
    report = analyze_sharing(program)
    slots: list[dict[int, bytes]] = []
    claimed: dict[tuple[int, str], bool] = {}
    for group in report.groups:
        slot: dict[int, bytes] = {}
        for c, cell_name in group.members.items():
            table = program.contexts[c].cells[cell_name].table
            slot[c] = _table_key(table)
            claimed[(c, cell_name)] = True
        slots.append(slot)
    # unsignable cells: one slot each
    for c, netlist in enumerate(program.contexts):
        for cell in netlist.luts():
            if (c, cell.name) not in claimed:
                slots.append({c: _table_key(cell.table)})
    return slots


def _table_key(table: TruthTable) -> bytes:
    return f"{table.n_inputs}:{table.bits:x}".encode()


def _first_fit(slots: list[dict[int, bytes]]) -> list[dict[int, bytes]]:
    """Pack slots into LBs such that each LB holds at most one table per
    context (Fig. 13(b)'s LUT1 holds O1 in context 1 and O4 in context 2)."""
    lbs: list[dict[int, bytes]] = []
    for slot in sorted(slots, key=lambda s: -len(s)):
        for lb in lbs:
            if not (set(lb) & set(slot)):
                lb.update(slot)
                break
        else:
            lbs.append(dict(slot))
    return lbs


def pack_global(program: MultiContextProgram) -> PackingResult:
    """Fig. 13: global size control.

    Slots pack first-fit into LBs (one table per context per LB), and
    every LB stores a full plane per context — repeated planes included,
    which is exactly the redundancy Fig. 13(b) illustrates (LUT3 storing
    O3's data twice)."""
    slots = lut_tables_by_slot(program)
    n = program.n_contexts
    lbs = _first_fit(slots)
    stored = len(lbs) * n
    distinct = sum(max(1, len(set(lb.values()))) for lb in lbs)
    return PackingResult("global", len(lbs), stored, stored - distinct)


def pack_local(program: MultiContextProgram) -> PackingResult:
    """Fig. 14: local size control — each slot stores only distinct
    planes; freed planes become capacity for other slots (fractional
    bin packing, ceil'd)."""
    import math

    slots = lut_tables_by_slot(program)
    n = program.n_contexts
    frac = 0.0
    stored = 0
    for s in slots:
        d = len(set(s.values()))
        stored += d
        frac += d / n
    n_lbs = math.ceil(frac) if slots else 0
    return PackingResult("local", max(n_lbs, 1) if slots else 0, stored, 0)
