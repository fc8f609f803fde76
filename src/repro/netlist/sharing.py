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

Contexts of one program mostly repeat each other, so
:func:`analyze_sharing` keeps one *cone table* (:class:`ConeTable`) per
program: structural hashing, as ABC's ``strash`` (Mishchenko et al.,
DAC'06).  Every net gets a structural key, interned to a cone id that
all contexts share:

- a primary input's key is its net name;
- a DFF output's key is one shared "state" key;
- a LUT's key is its table bits, its arity and its inputs' cone ids.

Equal keys mean the same LUT tree over the same primary inputs, hence
the same signature, so each distinct cone is signed once per program.
Supports are kept per cone, and truth tables per cone and support, so
a cone that differs from an earlier one in a single LUT evaluates only
what is new in its fan-in.  The report equals the one signing every
cell of every context gives, group order included.

Outputs feed three consumers:

- the multi-context mapper (pin shared cells to one LB → one plane),
- the Figs. 13/14 bench (global vs local LB counts),
- the area model (measured plane-count distribution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MappingError
from repro.netlist.logic import TruthTable, lut_value, projections
from repro.netlist.netlist import CellKind, Netlist
from repro.netlist.dfg import MultiContextProgram
from repro.utils.telemetry import count as _tcount


#: Largest support a signature is computed over (a ``2**12``-bit table).
MAX_SUPPORT = 12

#: The structural key every DFF output shares (state is never signed).
_STATE = None


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
    table = ConeTable(max_support)
    return table.signature(table.cone_ids(netlist)[cell.output])


class ConeTable:
    """The distinct structural cones of the netlists keyed into it (see
    the module docstring).

    Cone ids count up from 0 in the order keys are first seen, and a
    LUT's inputs are keyed before it, so a cone's fan-in always has
    smaller ids than the cone.
    """

    def __init__(self, max_support: int = MAX_SUPPORT) -> None:
        self.max_support = max_support
        self.ids: dict[object, int] = {}  # structural key -> cone id
        self.keys: list[object] = []  # cone id -> structural key
        #: cone id -> primary-input support; None past a DFF
        self.supports: list[frozenset[str] | None] = []
        #: sorted support -> cone id -> the cone's table over it
        self.tables: dict[tuple[str, ...], dict[int, int]] = {}

    def _intern(self, key: object, support: frozenset[str] | None) -> int:
        cone = self.ids[key] = len(self.keys)
        self.keys.append(key)
        self.supports.append(support)
        return cone

    def cone_ids(self, netlist: Netlist) -> dict[str, int]:
        """Cone id of every net ``netlist`` drives.

        A primary input's key is its net name, a DFF output's is
        :data:`_STATE`, and a LUT's is its table bits, its arity and
        its inputs' cone ids.  Sources are keyed first, as the
        topological order may list an INPUT or DFF cell after its
        readers.  Raises :class:`SynthesisError` on a combinational
        cycle or an undriven net.
        """
        ids, supports = self.ids, self.supports
        net_cone: dict[str, int] = {}
        cells = netlist.cells
        for cell in cells.values():
            if cell.kind is CellKind.INPUT:
                key, support = cell.output, frozenset((cell.output,))
            elif cell.kind is CellKind.DFF:
                key, support = _STATE, None
            else:
                continue
            cone = ids.get(key)
            net_cone[cell.output] = (
                self._intern(key, support) if cone is None else cone)
        for name in netlist.topo_order():
            cell = cells[name]
            if cell.kind is not CellKind.LUT:
                continue
            table = cell.table
            key = (table.bits, table.n_inputs,
                   *[net_cone[net] for net in cell.inputs])
            cone = ids.get(key)
            if cone is None:
                support: frozenset[str] | None = frozenset()
                for inner in key[2:]:
                    if supports[inner] is None:
                        support = None
                        break
                    support |= supports[inner]
                cone = self._intern(key, support)
            net_cone[cell.output] = cone
        return net_cone

    def signature(self, cone: int) -> Signature | None:
        """The signature of the LUT cone ``cone``; None past a DFF or
        beyond ``max_support`` inputs.

        Tables are memoised per cone and support across every netlist
        keyed into the table, so a cone evaluates only the part of its
        fan-in no earlier cone over the same support has.
        """
        support = self.supports[cone]
        if support is None or len(support) > self.max_support:
            return None
        names = tuple(sorted(support))
        full, masks = projections(len(names))
        values = self.tables.get(names)
        if values is None:
            values = self.tables[names] = {
                self.ids[name]: mask for name, mask in zip(names, masks)}
        missing: set[int] = set()
        stack = [cone]
        while stack:
            at = stack.pop()
            if at not in values and at not in missing:
                missing.add(at)
                stack.extend(self.keys[at][2:])
        for at in sorted(missing):  # fan-in first: inputs have lower ids
            key = self.keys[at]
            values[at] = lut_value(key[0], [values[i] for i in key[2:]], full)
        return Signature(names, values[cone])


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
    """Group LUT cells across contexts by canonical signature.

    One :class:`ConeTable` serves every context, so each distinct
    structural cone is signed once.  Counts ``sharing.cells`` (LUT
    cells) and ``sharing.signed`` (cones signed)."""
    table = ConeTable()
    by_sig: dict[Signature, SharedGroup] = {}
    by_cone: dict[int, SharedGroup | None] = {}  # None: unsignable
    per_context: dict[int, int] = {}
    unsignable = 0
    for c, netlist in enumerate(program.contexts):
        luts = netlist.luts()
        per_context[c] = len(luts)
        net_cone = table.cone_ids(netlist)
        for cell in luts:
            cone = net_cone[cell.output]
            if cone in by_cone:
                group = by_cone[cone]
            else:
                sig = table.signature(cone)
                group = by_cone[cone] = None if sig is None else \
                    by_sig.setdefault(sig, SharedGroup(sig))
            if group is None:
                unsignable += 1
                continue
            # keep the first matching cell of each context
            group.members.setdefault(c, cell.name)
    _tcount("sharing.cells", sum(per_context.values()))
    _tcount("sharing.signed", len(by_cone))
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
