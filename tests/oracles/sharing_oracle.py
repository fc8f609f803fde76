"""Per-context sharing analysis: the oracle for the cone table.

This is :func:`repro.netlist.sharing.analyze_sharing` as it was before
it kept one cone table per program: every LUT of every context is
signed from scratch by walking its fan-in net by net, one context at a
time, and cells are grouped by signature in context order.  The
library's report must equal this one exactly, group order included
(``tests/netlist/test_sharing_oracle.py``).  It shares no signing code
with the library: only the report's data classes and ``MAX_SUPPORT``.
"""

from __future__ import annotations

from repro.errors import SynthesisError
from repro.netlist.dfg import MultiContextProgram
from repro.netlist.logic import lut_value, projections
from repro.netlist.netlist import Cell, CellKind, Netlist
from repro.netlist.sharing import (
    MAX_SUPPORT,
    SharedGroup,
    SharingReport,
    Signature,
)


def analyze_sharing_per_context(program: MultiContextProgram) -> SharingReport:
    """Group LUT cells across contexts by canonical signature, signing
    every cell of every context."""
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
