"""Pinned cases for the sharing-digest gate.

Each case runs :func:`repro.netlist.sharing.analyze_sharing` on one
named workload program and reduces the :class:`SharingReport` to a
sha256 over its groups *in order* (each signature's support and bits
plus the members), ``per_context_cells`` and ``unsignable``.  Group
order is part of the contract: ``lut_tables_by_slot`` hands the groups
to the first-fit packer in that order.

The cases cover every ``WORKLOADS`` program at seeds 0-2, 2 and 8
contexts and mutation fractions 0.05 and 0.15.  Regenerate
deliberately with
``PYTHONPATH=src python tests/netlist/regen_sharing_digests.py``.
"""

from __future__ import annotations

import hashlib
import json

from repro.api.workloads import WORKLOADS, build_circuit, build_program
from repro.netlist.sharing import SharingReport, analyze_sharing

SEEDS = (0, 1, 2)
CONTEXTS = (2, 8)
MUTATIONS = (0.05, 0.15)


def programs():
    """Yield ``(key, program)`` for every pinned case."""
    for name in WORKLOADS:
        base = build_circuit(name)
        for seed in SEEDS:
            for n in CONTEXTS:
                for mutation in MUTATIONS:
                    key = f"{name}/seed={seed}/contexts={n}/mutation={mutation}"
                    yield key, build_program(name, n, mutation, seed, base=base)


def report_record(report: SharingReport) -> list:
    """One report as a canonical JSON-ready list."""
    return [
        [[list(g.signature.support), f"{g.signature.bits:x}",
          sorted(g.members.items())] for g in report.groups],
        sorted(report.per_context_cells.items()),
        report.unsignable,
    ]


def compute_digests() -> dict[str, str]:
    out: dict[str, str] = {}
    for key, prog in programs():
        blob = json.dumps(report_record(analyze_sharing(prog)),
                          separators=(",", ":")).encode()
        out[key] = hashlib.sha256(blob).hexdigest()
    return out
