"""Id-based index of one :class:`~repro.netlist.netlist.Netlist`.

The mapping stages — placement set-up, route endpoint extraction,
device configuration, LUT statistics and fabric evaluation — read a
netlist's connectivity from here instead of re-deriving it from the
name-keyed cell dicts.  :meth:`Netlist.index
<repro.netlist.netlist.Netlist.index>` builds it on first use, in one
pass over the cells that visits every input pin once, and caches it
beside the topological order; ``add_cell`` and :meth:`Netlist.invalidate
<repro.netlist.netlist.Netlist.invalidate>` drop it.  It follows the
id-based atom netlist of VTR 8 (Murray et al., ACM TRETS 2020).

Ids:

- cell ``i`` is the ``i``-th cell in insertion order (``cell_names``);
- nets are the driven nets in ``net_driver`` order, then any net that
  is read but not driven, in first-read order (``net_names``); the
  first ``n_driven`` are the driven ones;
- a LUT's *position* is its place in ``luts``, the row of its table in
  ``tables``.

Reader pins are int32 CSR rows: net ``n``'s pins are
``pin_cell[pin_start[n]:pin_start[n + 1]]`` (with their input slots in
``pin_slot``), in cell-then-slot order, and cell ``i``'s input nets
are ``in_net[in_start[i]:in_start[i + 1]]`` in slot order.  The parts
only some stages read (the topological order, the cells timing walks
in it and the tables padded to a LUT size) are derived on first use and
cached here.
The arrays are read-only: the index is shared by every stage.
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np

from repro.netlist.netlist import CellKind

#: Cell kind codes of :attr:`NetlistIndex.kind`.
INPUT, OUTPUT, LUT, DFF = range(4)
KIND_CODE = {CellKind.INPUT: INPUT, CellKind.OUTPUT: OUTPUT,
             CellKind.LUT: LUT, CellKind.DFF: DFF}


#: Kind codes by member identity (an ``Enum`` hashes in Python).
_CODE_OF = {id(kind): code for kind, code in KIND_CODE.items()}


def _pack(*rows: list, dtype=np.int32) -> list[np.ndarray]:
    """Each list of ints as a read-only array, views of one conversion."""
    flat = np.array(list(chain.from_iterable(rows)), dtype=dtype)
    flat.setflags(write=False)
    cut = [0, *accumulate(map(len, rows))]
    return [flat[a:b] for a, b in zip(cut, cut[1:])]


class NetlistIndex:
    """Cell ids, net ids, reader-pin rows and LUT tables of a netlist.

    Besides the fields the module docstring describes, it holds what
    placement reads:

    - ``terminals``, ``(start, cells, n_multi)``: a net's terminals are
      the cells touching it, each once, in the order a walk over the
      cells first touches them (a LUT touches its output net, then its
      inputs; an input its net; an output its net; a DFF its input,
      then its output), and nets come in the order that walk first
      touches them.  The nets with two or more distinct terminals are
      the int32 CSR rows ``(start, cells)``; the others cost nothing
      wherever their cell goes.  ``n_multi`` counts the nets touched
      two or more times (a cell reading a net twice counts twice).
    - ``io_rows``, ``(ios, owner, cells)``: every primary input, then
      every primary output, and the cells its pad is placed near, as
      pairs (I/O ``owner[j]`` is near cell ``cells[j]``, ``owner``
      ascending): an input's readers (each once, in cell order), an
      output's driver.
    """

    __slots__ = (
        "cell_names", "cell_id", "kind", "net_names", "net_id",
        "n_driven", "driver", "out_net", "in_start", "in_net",
        "pin_start", "pin_cell", "pin_slot", "inputs", "outputs",
        "luts", "dffs", "lut_n", "tables", "terminals", "io_rows",
        "_netlist", "_topo", "_readers", "_padded",
    )

    def __init__(self, netlist) -> None:
        cells = list(netlist.cells.values())
        names = [c.name for c in cells]
        cell_id = dict(zip(names, range(len(names))))
        net_id = dict(zip(netlist.net_driver, range(len(netlist.net_driver))))
        self.n_driven = len(net_id)
        driver = [cell_id[d] for d in netlist.net_driver.values()]
        kinds = [_CODE_OF[id(c.kind)] for c in cells]
        out = [-1 if k == OUTPUT else net_id.get(c.output, -1)
               for c, k in zip(cells, kinds)]
        readers: list[list[int]] = [[] for _ in driver]
        slots: list[list[int]] = [[] for _ in driver]
        # placement terminals: the cells touching each net, in the order
        # this walk touches them (see :meth:`terminals`)
        touched: dict[int, list[int]] = {}
        in_net: list[int] = []
        in_start = [0]
        for i, c in enumerate(cells):
            k = kinds[i]
            if k == LUT or k == INPUT:
                touched.setdefault(out[i], []).append(i)
            for slot, net in enumerate(c.inputs):  # the one visit of a pin
                n = net_id.get(net)
                if n is None:
                    n = net_id[net] = len(driver)
                    driver.append(-1)
                    readers.append([])
                    slots.append([])
                in_net.append(n)
                readers[n].append(i)
                slots[n].append(slot)
                touched.setdefault(n, []).append(i)
            if k == DFF:
                touched.setdefault(out[i], []).append(i)
            in_start.append(len(in_net))
        by_kind: list[list[int]] = [[], [], [], []]
        for i, k in enumerate(kinds):
            by_kind[k].append(i)
        self.inputs, self.outputs, self.luts, self.dffs = by_kind
        tables = [cells[i].table for i in self.luts]
        live = [r for r in map(dict.fromkeys, touched.values()) if len(r) > 1]
        # I/O pads go near an input's readers (each once), an output's driver
        owner: list[int] = []
        near: list[int] = []
        for i, c in enumerate(self.inputs):
            row = dict.fromkeys(readers[out[c]])
            owner += [i] * len(row)
            near += row
        for i, c in enumerate(self.outputs, len(self.inputs)):
            d = driver[in_net[in_start[c]]]
            if d >= 0:
                owner.append(i)
                near.append(d)

        self._netlist = netlist
        self.cell_names = names
        self.cell_id = cell_id
        self.net_names = list(net_id)
        self.net_id = net_id
        (self.kind, self.driver, self.out_net, self.in_start, self.in_net,
         self.pin_start, self.pin_cell, self.pin_slot, self.lut_n,
         live_start, live_cells) = _pack(
            kinds, driver, out, in_start, in_net,
            [0, *accumulate(map(len, readers))],
            list(chain.from_iterable(readers)),
            list(chain.from_iterable(slots)),
            [t.n_inputs for t in tables],
            [0, *accumulate(map(len, live))],
            list(chain.from_iterable(live)),
        )
        self.terminals = (live_start, live_cells,
                          sum(len(r) > 1 for r in touched.values()))
        self.io_rows = (self.inputs + self.outputs,
                        *_pack(owner, near, dtype=np.intp))
        self.tables = self._table_matrix(tables)
        self.tables.setflags(write=False)
        self._topo = None
        self._readers = None
        self._padded: dict[int, np.ndarray] = {}

    @staticmethod
    def _table_matrix(tables: list) -> np.ndarray:
        """Every LUT's truth bits, one uint8 row each, replicated to the
        widest table's ``2**n`` entries (so row ``i``'s first
        ``2**n_i`` entries are its table).  Replication is one integer
        multiply per table, the unpacking one numpy call."""
        width = 1 << max((t.n_inputs for t in tables), default=0)
        nbytes = (width + 7) // 8
        full = (1 << width) - 1
        blob = b"".join(
            (t.bits * (full // ((1 << (1 << t.n_inputs)) - 1)))
            .to_bytes(nbytes, "little")
            for t in tables
        )
        return np.unpackbits(
            np.frombuffer(blob, dtype=np.uint8).reshape(len(tables), nbytes),
            axis=1, count=width, bitorder="little",
        )

    @property
    def n_cells(self) -> int:
        return len(self.cell_names)

    @property
    def n_nets(self) -> int:
        return len(self.net_names)

    def table(self, pos: int) -> np.ndarray:
        """LUT ``pos``'s truth bits (``TruthTable.to_array`` values), a
        read-only view."""
        return self.tables[pos, : 1 << int(self.lut_n[pos])]

    # -- derived on first use ------------------------------------------- #
    def padded(self, k: int) -> np.ndarray:
        """``tables`` replicated to ``2**k`` columns: row ``i`` is LUT
        ``i``'s table as a ``k``-input LUT loads it (the upper inputs
        are don't-cares).  Rows of tables wider than ``k`` inputs are
        meaningless; callers reject those LUTs first."""
        out = self._padded.get(k)
        if out is None:
            width = 1 << k
            have = self.tables.shape[1]
            out = (self.tables[:, :width] if width <= have
                   else np.tile(self.tables, (1, width // have)))
            out.setflags(write=False)
            self._padded[k] = out
        return out

    @property
    def topo(self) -> list[int]:
        """:meth:`Netlist.topo_order
        <repro.netlist.netlist.Netlist.topo_order>` as cell ids."""
        if self._topo is None:
            cell_id = self.cell_id
            self._topo = [cell_id[n] for n in self._netlist.topo_order()]
        return self._topo

    @property
    def readers(self) -> list[tuple[int, int, list[int], int]]:
        """Every cell with inputs (LUT, DFF, output) in :attr:`topo`
        order, as ``(cell, kind, input nets in slot order, output
        net)`` (output net -1 for an output) — the walk static timing
        makes."""
        if self._readers is None:
            kinds = self.kind.tolist()
            start = self.in_start.tolist()
            nets = self.in_net.tolist()
            out = self.out_net.tolist()
            self._readers = [
                (c, kinds[c], nets[start[c]:start[c + 1]], out[c])
                for c in self.topo if kinds[c] != INPUT
            ]
        return self._readers
