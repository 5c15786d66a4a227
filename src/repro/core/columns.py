"""Columnar bridge between flat configurations and batch kernels.

The flat :class:`~repro.core.state.Configuration` stores one value row
per process addressed through an interned
:class:`~repro.core.state.StateLayout`.  A :class:`ColumnStore` turns
that row-major storage into one *column* per layout slot — the shape a
vectorized guard kernel wants — plus the per-process adjacency and
register-width tables every kernel needs:

* ``col(slot)`` — one integer column per variable, in canonical
  network-process order, holding *encoded* values (integers pass
  through; finite-set values are mapped to their index in the domain's
  value tuple, so ``Dominator``/``dominated`` and ``False``/``True``
  become ``0``/``1``);
* ``nbr`` / ``deg`` — a padded neighbor-index matrix built from the
  network's integer port table :attr:`Network.adjacency`
  (``nbr[i][port-1]`` is
  the column index of the neighbor behind port ``port`` of process
  ``i``);
* ``reg_bits(name)`` — per-process register widths in bits, gathered by
  neighbor index to charge reads exactly like
  :class:`~repro.core.context.StepContext` does.

Backends: NumPy arrays when NumPy imports (:data:`numpy` is resolved at
store construction, so blocking the import per-test exercises the
fallback), stdlib ``array('q')``/list columns otherwise.  Both expose
one tiny primitive set (:class:`_NumpyOps` / :class:`_PythonOps`) so
kernels are written once against ``store.ops``.

The columns are resident: :meth:`ColumnStore.write` and
:meth:`ColumnStore.write_col` land in the columns only, record the
touched slots in ``_dirty_slots``, and advance the per-slot
``generation`` stamp.  Rows are refreshed by an explicit
:meth:`materialize` call at observation boundaries (traces, scenario
hooks, silence predicates, direct configuration reads — the batch
engine installs a ``Configuration`` sync hook that routes all of those
here), so every consumer of the configuration observes exactly the
state a scalar step would have produced.  The two staleness directions
are mutually exclusive by construction: while columns are dirty,
:meth:`pull`/:meth:`pull_all` refuse to run, so a row-ahead and a
column-ahead view can never silently merge.

A store is only *supported* for flat configurations whose processes
share one interned layout and whose domains are all integer ranges or
uniform finite value tuples; :meth:`ColumnStore.try_build` returns
``None`` otherwise and the batch engine falls back to the scalar path.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..obs.registry import TELEMETRY
from .exceptions import ModelError
from .variables import FiniteSet, IntRange

ProcessId = Hashable

_SCALARS = (bool, int, float)


def _load_numpy():
    """NumPy, or None when unavailable (resolved per call, never cached,
    so tests can block the import for a single store)."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class _NumpyOps:
    """Vector primitives over ``numpy.ndarray`` columns."""

    backend = "numpy"

    def __init__(self, np):
        self.np = np

    # -- construction ---------------------------------------------------
    def int_col(self, seq):
        return self.np.asarray(seq, dtype=self.np.int64)

    def float_col(self, seq):
        return self.np.asarray(seq, dtype=self.np.float64)

    def arange(self, n):
        return self.np.arange(n, dtype=self.np.int64)

    def zeros_int(self, n):
        return self.np.zeros(n, dtype=self.np.int64)

    # -- gathers --------------------------------------------------------
    def take(self, col, idx):
        return col[idx]

    def take2(self, mat, rows, cols):
        return mat[rows, cols]

    # -- elementwise ----------------------------------------------------
    def eq(self, a, b):
        return a == b

    def ne(self, a, b):
        return a != b

    def lt(self, a, b):
        return a < b

    def and_(self, a, b):
        return a & b

    def or_(self, a, b):
        return a | b

    def not_(self, a):
        return ~a

    def add(self, a, b):
        return a + b

    def mod(self, a, b):
        return a % b

    def where(self, c, a, b):
        return self.np.where(c, a, b)

    # -- reductions / conversions --------------------------------------
    def count(self, mask) -> int:
        return int(mask.sum())

    def anytrue(self, mask) -> bool:
        return bool(mask.any())

    def compress_list(self, vals, mask) -> list:
        return vals[mask].tolist()

    def nonzero_list(self, mask) -> list:
        return self.np.nonzero(mask)[0].tolist()

    def tolist(self, col) -> list:
        return col.tolist()


class _PythonOps:
    """The same primitives over stdlib ``array``/list columns.

    Columns are ``array('q')`` (state) or plain lists (masks, floats);
    scalar operands broadcast.  Performance is secondary — this backend
    exists so the batch engine stays available, and trace-identical,
    without NumPy.
    """

    backend = "python"

    @staticmethod
    def _iter(v, n):
        return repeat(v) if isinstance(v, _SCALARS) else v

    # -- construction ---------------------------------------------------
    def int_col(self, seq):
        return array("q", seq)

    def float_col(self, seq):
        return list(seq)

    def arange(self, n):
        return array("q", range(n))

    def zeros_int(self, n):
        return array("q", bytes(8 * n))

    # -- gathers --------------------------------------------------------
    def take(self, col, idx):
        return [col[i] for i in idx]

    def take2(self, mat, rows, cols):
        return [mat[i][j] for i, j in zip(rows, cols)]

    # -- elementwise ----------------------------------------------------
    def eq(self, a, b):
        return [x == y for x, y in zip(a, self._iter(b, len(a)))]

    def ne(self, a, b):
        return [x != y for x, y in zip(a, self._iter(b, len(a)))]

    def lt(self, a, b):
        return [x < y for x, y in zip(a, self._iter(b, len(a)))]

    def and_(self, a, b):
        return [x and y for x, y in zip(a, b)]

    def or_(self, a, b):
        return [x or y for x, y in zip(a, b)]

    def not_(self, a):
        return [not x for x in a]

    def add(self, a, b):
        return [x + y for x, y in zip(a, self._iter(b, len(a)))]

    def mod(self, a, b):
        return [x % y for x, y in zip(a, self._iter(b, len(a)))]

    def where(self, c, a, b):
        n = len(c)
        return [
            x if m else y
            for m, x, y in zip(c, self._iter(a, n), self._iter(b, n))
        ]

    # -- reductions / conversions --------------------------------------
    def count(self, mask) -> int:
        return sum(mask)

    def anytrue(self, mask) -> bool:
        return any(mask)

    def compress_list(self, vals, mask) -> list:
        return [v for v, m in zip(vals, mask) if m]

    def nonzero_list(self, mask) -> list:
        return [i for i, m in enumerate(mask) if m]

    def tolist(self, col) -> list:
        return list(col)


class _SlotCodec:
    """Encode/decode between a column's integers and row values.

    ``values is None`` is the identity codec (all-integer-range slots);
    otherwise values are indexed into the shared finite value tuple, and
    decoding restores the *original* objects — real bools, strings —
    so written-back rows are indistinguishable from scalar writes
    (JSON type fidelity matters for byte-identical traces).
    """

    __slots__ = ("values", "encode_map")

    def __init__(self, values: Optional[Tuple[Any, ...]]):
        self.values = values
        self.encode_map = (
            None
            if values is None
            else {v: i for i, v in enumerate(values)}
        )

    def encode(self, value) -> int:
        if self.values is None:
            return value
        return self.encode_map[value]

    def decode(self, code: int):
        if self.values is None:
            return code
        return self.values[code]


class ColumnStore:
    """Columnar mirror of one flat configuration over one network."""

    __slots__ = (
        "ops",
        "backend",
        "n",
        "pids",
        "pindex",
        "layout",
        "rows",
        "codecs",
        "cols",
        "nbr",
        "deg",
        "max_degree",
        "all_idx",
        "generation",
        "_dirty_slots",
        "_bits_raw",
        "_bits_cols",
        "_port_mask",
    )

    def __init__(self, ops, pids, pindex, layout, rows, codecs, bits_raw,
                 nbr, deg, max_degree):
        self.ops = ops
        self.backend = ops.backend
        self.n = len(pids)
        self.pids = pids
        self.pindex = pindex
        self.layout = layout
        self.rows = rows
        self.codecs = codecs
        self._bits_raw = bits_raw
        self._bits_cols: Dict[str, Any] = {}
        self.nbr = nbr
        self.deg = deg
        self.max_degree = max_degree
        self._port_mask = None
        self.all_idx = ops.arange(self.n)
        #: per-slot column generation stamp; advances on every write, so
        #: observers can tell whether a slot moved since they last
        #: materialized.
        self.generation: List[int] = [0] * len(layout.names)
        self._dirty_slots: set = set()
        self.cols: List[Any] = [None] * len(layout.names)
        self.pull_all()

    # ------------------------------------------------------------------
    @classmethod
    def try_build(cls, network, config, specs_of) -> Optional["ColumnStore"]:
        """A store for this run, or ``None`` when unsupported.

        Unsupported cases (the batch engine then runs its scalar
        fallback): legacy dict configurations, processes with differing
        layouts, and variable domains that are neither integer ranges
        nor one shared finite value tuple.
        """
        row_of = getattr(config, "row_of", None)
        layout_of = getattr(config, "layout_of", None)
        if row_of is None or layout_of is None:
            return None
        pids = list(network.processes)
        n = len(pids)
        if n == 0:
            return None
        aligned = getattr(config, "aligned_storage", None)
        aligned = aligned(pids) if aligned is not None else None
        layout = (aligned[0][0] if aligned is not None
                  else layout_of(pids[0]))
        names = layout.names
        nvars = len(names)
        # One pass over every process resolves layout sharing, slot
        # codecs, the per-variable register widths, and the row aliases.
        # Spec tuples repeat heavily (protocols memoize by degree), so
        # the codec/bits resolution runs once per *distinct* tuple and
        # the per-process loop degrades to cache hits.
        codec_values: List[Any] = [False] * nvars  # False=int, tuple=enum
        bits_raw: Dict[str, List[float]] = {name: [0.0] * n for name in names}
        bits_cols = [bits_raw[name] for name in names]
        spec_cache: Dict[int, Optional[List[float]]] = {}

        def resolve(specs, first: bool) -> Optional[List[float]]:
            """Per-slot bit widths of one spec tuple, or None if the
            tuple cannot share this store's layout/codecs."""
            if len(specs) != nvars:
                return None
            bits = [0.0] * nvars
            for spec in specs:
                k = layout.index.get(spec.name)
                if k is None:
                    return None
                dom = spec.domain
                if isinstance(dom, IntRange):
                    if codec_values[k] is not False:
                        return None
                elif isinstance(dom, FiniteSet):
                    if codec_values[k] is False:
                        if first:
                            codec_values[k] = dom.values
                        else:
                            return None
                    elif codec_values[k] != dom.values:
                        return None
                else:
                    return None
                bits[k] = dom.bits
            return bits

        if aligned is not None:
            layouts, rows = aligned
            rows = list(rows)
        else:
            layouts = None
            rows = [None] * n
        bits_refs: List[Optional[List[float]]] = [None] * n
        for i, p in enumerate(pids):
            if aligned is not None:
                if layouts[i] is not layout:
                    return None
            else:
                if layout_of(p) is not layout:
                    return None
                rows[i] = row_of(p)
            specs = specs_of[p]
            bits = spec_cache.get(id(specs))
            if bits is None and id(specs) not in spec_cache:
                bits = resolve(specs, first=(i == 0))
                spec_cache[id(specs)] = bits
            if bits is None:
                return None
            bits_refs[i] = bits
        for k in range(nvars):
            bits_cols[k][:] = [b[k] for b in bits_refs]
        codecs = [
            _SlotCodec(None if values is False else tuple(values))
            for values in codec_values
        ]
        np = _load_numpy()
        ops = _NumpyOps(np) if np is not None else _PythonOps()
        # The network's own integer port table: positions match ``pids``.
        pindex = network.index
        adjacency = network.adjacency
        degs = list(map(len, adjacency))
        max_degree = max(degs) if degs else 0
        if max_degree == 0:
            return None
        if ops.backend == "numpy":
            # Padded (n, Δ) table built by scatter instead of a Python
            # per-neighbor append loop — at 1M processes the loop was
            # most of the store build.
            m2 = sum(degs)
            flat = np.fromiter(chain.from_iterable(adjacency),
                               dtype=np.int64, count=m2)
            deg_arr = np.asarray(degs, dtype=np.int64)
            rows_rep = np.repeat(np.arange(n, dtype=np.int64), deg_arr)
            starts = np.repeat(
                np.cumsum(deg_arr, dtype=np.int64) - deg_arr, deg_arr
            )
            cols_rep = np.arange(m2, dtype=np.int64) - starts
            nbr = np.zeros((n, max_degree), dtype=np.int64)
            nbr[rows_rep, cols_rep] = flat
            deg = deg_arr
        else:
            nbr = [array("q", row) for row in adjacency]
            deg = ops.int_col(degs)
        return cls(ops, pids, pindex, layout, rows, codecs, bits_raw,
                   nbr, deg, max_degree)

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def slot(self, name: str) -> int:
        """The column index of register ``name`` in the shared layout."""
        return self.layout.index[name]

    def col(self, slot: int):
        """The backend column (codes, one entry per process) for ``slot``."""
        return self.cols[slot]

    def port_mask(self):
        """NumPy ``(n, Δ)`` mask of the real ports in the padded ``nbr``
        table; padding entries gather process 0 and must be masked out
        of any whole-table reduction."""
        if self._port_mask is None:
            np = self.ops.np
            self._port_mask = (np.arange(self.max_degree)[None, :]
                               < self.deg[:, None])
        return self._port_mask

    def encode(self, slot: int, value) -> int:
        """The column code of one row value (for kernel constants)."""
        return self.codecs[slot].encode(value)

    def reg_bits(self, name: str):
        """Per-process register width of ``name`` in bits, as a float
        column indexed like every other column (gather by neighbor
        index to charge a read)."""
        col = self._bits_cols.get(name)
        if col is None:
            col = self._bits_cols[name] = self.ops.float_col(
                self._bits_raw[name]
            )
        return col

    # ------------------------------------------------------------------
    # Row <-> column synchronization
    # ------------------------------------------------------------------
    def pull_all(self) -> None:
        """Re-read every row into the columns (bind / full distrust)."""
        if self._dirty_slots:
            raise ModelError(
                "pull_all() with undecoded column writes; "
                "materialize() first"
            )
        rows = self.rows
        for k, codec in enumerate(self.codecs):
            if codec.values is None:
                data = [row[k] for row in rows]
            else:
                enc = codec.encode_map
                data = [enc[row[k]] for row in rows]
            self.cols[k] = self.ops.int_col(data)

    def pull(self, indices) -> None:
        """Re-read the rows of ``indices`` (out-of-band writes: faults,
        adversarial resets, scalar steps interleaved with batch ones)."""
        if self._dirty_slots:
            raise ModelError(
                "pull() with undecoded column writes; "
                "materialize() first"
            )
        rows = self.rows
        for k, codec in enumerate(self.codecs):
            col = self.cols[k]
            if codec.values is None:
                for i in indices:
                    col[i] = rows[i][k]
            else:
                enc = codec.encode_map
                for i in indices:
                    col[i] = enc[rows[i][k]]

    def write(self, slot: int, indices: list, codes: list) -> None:
        """Apply one slot's batch of writes to the column; the rows stay
        stale until :meth:`materialize`."""
        col = self.cols[slot]
        if self.backend == "numpy":
            col[indices] = codes
        else:
            for i, v in zip(indices, codes):
                col[i] = v
        self.generation[slot] += 1
        self._dirty_slots.add(slot)

    def write_col(self, slot: int, codes) -> None:
        """Replace one slot's whole column; the rows stay stale until
        :meth:`materialize`."""
        if self.backend == "python" and not isinstance(codes, array):
            codes = array("q", codes)
        self.cols[slot] = codes
        self.generation[slot] += 1
        self._dirty_slots.add(slot)

    @property
    def dirty(self) -> bool:
        """True while the columns hold writes not yet decoded."""
        return bool(self._dirty_slots)

    def materialize(self) -> None:
        """Decode every dirty column back into the live rows (the
        observation boundary).  Idempotent and cheap when nothing is
        dirty."""
        if not self._dirty_slots:
            return
        if TELEMETRY.enabled:
            # Decode events are the batch engine's cost center: the
            # whole point of column residency is keeping this count low.
            TELEMETRY.counter("columns.materializations").inc()
            TELEMETRY.counter("columns.materialized_slots").inc(
                len(self._dirty_slots))
        rows = self.rows
        tolist = self.ops.tolist
        for k in sorted(self._dirty_slots):
            codec = self.codecs[k]
            data = tolist(self.cols[k])
            if codec.values is None:
                for i, v in enumerate(data):
                    rows[i][k] = v
            else:
                values = codec.values
                for i, v in enumerate(data):
                    rows[i][k] = values[v]
        self._dirty_slots.clear()

    def __repr__(self) -> str:
        return (
            f"ColumnStore(n={self.n}, backend={self.backend!r}, "
            f"vars={self.layout.names!r})"
        )
