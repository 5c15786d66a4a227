"""Protocol COLORING (paper Figure 7).

A 1-efficient randomized silent protocol that stabilizes to the vertex
coloring predicate with probability 1 in arbitrary anonymous networks::

    Communication Variable:  C.p ∈ {1 .. Δ+1}
    Internal Variable:       cur.p ∈ [1 .. δ.p]
    Actions:
      (C.p = C.(cur.p)) → C.p ← random({1..Δ+1}); cur.p ← (cur.p mod δ.p)+1
      (C.p ≠ C.(cur.p)) → cur.p ← (cur.p mod δ.p)+1

Each process checks one neighbor per step in round-robin order; on a
color clash it redraws uniformly from the Δ+1 palette.  Δ+1 colors are
the minimum for arbitrary networks (a Δ-clique needs them all).
"""

from __future__ import annotations

from typing import Hashable, Tuple

from ..core.actions import GuardedAction
from ..core.exceptions import TopologyError
from ..core.protocol import Protocol
from ..core.state import Configuration
from ..core.variables import IntRange, VariableSpec, comm, internal
from ..graphs.topology import Network
from ..predicates.coloring import coloring_predicate

ProcessId = Hashable


class ColoringProtocol(Protocol):
    """The paper's Protocol COLORING, parameterised by the palette size.

    Parameters
    ----------
    palette_size:
        Number of colors; defaults to Δ+1 when built via
        :meth:`for_network`.  The protocol is correct for any size
        ≥ Δ+1 (larger palettes converge faster).
    """

    name = "COLORING"
    randomized = True

    def __init__(self, palette_size: int):
        if palette_size < 2:
            raise ValueError("palette must contain at least 2 colors")
        self.palette = IntRange(1, palette_size)
        # Spec tuples are degree-determined; memoizing them makes
        # specs_of/arbitrary_configuration O(distinct degrees) instead
        # of one dataclass pair per process, and lets the column store
        # resolve codecs once per distinct tuple.
        self._specs_by_degree = {}

    @classmethod
    def for_network(cls, network: Network, extra_colors: int = 0) -> "ColoringProtocol":
        """The canonical Δ+1-color instance for ``network``."""
        return cls(network.max_degree + 1 + extra_colors)

    # ------------------------------------------------------------------
    def variables(self, network: Network, p: ProcessId) -> Tuple[VariableSpec, ...]:
        degree = network.degree(p)
        specs = self._specs_by_degree.get(degree)
        if specs is None:
            if degree < 1:
                raise TopologyError(
                    "COLORING requires every process to have a neighbor"
                )
            specs = self._specs_by_degree[degree] = (
                comm("C", self.palette),
                internal("cur", IntRange(1, degree)),
            )
        return specs

    def actions(self) -> Tuple[GuardedAction, ...]:
        def clash(ctx) -> bool:
            return ctx.get("C") == ctx.read(ctx.get("cur"), "C")

        def recolor(ctx) -> None:
            ctx.set("C", ctx.random_choice(self.palette))
            ctx.advance("cur")

        def no_clash(ctx) -> bool:
            return ctx.get("C") != ctx.read(ctx.get("cur"), "C")

        def advance(ctx) -> None:
            ctx.advance("cur")

        return (
            GuardedAction("recolor", clash, recolor),
            GuardedAction("advance", no_clash, advance),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return coloring_predicate(network, config, var="C")

    # ------------------------------------------------------------------
    def color_of(self, config: Configuration, p: ProcessId) -> int:
        """The paper's output function ``color.p`` — the value of C.p."""
        return config.get(p, "C")


# ----------------------------------------------------------------------
# Vectorized kernel (engine="batch")
# ----------------------------------------------------------------------
from ..core.batchengine import BatchKernel, register_batch_kernel  # noqa: E402


@register_batch_kernel(ColoringProtocol)
class ColoringBatchKernel(BatchKernel):
    """Whole-column COLORING guards.

    Every process is always enabled and reads exactly the neighbor at
    ``cur``: a clash fires ``recolor`` (fresh palette draw, one per
    clashing process in selection order — the same draw sequence as the
    scalar effects), otherwise ``advance``; both rotate ``cur``.
    """

    rule_names = ("recolor", "advance")

    def __init__(self, protocol, store):
        super().__init__(protocol, store)
        self._c = store.slot("C")
        self._cur = store.slot("cur")
        self._cbits = store.reg_bits("C")

    def classify(self, idx):
        store = self.store
        o = store.ops
        cur = o.take(store.col(self._cur), idx)
        q = o.take2(store.nbr, idx, o.add(cur, -1))
        c = o.take(store.col(self._c), idx)
        clash = o.eq(c, o.take(store.col(self._c), q))
        codes = o.where(clash, 0, 1)
        bits = o.take(self._cbits, q)
        return codes, cur, bits, (cur, c, clash)

    def plan_writes(self, idx, codes, aux, rng):
        cur, c, clash = aux
        store = self.store
        o = store.ops
        new_cur = o.add(o.mod(cur, o.take(store.deg, idx)), 1)
        writes = [(self._cur, o.tolist(idx), o.tolist(new_cur))]
        comm = []
        rec_idx = o.compress_list(idx, clash)
        if rec_idx:
            sample = self.protocol.palette.sample
            new_c = []
            for i, old in zip(rec_idx, o.compress_list(c, clash)):
                color = sample(rng)
                new_c.append(color)
                if color != old:
                    comm.append(i)
            writes.append((self._c, rec_idx, new_c))
        return writes, comm

    # -- fused-driver extensions ----------------------------------------
    def plan_writes_resident(self, codes, aux, rng):
        """Whole-network resident step: ``cur`` rotates as one column
        replacement; only clashing processes pay a sparse write (palette
        draws in selection order, the same sequence ``plan_writes``
        produces for the full network)."""
        cur, _c, clash = aux
        store = self.store
        o = store.ops
        store.write_col(self._cur, o.add(o.mod(cur, store.deg), 1))
        rec_idx = o.compress_list(store.all_idx, clash)
        if rec_idx:
            sample = self.protocol.palette.sample
            store.write(self._c, rec_idx, [sample(rng) for _ in rec_idx])

    def silent_cols(self) -> bool:
        """Silence straight from the columns: COLORING is silent exactly
        when the coloring is proper — a clashing edge keeps ``recolor``
        reachable via the ``cur`` rotation, a proper coloring disables
        it everywhere (the property suite pins this equivalence against
        the exact scalar checker)."""
        store = self.store
        c = store.col(self._c)
        if store.backend == "numpy":
            clash = c[store.nbr] == c[:, None]
            return not bool((clash & store.port_mask()).any())
        for i, nb in enumerate(store.nbr):
            ci = c[i]
            for j in nb:
                if c[j] == ci:
                    return False
        return True
