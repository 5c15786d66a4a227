"""Protocol MIS (paper Figure 8).

A 1-efficient deterministic silent protocol that stabilizes to the
maximal independent set predicate in *locally identified* networks —
each process carries a communication constant color ``C.p`` distinct
from every neighbor's, totally ordered by ``≺``::

    Communication Variable:  S.p ∈ {Dominator, dominated}
    Communication Constant:  C.p (color)
    Internal Variable:       cur.p ∈ [1 .. δ.p]
    Actions (priority order):
      (S.(cur.p)=Dominator ∧ C.(cur.p) ≺ C.p ∧ S.p=Dominator)
          → S.p ← dominated
      ((S.(cur.p)=dominated ∨ C.p ≺ C.(cur.p)) ∧ S.p=dominated)
          → S.p ← Dominator; cur.p ← (cur.p mod δ.p)+1
      (S.p=Dominator)
          → cur.p ← (cur.p mod δ.p)+1

Convergence: at most Δ·#C rounds (Lemma 4), by induction over the color
ranks — the colors' order induces a dag (Theorem 4) along which
decisions become final bottom-up.
"""

from __future__ import annotations

from typing import Dict, Hashable, Set, Tuple

from ..core.actions import GuardedAction
from ..core.exceptions import TopologyError
from ..core.protocol import Protocol
from ..core.state import Configuration
from ..core.variables import FiniteSet, IntRange, VariableSpec, const, comm, internal
from ..graphs.coloring import Coloring, assert_local_identifiers
from ..graphs.topology import Network
from ..predicates.mis import DOMINATED, DOMINATOR, mis_predicate

ProcessId = Hashable

S_DOMAIN = FiniteSet((DOMINATOR, DOMINATED))


class MISProtocol(Protocol):
    """The paper's Protocol MIS over a given local-identifier coloring."""

    name = "MIS"
    randomized = False

    def __init__(self, network: Network, colors: Coloring):
        assert_local_identifiers(network, colors)
        self.colors: Dict[ProcessId, int] = dict(colors)
        self._color_domain = IntRange(
            min(self.colors.values()), max(self.colors.values())
        )
        # Spec tuples are degree-determined (the color constant's
        # per-process *value* lives in constant_values); memoized so
        # specs_of costs O(distinct degrees) dataclass builds.
        self._specs_by_degree: Dict[int, Tuple[VariableSpec, ...]] = {}

    # ------------------------------------------------------------------
    def variables(self, network: Network, p: ProcessId) -> Tuple[VariableSpec, ...]:
        degree = network.degree(p)
        specs = self._specs_by_degree.get(degree)
        if specs is None:
            if degree < 1:
                raise TopologyError(
                    "MIS requires every process to have a neighbor"
                )
            specs = self._specs_by_degree[degree] = (
                comm("S", S_DOMAIN),
                const("C", self._color_domain),
                internal("cur", IntRange(1, degree)),
            )
        return specs

    def constant_values(self, network: Network, p: ProcessId) -> Dict[str, int]:
        return {"C": self.colors[p]}

    def actions(self) -> Tuple[GuardedAction, ...]:
        def yield_guard(ctx) -> bool:
            if ctx.get("S") != DOMINATOR:
                return False
            port = ctx.get("cur")
            return (
                ctx.read(port, "S") == DOMINATOR
                and ctx.read(port, "C") < ctx.get("C")
            )

        def yield_effect(ctx) -> None:
            ctx.set("S", DOMINATED)

        def claim_guard(ctx) -> bool:
            if ctx.get("S") != DOMINATED:
                return False
            port = ctx.get("cur")
            return (
                ctx.read(port, "S") == DOMINATED
                or ctx.get("C") < ctx.read(port, "C")
            )

        def claim_effect(ctx) -> None:
            ctx.set("S", DOMINATOR)
            ctx.advance("cur")

        def patrol_guard(ctx) -> bool:
            return ctx.get("S") == DOMINATOR

        def patrol_effect(ctx) -> None:
            ctx.advance("cur")

        return (
            GuardedAction("yield", yield_guard, yield_effect),
            GuardedAction("claim", claim_guard, claim_effect),
            GuardedAction("patrol", patrol_guard, patrol_effect),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return mis_predicate(network, config, var="S")

    # ------------------------------------------------------------------
    def in_mis(self, config: Configuration, p: ProcessId) -> bool:
        """The paper's output function ``inMIS.p``."""
        return config.get(p, "S") == DOMINATOR

    def independent_set(self, network: Network, config: Configuration) -> Set[ProcessId]:
        return {p for p in network.processes if self.in_mis(config, p)}


# ----------------------------------------------------------------------
# Vectorized kernel (engine="batch")
# ----------------------------------------------------------------------
from ..core.batchengine import BatchKernel, register_batch_kernel  # noqa: E402


@register_batch_kernel(MISProtocol)
class MISBatchKernel(BatchKernel):
    """Whole-column MIS guards.

    Mirrors the scalar cascade's short-circuits exactly: the neighbor's
    ``S`` is always read, its color only when ``S.(cur.p)=Dominator``
    (both the yield comparison and the claim disjunction stop there
    otherwise), which fixes the charged bits per branch.
    """

    rule_names = ("yield", "claim", "patrol")

    def __init__(self, protocol, store):
        super().__init__(protocol, store)
        self._s = store.slot("S")
        self._c = store.slot("C")
        self._cur = store.slot("cur")
        self._dom = store.encode(self._s, DOMINATOR)
        self._dominated = store.encode(self._s, DOMINATED)
        self._sbits = store.reg_bits("S")
        self._cbits = store.reg_bits("C")

    def classify(self, idx):
        store = self.store
        o = store.ops
        s = o.take(store.col(self._s), idx)
        c = o.take(store.col(self._c), idx)
        cur = o.take(store.col(self._cur), idx)
        q = o.take2(store.nbr, idx, o.add(cur, -1))
        sq_dom = o.eq(o.take(store.col(self._s), q), self._dom)
        cq = o.take(store.col(self._c), q)
        yields = o.and_(sq_dom, o.lt(cq, c))
        claims = o.or_(o.not_(sq_dom), o.lt(c, cq))
        codes = o.where(
            o.eq(s, self._dom),
            o.where(yields, 0, 2),
            o.where(claims, 1, -1),
        )
        sb = o.take(self._sbits, q)
        bits = o.where(sq_dom, o.add(sb, o.take(self._cbits, q)), sb)
        return codes, cur, bits, cur

    def plan_writes(self, idx, codes, aux, rng):
        cur = aux
        store = self.store
        o = store.ops
        writes = []
        y_idx = o.compress_list(idx, o.eq(codes, 0))
        if y_idx:
            writes.append((self._s, y_idx, [self._dominated] * len(y_idx)))
        is_claim = o.eq(codes, 1)
        c_idx = o.compress_list(idx, is_claim)
        if c_idx:
            writes.append((self._s, c_idx, [self._dom] * len(c_idx)))
        moves = o.or_(is_claim, o.eq(codes, 2))
        m_idx = o.compress_list(idx, moves)
        if m_idx:
            new_cur = o.add(o.mod(cur, o.take(store.deg, idx)), 1)
            writes.append((self._cur, m_idx, o.compress_list(new_cur, moves)))
        return writes, y_idx + c_idx

    # -- fused-driver extensions ----------------------------------------
    def silent_cols(self) -> bool:
        """Silence straight from the columns, derived from the exact
        walk (:mod:`repro.core.silence`) with ``S`` frozen:

        * a Dominator ``p`` fires ``yield`` at any port whose neighbor
          is a Dominator with a smaller color, and ``patrol`` otherwise
          — which rotates ``cur`` through every port; so it is not
          silent iff *some* neighbor is a Dominator with ``C.q ≺ C.p``;
        * a dominated ``p`` fires ``claim`` or nothing, and only
          ``claim`` moves ``cur``; so it is not silent iff ``claim``'s
          guard holds at its current port, i.e.
          ``¬(S.(cur.p)=Dominator ∧ C.(cur.p) ≺ C.p)``.

        The property suite pins this equivalence against the exact
        scalar checker, and ``batch-debug`` audits every verdict.
        """
        store = self.store
        s = store.col(self._s)
        c = store.col(self._c)
        cur = store.col(self._cur)
        nbr = store.nbr
        dom = self._dom
        if store.backend == "numpy":
            is_dom = s == dom
            yields = ((s[nbr] == dom) & (c[nbr] < c[:, None])
                      & store.port_mask())
            if (yields.any(axis=1) & is_dom).any():
                return False
            q = nbr[store.all_idx, cur - 1]
            claims = (s[q] != dom) | (c < c[q])
            return not bool((claims & ~is_dom).any())
        for i, nb in enumerate(nbr):
            ci = c[i]
            if s[i] == dom:
                for j in nb:
                    if s[j] == dom and c[j] < ci:
                        return False
            else:
                j = nb[cur[i] - 1]
                if s[j] != dom or ci < c[j]:
                    return False
        return True
