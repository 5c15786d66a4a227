"""Protocol MATCHING (paper Figure 10).

A 1-efficient deterministic silent protocol that stabilizes to the
maximal matching predicate in locally identified networks.  Derived
from Manne, Mjelde, Pilard & Tixeuil (Sirocco 2007) with the round-robin
``cur`` pointer supplying the 1-efficiency::

    Communication Variables:  M.p ∈ {true, false},  PR.p ∈ {0 .. δ.p}
    Communication Constant:   C.p (color)
    Internal Variable:        cur.p ∈ [1 .. δ.p]
    Predicate:  PRmarried(p) ≡ (PR.p = cur.p ∧ PR.(cur.p) = p)
    Actions (priority order):
      (PR.p ∉ {0, cur.p})                                  → PR.p ← cur.p
      (M.p ≠ PRmarried(p))                                 → M.p ← PRmarried(p)
      (PR.p = 0 ∧ PR.(cur.p) = p)                          → PR.p ← cur.p
      (PR.p = cur.p ∧ PR.(cur.p) ≠ p
         ∧ (M.(cur.p) ∨ C.(cur.p) ≺ C.p))                  → PR.p ← 0
      (PR.p = 0 ∧ PR.(cur.p) = 0 ∧ C.p ≺ C.(cur.p)
         ∧ ¬M.(cur.p))                                     → PR.p ← cur.p
      (PR.p = 0 ∧ (PR.(cur.p) ≠ 0 ∨ C.(cur.p) ≺ C.p
         ∨ M.(cur.p)))                                     → cur.p ← (cur.p mod δ.p)+1

``PR`` values are local port indices; "PR.(cur.p) = p" tests whether the
pointed neighbor's pointer leads back across the shared edge, which the
simulator resolves through the port maps of both endpoints.

Convergence: at most (Δ+1)·n + 2 rounds (Lemma 9) — the married set only
grows, and each maximal connected set of unmarried processes loses two
members every 2Δ+2 rounds (Lemma 8).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from ..core.actions import GuardedAction
from ..core.exceptions import TopologyError
from ..core.protocol import Protocol
from ..core.state import Configuration
from ..core.variables import BOOL, IntRange, VariableSpec, const, comm, internal
from ..graphs.coloring import Coloring, assert_local_identifiers
from ..graphs.topology import Network
from ..predicates.matching import matched_edges, matching_predicate

ProcessId = Hashable


class MatchingProtocol(Protocol):
    """The paper's Protocol MATCHING over a local-identifier coloring."""

    name = "MATCHING"
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
                    "MATCHING requires every process to have a neighbor"
                )
            specs = self._specs_by_degree[degree] = (
                comm("M", BOOL),
                comm("PR", IntRange(0, degree)),
                const("C", self._color_domain),
                internal("cur", IntRange(1, degree)),
            )
        return specs

    def constant_values(self, network: Network, p: ProcessId) -> Dict[str, int]:
        return {"C": self.colors[p]}

    # ------------------------------------------------------------------
    @staticmethod
    def _points_back(ctx, port: int) -> bool:
        """PR.(port) = p — does the pointed neighbor's PR cross back?"""
        pr_q = ctx.read(port, "PR")
        if pr_q == 0:
            return False
        q = ctx.network.neighbor_at(ctx.pid, port)
        return ctx.network.neighbor_at(q, pr_q) == ctx.pid

    @classmethod
    def _pr_married(cls, ctx) -> bool:
        """PRmarried(p) ≡ PR.p = cur.p ∧ PR.(cur.p) = p."""
        cur = ctx.get("cur")
        if ctx.get("PR") != cur:
            return False
        return cls._points_back(ctx, cur)

    def actions(self) -> Tuple[GuardedAction, ...]:
        points_back = self._points_back
        pr_married = self._pr_married

        # 1. (PR.p ∉ {0, cur.p}) → PR.p ← cur.p
        def realign_guard(ctx) -> bool:
            return ctx.get("PR") not in (0, ctx.get("cur"))

        def realign_effect(ctx) -> None:
            ctx.set("PR", ctx.get("cur"))

        # 2. (M.p ≠ PRmarried(p)) → M.p ← PRmarried(p)
        def publish_guard(ctx) -> bool:
            return ctx.get("M") != pr_married(ctx)

        def publish_effect(ctx) -> None:
            ctx.set("M", pr_married(ctx))

        # 3. (PR.p = 0 ∧ PR.(cur.p) = p) → PR.p ← cur.p
        def accept_guard(ctx) -> bool:
            return ctx.get("PR") == 0 and points_back(ctx, ctx.get("cur"))

        def accept_effect(ctx) -> None:
            ctx.set("PR", ctx.get("cur"))

        # 4. (PR.p = cur.p ∧ PR.(cur.p) ≠ p ∧ (M.(cur.p) ∨ C.(cur.p) ≺ C.p))
        #        → PR.p ← 0
        def abandon_guard(ctx) -> bool:
            cur = ctx.get("cur")
            if ctx.get("PR") != cur or points_back(ctx, cur):
                return False
            return ctx.read(cur, "M") or ctx.read(cur, "C") < ctx.get("C")

        def abandon_effect(ctx) -> None:
            ctx.set("PR", 0)

        # 5. (PR.p = 0 ∧ PR.(cur.p) = 0 ∧ C.p ≺ C.(cur.p) ∧ ¬M.(cur.p))
        #        → PR.p ← cur.p
        def propose_guard(ctx) -> bool:
            cur = ctx.get("cur")
            return (
                ctx.get("PR") == 0
                and ctx.read(cur, "PR") == 0
                and ctx.get("C") < ctx.read(cur, "C")
                and not ctx.read(cur, "M")
            )

        def propose_effect(ctx) -> None:
            ctx.set("PR", ctx.get("cur"))

        # 6. (PR.p = 0 ∧ (PR.(cur.p) ≠ 0 ∨ C.(cur.p) ≺ C.p ∨ M.(cur.p)))
        #        → cur.p ← (cur.p mod δ.p)+1
        def seek_guard(ctx) -> bool:
            cur = ctx.get("cur")
            if ctx.get("PR") != 0:
                return False
            return (
                ctx.read(cur, "PR") != 0
                or ctx.read(cur, "C") < ctx.get("C")
                or ctx.read(cur, "M")
            )

        def seek_effect(ctx) -> None:
            ctx.advance("cur")

        return (
            GuardedAction("realign", realign_guard, realign_effect),
            GuardedAction("publish", publish_guard, publish_effect),
            GuardedAction("accept", accept_guard, accept_effect),
            GuardedAction("abandon", abandon_guard, abandon_effect),
            GuardedAction("propose", propose_guard, propose_effect),
            GuardedAction("seek", seek_guard, seek_effect),
        )

    def is_legitimate(self, network: Network, config: Configuration) -> bool:
        return matching_predicate(network, config)

    # ------------------------------------------------------------------
    def in_matching(
        self, network: Network, config: Configuration, p: ProcessId, q: ProcessId
    ) -> bool:
        """The paper's output ``inMM[q].p ∨ inMM[p].q`` for edge {p, q}."""
        return (p, q) in matched_edges(network, config) or (q, p) in matched_edges(
            network, config
        )

    def matching(self, network: Network, config: Configuration) -> List[Tuple]:
        return matched_edges(network, config)


# ----------------------------------------------------------------------
# Vectorized kernel (engine="batch")
# ----------------------------------------------------------------------
from ..core.batchengine import BatchKernel, register_batch_kernel  # noqa: E402


@register_batch_kernel(MatchingProtocol)
class MatchingBatchKernel(BatchKernel):
    """Whole-column MATCHING guards.

    The six-action cascade partitions on ``PR.p``: pointing elsewhere
    (``realign``, no reads), pointing at ``cur`` (``publish`` /
    ``abandon`` / disabled — registers charged in PR, M, C order), or
    null (``publish`` / ``accept`` / ``propose`` / ``seek`` / disabled
    — PR, C, M order), exactly the scalar guards' short-circuit walk.
    ``PR.(cur.p) = p`` resolves through both endpoints' port maps via
    the store's neighbor-index matrix.
    """

    rule_names = ("realign", "publish", "accept", "abandon", "propose", "seek")

    def __init__(self, protocol, store):
        super().__init__(protocol, store)
        self._m = store.slot("M")
        self._pr = store.slot("PR")
        self._c = store.slot("C")
        self._cur = store.slot("cur")
        self._prbits = store.reg_bits("PR")
        self._mbits = store.reg_bits("M")
        self._cbits = store.reg_bits("C")

    def classify(self, idx):
        store = self.store
        o = store.ops
        m = o.take(store.col(self._m), idx)
        pr = o.take(store.col(self._pr), idx)
        c = o.take(store.col(self._c), idx)
        cur = o.take(store.col(self._cur), idx)
        q = o.take2(store.nbr, idx, o.add(cur, -1))
        prq = o.take(store.col(self._pr), q)
        mq = o.eq(o.take(store.col(self._m), q), 1)
        cq = o.take(store.col(self._c), q)
        # PR.(cur.p) = p: q's pointed port leads back across the edge.
        # A null PR.q gathers the wrapped column harmlessly — masked out.
        back = o.take2(store.nbr, q, o.add(prq, -1))
        pb = o.and_(o.ne(prq, 0), o.eq(back, idx))

        case_a = o.and_(o.ne(pr, 0), o.ne(pr, cur))
        case_b = o.eq(pr, cur)
        # -- PR.p = cur.p: publish / (pointed-back: disabled) / abandon
        b_pub = o.ne(m, o.where(pb, 1, 0))
        abandons = o.or_(mq, o.lt(cq, c))
        codes_b = o.where(b_pub, 1, o.where(pb, -1, o.where(abandons, 3, -1)))
        read_m_b = o.and_(o.not_(b_pub), o.not_(pb))
        read_c_b = o.and_(read_m_b, o.not_(mq))
        # -- PR.p = 0: publish / accept / propose / seek / disabled
        c_pub = o.eq(m, 1)
        prq0 = o.eq(prq, 0)
        c_lt = o.lt(c, cq)
        cq_lt = o.lt(cq, c)
        inner = o.where(
            c_lt,
            o.where(mq, 5, 4),
            o.where(cq_lt, 5, o.where(mq, 5, -1)),
        )
        codes_c = o.where(
            c_pub, 1, o.where(pb, 2, o.where(o.not_(prq0), 5, inner))
        )
        read_pr_c = o.not_(c_pub)
        read_c_c = o.and_(read_pr_c, o.and_(o.not_(pb), prq0))
        read_m_c = o.and_(read_c_c, o.or_(c_lt, o.eq(cq, c)))

        codes = o.where(case_a, 0, o.where(case_b, codes_b, codes_c))
        has_read = o.where(case_a, False, o.where(case_b, True, read_pr_c))
        ports = o.where(has_read, cur, 0)
        prb = o.take(self._prbits, q)
        mb = o.take(self._mbits, q)
        cb = o.take(self._cbits, q)
        bits_b = o.where(
            read_c_b,
            o.add(o.add(prb, mb), cb),
            o.where(read_m_b, o.add(prb, mb), prb),
        )
        bits_c = o.where(
            read_m_c,
            o.add(o.add(prb, cb), mb),
            o.where(read_c_c, o.add(prb, cb), prb),
        )
        bits = o.where(
            case_a, 0.0, o.where(case_b, bits_b, o.where(read_pr_c, bits_c, 0.0))
        )
        return codes, ports, bits, (cur, pb, case_b)

    def plan_writes(self, idx, codes, aux, rng):
        cur, pb, case_b = aux
        store = self.store
        o = store.ops
        writes = []
        # realign/accept/propose point PR at cur; abandon nulls it.
        pr_cur = o.or_(o.eq(codes, 0), o.or_(o.eq(codes, 2), o.eq(codes, 4)))
        pr_any = o.or_(pr_cur, o.eq(codes, 3))
        pr_idx = o.compress_list(idx, pr_any)
        if pr_idx:
            vals = o.where(pr_cur, cur, 0)
            writes.append((self._pr, pr_idx, o.compress_list(vals, pr_any)))
        is_pub = o.eq(codes, 1)
        pub_idx = o.compress_list(idx, is_pub)
        if pub_idx:
            # M <- PRmarried(p) against the same pre-step columns.
            m_vals = o.where(o.and_(pb, case_b), 1, 0)
            writes.append((self._m, pub_idx, o.compress_list(m_vals, is_pub)))
        is_seek = o.eq(codes, 5)
        seek_idx = o.compress_list(idx, is_seek)
        if seek_idx:
            new_cur = o.add(o.mod(cur, o.take(store.deg, idx)), 1)
            writes.append((self._cur, seek_idx, o.compress_list(new_cur, is_seek)))
        # Every fired PR/M write lands a changed communication value.
        return writes, pr_idx + pub_idx

    # -- fused-driver extensions ----------------------------------------
    def silent_cols(self) -> bool:
        """Silence straight from the columns, derived from the exact
        walk (:mod:`repro.core.silence`) with ``M`` and ``PR`` frozen.
        Only ``seek`` writes ``cur`` alone; every other rule writes a
        changed ``PR`` or ``M``.  Per ``PR.p``:

        * ``PR.p ∉ {0, cur.p}`` — ``realign`` fires: not silent;
        * ``PR.p = cur.p`` — ``publish``, ``abandon`` or nothing (no
          rule moves ``cur``): not silent iff ``M.p ≠ PRmarried(p)``,
          or ``p`` is not married and ``M.(cur.p) ∨ C.(cur.p) ≺ C.p``;
        * ``PR.p = 0`` — ``PRmarried`` is false, so ``publish`` fires
          iff ``M.p``; otherwise each port fires ``accept`` (the
          neighbor points back), ``propose``
          (``PR.q=0 ∧ C.p≺C.q ∧ ¬M.q``) or ``seek``, which rotates
          ``cur`` through every port.  The remaining disabled case
          needs ``C.q = C.p`` on an edge, which local identifiers
          (validated constants) rule out.  Not silent iff ``M.p``, or
          some neighbor points back or is proposable.

        The property suite pins this equivalence against the exact
        scalar checker, and ``batch-debug`` audits every verdict.
        """
        store = self.store
        m = store.col(self._m)
        pr = store.col(self._pr)
        c = store.col(self._c)
        cur = store.col(self._cur)
        nbr = store.nbr
        if store.backend == "numpy":
            all_idx = store.all_idx
            null = pr == 0
            if ((~null) & (pr != cur)).any():
                return False
            # PR.p = cur.p: the pointed neighbor, as in classify.
            q = nbr[all_idx, cur - 1]
            prq = pr[q]
            pb = (prq != 0) & (nbr[q, prq - 1] == all_idx)
            mq = m[q] == 1
            unsettled = (m != pb) | (~pb & (mq | (c[q] < c)))
            if (unsettled & ~null).any():
                return False
            # PR.p = 0: M.p, or any port that accepts or proposes.
            if (m[null] == 1).any():
                return False
            pr_n = pr[nbr]
            back = (pr_n != 0) & (
                nbr[nbr, pr_n - 1] == all_idx[:, None]
            )
            proposable = (pr_n == 0) & (c[:, None] < c[nbr]) & (m[nbr] == 0)
            fires = (back | proposable) & store.port_mask()
            return not bool((fires.any(axis=1) & null).any())
        for i, nb in enumerate(nbr):
            pri = pr[i]
            ci = c[i]
            if pri:
                if pri != cur[i]:
                    return False
                j = nb[pri - 1]
                prj = pr[j]
                pb = prj != 0 and nbr[j][prj - 1] == i
                if m[i] != pb or (not pb and (m[j] or c[j] < ci)):
                    return False
            else:
                if m[i]:
                    return False
                for j in nb:
                    prj = pr[j]
                    if prj:
                        if nbr[j][prj - 1] == i:
                            return False
                    elif ci < c[j] and not m[j]:
                        return False
        return True
