"""The vectorized batch engine: whole-column guard evaluation.

:class:`BatchEngine` (``engine="batch"``, alias ``"batch-resident"``)
is an :class:`~repro.core.engine.EnabledSetEngine` that additionally
executes *entire steps* over columnar state — the synchronous and
maximal daemons activate most of the network every step, so evaluating
guards one pooled context at a time leaves an order of magnitude on the
table.  The columns are the live state: writes stay columnar, and rows
are decoded only at observation boundaries through the
:class:`~repro.core.state.Configuration` sync hook (see
:mod:`repro.core.columns`).  The simulator detects a batch-capable
engine (:attr:`BatchEngine.batch_active`) and routes the hot step loop
through :meth:`execute_step`, which

1. gathers the step's reads from a :class:`~repro.core.columns.ColumnStore`
   (γi — all gathers happen before any write),
2. classifies every selected process through the protocol's registered
   :class:`BatchKernel` (action code, port read, bits charged — the
   exact short-circuit semantics of the scalar guards),
3. writes the chosen actions into the columns, and
4. hands the simulator an outcome that :meth:`BatchEngine.fold_aggregate`
   folds into the metrics exactly as the scalar loop's fold would (and
   that :meth:`BatchEngine.make_step_record` turns into the scalar
   loop's :class:`~repro.core.metrics.StepRecord` when ``step()`` must
   return one).

On eligible runs (synchronous or maximal daemon, no scenario, any
metrics tier) the simulator hands whole step sequences to the fused
:meth:`BatchEngine.run_steps` driver — selection, classification,
writes, round tracking, silence checks, metrics folds — without
returning to Python rows in between.

Kernels are registered per *protocol class* with
:func:`register_batch_kernel` next to the scalar implementations
(:mod:`repro.protocols.coloring` / ``mis`` / ``matching``).  A protocol
without a kernel — or state the column store cannot mirror (legacy
backend, mixed layouts, exotic domains) — degrades transparently: the
engine runs an internal :class:`~repro.core.engine.IncrementalEngine`
and the simulator keeps the scalar step loop, so ``engine="batch"`` is
always safe to request.

:class:`BatchCrossCheckEngine` (``engine="batch-debug"``) is the audit
mode: every batch step — per-step or fused — re-evaluates each selected
process through the scalar guard probes and raises
:class:`~repro.core.exceptions.ModelError` on any divergence in action
choice, ports read, or bits charged — the batch analogue of
:class:`~repro.core.engine.CrossCheckEngine`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple, Type

from ..obs.registry import TELEMETRY
from .actions import first_enabled
from .columns import ColumnStore
from .engine import ENGINES, EnabledSetEngine, IncrementalEngine
from .exceptions import ModelError
from .metrics import StepRecord

#: fused-span length buckets (steps per ``run_steps`` invocation).
_SPAN_BUCKETS = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0)

ProcessId = Hashable

#: Vectorized kernels per protocol class (exact class match: a subclass
#: overriding guards must register its own kernel or it falls back to
#: the scalar path).
BATCH_KERNELS: Dict[Type, Callable] = {}


def register_batch_kernel(protocol_cls: Type):
    """Class decorator registering a :class:`BatchKernel` for one
    protocol class, alongside its scalar guard implementation."""

    def decorate(kernel_cls):
        BATCH_KERNELS[protocol_cls] = kernel_cls
        return kernel_cls

    return decorate


class BatchKernel:
    """Vectorized guard/action evaluation for one protocol.

    Contract — for any index vector over the store's canonical order,
    :meth:`classify` must return, per process, exactly what the scalar
    priority cascade would have produced against the same γ:

    * ``codes`` — the index of the fired action in :attr:`rule_names`
      (``-1`` when every guard is false: selected-but-disabled);
    * ``ports`` — the single neighbor port read while cascading
      (``0`` when no neighbor was consulted), matching
      ``StepContext.ports_read`` for these 1-efficient protocols;
    * ``bits`` — the bits charged, accumulated register by register in
      the scalar cascade's read order (float addition order matters for
      byte-identical metrics);
    * ``aux`` — intermediate columns :meth:`plan_writes` reuses.

    :meth:`plan_writes` turns the classification into per-slot write
    batches plus the canonical indices whose *communication* variables
    took a new value.  Any randomness must draw from ``rng`` once per
    affected process in selection order — identical to the scalar
    effects' draw sequence.
    """

    #: action names in protocol priority order (code -> name)
    rule_names: Tuple[str, ...] = ()

    def __init__(self, protocol, store: ColumnStore):
        self.protocol = protocol
        self.store = store

    def classify(self, idx):
        """Vectorized ``first_enabled`` over the processes in ``idx``.

        Returns ``(codes, ports, bits, aux)``: per-process rule codes
        (indices into :attr:`rule_names`, ``-1`` = disabled), the port
        each process read (``0`` = none; the paper's protocols read at
        most one neighbor per guard evaluation), the exact bits charged
        for those reads (scalar read-charging order preserved), and an
        opaque ``aux`` value handed back to :meth:`plan_writes`.
        """
        raise NotImplementedError

    def plan_writes(self, idx, codes, aux, rng):
        """Plan γi+1 for the classified processes in ``idx``.

        Returns ``(writes, comm_idx)``: a list of
        ``(slot, positions, encoded_values)`` column writes and the
        positions whose *communication* registers take a genuinely new
        value (the scalar ``flush_writes`` contract).  Randomized rules
        must draw from ``rng`` in selection order so the stream matches
        the scalar loop draw for draw.
        """
        raise NotImplementedError

    # -- optional fused-driver extensions -------------------------------
    #: Kernels may additionally provide
    #:
    #: ``plan_writes_resident(codes, aux, rng)`` — apply a whole-network
    #: step's writes directly to the store as column replacements
    #: (``store.write_col``) plus sparse ``store.write`` batches, with
    #: the exact same RNG draw sequence as :meth:`plan_writes`; used by
    #: the fused driver when the selection is the full network.
    #:
    #: ``silent_cols()`` — the silence verdict straight from the
    #: columns (must agree with the exact scalar
    #: :func:`~repro.core.silence.is_silent` on every configuration).
    #: All three paper kernels (COLORING, MIS, MATCHING) provide it;
    #: for a kernel without one the fused driver falls back to
    #: materialize + scalar check.


class BatchOutcome:
    """One batch step's results, pre-aggregation (engine-internal)."""

    __slots__ = ("selected", "sel_idx", "idx", "codes", "ports", "bits")

    def __init__(self, selected, sel_idx, idx, codes, ports, bits):
        self.selected = selected
        self.sel_idx = sel_idx  # canonical indices, python list
        self.idx = idx  # the same indices as a backend column
        self.codes = codes
        self.ports = ports
        self.bits = bits


class BatchEngine(EnabledSetEngine):
    """Columnar enabled-set engine with whole-step batch execution."""

    name = "batch"

    def bind(self, protocol, network, config, specs_of) -> None:
        super().bind(protocol, network, config, specs_of)
        self._agg_dirty = False
        self._agg_collector = None
        self._hooked_config = None
        self._activate()

    # ------------------------------------------------------------------
    # Activation / fallback
    # ------------------------------------------------------------------
    def _activate(self) -> None:
        """(Re)derive the columnar machinery for the current run objects.

        Falls back to a fresh internal incremental engine when the
        protocol has no registered kernel or the state cannot be
        mirrored into columns.  Otherwise the bound configuration gets
        the :meth:`materialize_rows` sync hook, so *any* row observation
        — traces, predicates, silence walks, fault injectors, direct
        ``config.get``/``state_of`` reads — decodes pending column
        writes first and can never see stale rows.
        """
        self.flush_pending_metrics()
        if self._hooked_config is not None:
            self._hooked_config.install_sync(None)
            self._hooked_config = None
        self._store: Optional[ColumnStore] = None
        self._kernel: Optional[BatchKernel] = None
        self._fallback: Optional[IncrementalEngine] = None
        self._enabled_cache: Optional[frozenset] = None
        self._enabled_list_cache: Optional[Tuple[ProcessId, ...]] = None
        self._pull_pending: set = set()
        self._stale_all = False
        self._pending_act = None
        self._seen = None
        self._suffix_seen = None
        self._suffix_epoch = None
        self._unflushed_reads = []
        kernel_cls = BATCH_KERNELS.get(type(self.protocol))
        store = (
            ColumnStore.try_build(self.network, self.config, self.specs_of)
            if kernel_cls is not None
            else None
        )
        if store is not None:
            self._store = store
            self._kernel = kernel_cls(self.protocol, store)
            self.config.install_sync(self.materialize_rows)
            self._hooked_config = self.config
        else:
            fallback = IncrementalEngine()
            fallback.bind(
                self.protocol, self.network, self.config, self.specs_of
            )
            self._fallback = fallback

    @property
    def batch_active(self) -> bool:
        """Whether batch execution is live (False = scalar fallback)."""
        return self._fallback is None

    @property
    def backend_name(self) -> Optional[str]:
        """Column backend in use (``"numpy"``/``"python"``), or None
        when running the scalar fallback."""
        return None if self._store is None else self._store.backend

    # ------------------------------------------------------------------
    # Column freshness
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Re-read rows written behind the columns (faults, scalar
        steps).  Those writes pass the sync hook, so any column writes
        still undecoded are older and decode first."""
        if self._stale_all:
            self._store.materialize()
            self._store.pull_all()
            self._stale_all = False
            self._pull_pending.clear()
        elif self._pull_pending:
            self._store.materialize()
            self._store.pull(sorted(self._pull_pending))
            self._pull_pending.clear()

    def _drop_enabled_cache(self) -> None:
        self._enabled_cache = None
        self._enabled_list_cache = None

    # ------------------------------------------------------------------
    # EnabledSetEngine contract
    # ------------------------------------------------------------------
    def _compute_enabled(self):
        if self._enabled_list_cache is None:
            self._refresh()
            store = self._store
            codes, _ports, _bits, _aux = self._kernel.classify(store.all_idx)
            ops = store.ops
            pids = store.pids
            ids = [
                pids[i] for i in ops.nonzero_list(ops.ne(codes, -1))
            ]
            self._enabled_list_cache = tuple(ids)
            self._enabled_cache = frozenset(ids)
        return self._enabled_cache, self._enabled_list_cache

    def enabled_set(self):
        if self._fallback is not None:
            return self._fallback.enabled_set()
        return self._compute_enabled()[0]

    def enabled_list(self):
        if self._fallback is not None:
            return self._fallback.enabled_list()
        return self._compute_enabled()[1]

    def enabled_view(self):
        if self._fallback is not None:
            return self._fallback.enabled_view()
        return self._compute_enabled()[0]

    def note_step(self, activated, comm_changed) -> None:
        # Scalar steps interleaved with batch ones (e.g. a scripted
        # scheduler repeating a pid) mutate rows behind the columns.
        if self._fallback is not None:
            self._fallback.note_step(activated, comm_changed)
            return
        if not self._stale_all:
            pindex = self._store.pindex
            self._pull_pending.update(
                pindex[p] for p in activated if p in pindex
            )
        self._drop_enabled_cache()

    def invalidate(self, processes: Optional[Iterable[ProcessId]] = None) -> None:
        if self._fallback is not None:
            self._fallback.invalidate(processes)
            return
        if processes is None:
            self._stale_all = True
            self._pull_pending.clear()
        elif not self._stale_all:
            pindex = self._store.pindex
            self._pull_pending.update(
                pindex[p] for p in processes if p in pindex
            )
        self._drop_enabled_cache()

    def rebind_config(self, config) -> None:
        super().rebind_config(config)
        self._activate()

    def rebind_network(self, protocol, network, config, specs_of) -> None:
        super().rebind_network(protocol, network, config, specs_of)
        self._activate()

    # ------------------------------------------------------------------
    # Batch step execution (simulator hot path)
    # ------------------------------------------------------------------
    def execute_step(self, selected, rng) -> BatchOutcome:
        """Run one whole step over columns; selection must be duplicate
        free (the simulator guards via ``Scheduler.selects_distinct``)."""
        self._refresh()
        store = self._store
        sel_idx = list(map(store.pindex.__getitem__, selected))
        idx = store.ops.int_col(sel_idx)
        obs_on = TELEMETRY.enabled
        t0 = perf_counter() if obs_on else 0.0
        codes, ports, bits, aux = self._kernel.classify(idx)
        t1 = perf_counter() if obs_on else 0.0
        self._audit_step(idx, codes, ports, bits)
        writes, _comm_idx = self._kernel.plan_writes(idx, codes, aux, rng)
        for slot, w_idx, w_vals in writes:
            if w_idx:
                store.write(slot, w_idx, w_vals)
        self._drop_enabled_cache()
        if obs_on:
            TELEMETRY.histogram("engine.classify_s").observe(t1 - t0)
            TELEMETRY.histogram("engine.plan_s").observe(perf_counter() - t1)
        return BatchOutcome(selected, sel_idx, idx, codes, ports, bits)

    def _audit_step(self, idx, codes, ports, bits) -> None:
        """Hook for :class:`BatchCrossCheckEngine` (no-op here); called
        with every classification a step executes, per-step or fused."""

    def _audit_silence(self, sim, verdict: bool) -> None:
        """Hook for :class:`BatchCrossCheckEngine` (no-op here); called
        with every columnar silence verdict of the fused driver."""

    # ------------------------------------------------------------------
    # Fused execution
    # ------------------------------------------------------------------
    def materialize_rows(self) -> None:
        """Decode pending column writes into the live rows.

        The observation boundary: installed as the configuration's sync
        hook and called explicitly before any scalar code path that
        bypasses it (pooled step contexts cache raw row references).
        No-op when nothing is pending and on the scalar fallback.
        """
        store = self._store
        if store is not None:
            store.materialize()

    def run_steps(self, sim, max_steps=None, stop_on_silence=False,
                  round_budget=None):
        """Fused driver: run whole step sequences in columns.

        Executes synchronous-daemon steps (the full network, or the
        enabled pool under ``enabled_only``) entirely in columnar space
        — classification, writes, round accounting, metrics folds and
        silence checks — returning to Python rows only at the
        horizon (``max_steps``), at silence (``stop_on_silence``), or
        when the round budget runs out.  Byte-identical to driving
        :meth:`Simulator.step` in a loop: same RNG draw sequence, same
        float fold order, same round closures, same silence boundaries.

        Returns ``(steps_executed, silent)``; ``silent`` is ``None``
        unless ``stop_on_silence`` was requested, in which case it
        reports whether silence was detected within the budget.
        """
        store = self._store
        kernel = self._kernel
        ops = store.ops
        self._refresh()
        all_idx = store.all_idx
        n = store.n
        numpy = store.backend == "numpy"
        rng = sim.rngs.protocol if sim.protocol.randomized else None
        collector = sim._metrics if sim.metrics_tier != "off" else None
        tracker = sim.round_tracker
        silent_cols = getattr(kernel, "silent_cols", None)
        resident_plan = getattr(kernel, "plan_writes_resident", None)
        plan = kernel.plan_writes
        audit = self._audit_step

        silence_checks = 0  # columnar verdicts, reported on the span

        def silent_now() -> bool:
            nonlocal silence_checks
            if silent_cols is None:
                # No vectorized silence for this kernel: an observation
                # boundary — the config sync hook materializes the rows.
                return sim.is_silent()
            silence_checks += 1
            verdict = silent_cols()
            self._audit_silence(sim, verdict)
            return verdict

        steps = 0
        silent = None
        all_sel = None if numpy else list(range(n))
        # Telemetry is sampled at the span boundary, never inside the
        # fused loop: one enabled-check + one clock read per
        # ``run_steps`` call keeps the disabled path inside the ≤2%
        # fused-throughput floor.
        obs_on = TELEMETRY.enabled
        span_t0 = perf_counter() if obs_on else 0.0
        activations = 0

        if not sim._enabled_pool:
            # Synchronous daemon: every step activates every process,
            # so every step closes exactly one round.
            closed_rounds = 0
            while max_steps is None or steps < max_steps:
                if round_budget is not None and closed_rounds >= round_budget:
                    break
                codes, ports, bits, aux = kernel.classify(all_idx)
                audit(all_idx, codes, ports, bits)
                if resident_plan is not None:
                    resident_plan(codes, aux, rng)
                else:
                    writes, _comm = plan(all_idx, codes, aux, rng)
                    for slot, w_idx, w_vals in writes:
                        if w_idx:
                            store.write(slot, w_idx, w_vals)
                steps += 1
                closed_rounds += 1
                if collector is not None:
                    self.fold_aggregate(
                        BatchOutcome(None, all_sel, all_idx,
                                     codes, ports, bits),
                        collector, True,
                    )
                if stop_on_silence and silent_now():
                    silent = True
                    break
            if stop_on_silence and silent is None:
                silent = False
            tracker.advance_rounds(closed_rounds)
            activations = steps * n  # full-network activation per step
        else:
            # Maximal daemon (``enabled_only``): the pool is the
            # enabled set (all processes when it is empty — no-op
            # steps still close rounds).  One classify over the whole
            # network per step doubles as the previous step's
            # ``still_enabled`` view and the next step's selection.
            pids = store.pids
            pindex = store.pindex
            pending = {pindex[p] for p in tracker.pending}
            completed = tracker.completed_rounds
            start_completed = completed
            en_list = ops.nonzero_list(
                ops.ne(kernel.classify(all_idx)[0], -1)
            )
            while max_steps is None or steps < max_steps:
                if (round_budget is not None
                        and completed - start_completed >= round_budget):
                    break
                if en_list:
                    sel = en_list
                    idx = ops.int_col(sel)
                else:
                    sel = all_sel if all_sel is not None else list(range(n))
                    all_sel = sel
                    idx = all_idx
                codes, ports, bits, aux = kernel.classify(idx)
                audit(idx, codes, ports, bits)
                writes, _comm = plan(idx, codes, aux, rng)
                for slot, w_idx, w_vals in writes:
                    if w_idx:
                        store.write(slot, w_idx, w_vals)
                en_list = ops.nonzero_list(
                    ops.ne(kernel.classify(all_idx)[0], -1)
                )
                # RoundTracker.record_step over indices: activations
                # serve first, then the Dolev-Israeli-Moran refinement
                # drops processes observed disabled after the step.
                pending.difference_update(sel)
                if pending:
                    pending.intersection_update(en_list)
                closed = not pending
                if closed:
                    completed += 1
                    pending = set(range(n))
                steps += 1
                activations += len(sel)
                if collector is not None:
                    self.fold_aggregate(
                        BatchOutcome(None, sel, idx, codes, ports, bits),
                        collector, closed,
                    )
                if stop_on_silence and closed and silent_now():
                    silent = True
                    break
            if stop_on_silence and silent is None:
                silent = False
            tracker.set_state({pids[i] for i in pending}, completed)
        self._drop_enabled_cache()
        sim.step_index += steps
        if obs_on:
            TELEMETRY.counter("sim.steps").inc(steps)
            TELEMETRY.counter("sim.activations").inc(activations)
            TELEMETRY.histogram(
                "engine.fused_span_steps", buckets=_SPAN_BUCKETS
            ).observe(steps)
            TELEMETRY.record_span(
                "engine.run_steps", perf_counter() - span_t0,
                n=n, steps=steps, activations=activations,
                silent=silent, silence_checks=silence_checks,
            )
        return steps, silent

    # ------------------------------------------------------------------
    # Metrics reproduction
    # ------------------------------------------------------------------
    def make_step_record(self, index, outcome: BatchOutcome, closed: bool) -> StepRecord:
        """The exact :class:`StepRecord` the scalar loop would build."""
        ops = self._store.ops
        names = self._kernel.rule_names
        codes = ops.tolist(outcome.codes)
        ports = ops.tolist(outcome.ports)
        bits = ops.tolist(outcome.bits)
        executed = {}
        ports_read = {}
        bits_read = {}
        empty = frozenset()
        for p, code, port, b in zip(outcome.selected, codes, ports, bits):
            executed[p] = names[code] if code >= 0 else None
            ports_read[p] = frozenset((port,)) if port else empty
            bits_read[p] = b
        return StepRecord(
            index=index,
            activated=frozenset(outcome.selected),
            executed=executed,
            ports_read=ports_read,
            bits_read=bits_read,
            closed_round=closed,
        )

    def fold_aggregate(self, outcome: BatchOutcome, collector, closed: bool) -> None:
        """Fold one batch step into the collector (every measuring
        tier), reproducing :meth:`MetricsCollector.record_lean` exactly.

        Per-process activation counts are accumulated in an engine-side
        vector and flushed into the collector's dict lazily (the
        simulator's ``metrics`` property triggers the flush before any
        external read) — the dict update is the one per-step cost that
        would otherwise erase the batch win.  Read-set folds go through
        a seen-matrix so only *newly observed* (process, port) pairs
        touch the per-process sets; ``total_bits`` is summed in
        selection order because float addition order is observable.
        """
        collector.steps += 1
        if closed:
            collector.rounds += 1
        store = self._store
        ops = store.ops
        if self._pending_act is None:
            self._pending_act = ops.zeros_int(store.n)
        pend = self._pending_act
        if store.backend == "numpy":
            pend[outcome.idx] += 1
        else:
            for i in outcome.sel_idx:
                pend[i] += 1
        self._agg_dirty = True
        self._agg_collector = collector

        ports = outcome.ports
        has_read = ops.ne(ports, 0)
        count = ops.count(has_read)
        if count:
            collector.total_reads += count
            if collector.max_reads_in_step < 1:
                # These kernels read at most one port per step; the
                # scalar fold's per-process max over larger read sets
                # cannot occur here.
                collector.max_reads_in_step = 1
            self._fold_read_sets(
                collector.read_sets,
                self._ensure_seen("_seen"),
                outcome,
                has_read,
                defer_to=(self._unflushed_reads
                          if store.backend == "numpy" else None),
            )
            if collector.suffix_read_sets is not None:
                if self._suffix_epoch != collector.suffix_start_step:
                    self._suffix_epoch = collector.suffix_start_step
                    self._suffix_seen = None
                self._fold_read_sets(
                    collector.suffix_read_sets,
                    self._ensure_seen("_suffix_seen"),
                    outcome,
                    has_read,
                )
        bits = outcome.bits
        if store.backend == "numpy":
            if len(bits):
                np = ops.np
                max_bits = float(bits.max())
                if max_bits > collector.max_bits_in_step:
                    collector.max_bits_in_step = max_bits
                # ``np.add.accumulate`` is a strict left-to-right
                # chain (unlike ``np.add.reduce``, which pairs up), so
                # seeding the running total as element 0 reproduces the
                # scalar loop's sequential float fold bit for bit.
                chain = np.empty(len(bits) + 1, dtype=np.float64)
                chain[0] = collector.total_bits
                chain[1:] = bits
                collector.total_bits = float(np.add.accumulate(chain)[-1])
        else:
            bits_list = ops.tolist(bits)
            if bits_list:
                max_bits = max(bits_list)
                if max_bits > collector.max_bits_in_step:
                    collector.max_bits_in_step = max_bits
                total = collector.total_bits
                for b in bits_list:
                    total += b
                collector.total_bits = total

    def _ensure_seen(self, attr):
        seen = getattr(self, attr)
        if seen is None:
            store = self._store
            if store.backend == "numpy":
                seen = store.ops.np.zeros(
                    (store.n, store.max_degree), dtype=bool
                )
            else:
                seen = [set() for _ in range(store.n)]
            setattr(self, attr, seen)
        return seen

    def _fold_read_sets(self, read_sets, seen, outcome, has_read,
                        defer_to=None) -> None:
        """Fold newly observed (process, port) reads into ``read_sets``.

        With ``defer_to`` (the main numpy fold), the per-process set
        materialization is postponed: the new index pairs are stashed
        and drained by :meth:`flush_pending_metrics` before any
        external metrics read.  Each pair is recorded exactly once (the
        seen matrix dedups at fold time), so the drain's set inserts
        are order-insensitive and byte-equivalent to the eager fold.
        """
        store = self._store
        ops = store.ops
        pids = store.pids
        if store.backend == "numpy":
            rows = outcome.idx[has_read]
            cols = outcome.ports[has_read] - 1
            hit = seen[rows, cols]
            if hit.all():
                return
            new = ~hit
            new_rows = rows[new]
            new_cols = cols[new]
            seen[new_rows, new_cols] = True
            if defer_to is not None:
                defer_to.append((new_rows, new_cols))
                return
            for i, c in zip(new_rows.tolist(), new_cols.tolist()):
                read_sets[pids[i]].add(c + 1)
        else:
            for i, port, reads in zip(outcome.sel_idx, outcome.ports, has_read):
                if reads:
                    s = seen[i]
                    if port not in s:
                        s.add(port)
                        read_sets[pids[i]].add(port)

    def flush_pending_metrics(self) -> None:
        """Drain accumulated activation counts into the collector
        (called by ``Simulator.metrics`` before any external read, and
        before the engine rebuilds its per-process vectors)."""
        if not getattr(self, "_agg_dirty", False):
            return
        self._agg_dirty = False
        pend = self._pending_act
        activations = self._agg_collector.activations
        pids = self._store.pids
        if self._store.backend == "numpy":
            np = self._store.ops.np
            nz = np.nonzero(pend)[0]
            for i, c in zip(nz.tolist(), pend[nz].tolist()):
                activations[pids[i]] += c
            pend[nz] = 0
        else:
            for i, c in enumerate(pend):
                if c:
                    activations[pids[i]] += c
                    pend[i] = 0
        pending_reads = self._unflushed_reads
        if pending_reads:
            self._unflushed_reads = []
            read_sets = self._agg_collector.read_sets
            for rows, cols in pending_reads:
                for i, c in zip(rows.tolist(), cols.tolist()):
                    read_sets[pids[i]].add(c + 1)

    # ------------------------------------------------------------------
    # Introspection (property tests, debugging)
    # ------------------------------------------------------------------
    def classify_all(self) -> Dict[ProcessId, Optional[str]]:
        """Per-process fired-rule map over the whole network (None =
        disabled), straight from the kernel — the scalar oracle is one
        ``first_enabled`` probe per process."""
        if self._fallback is not None:
            raise ModelError("classify_all() requires an active batch kernel")
        self._refresh()
        store = self._store
        codes, _ports, _bits, _aux = self._kernel.classify(store.all_idx)
        names = self._kernel.rule_names
        return {
            p: (names[code] if code >= 0 else None)
            for p, code in zip(store.pids, store.ops.tolist(codes))
        }


class BatchCrossCheckEngine(BatchEngine):
    """Batch engine that audits every step against the scalar guards.

    The batch analogue of :class:`~repro.core.engine.CrossCheckEngine`:
    each selected process is re-evaluated through a pooled scalar probe
    context and any disagreement on the fired action, the ports read,
    or the bits charged raises
    :class:`~repro.core.exceptions.ModelError`.  Enabled-set queries are
    audited against a full scalar scan as well.  Fused spans audit every
    step, and every columnar silence verdict against the exact check.
    Strictly a debugging mode — every batch step pays the full scalar
    cost on top.
    """

    name = "batch-debug"

    def _audit_step(self, idx, codes, ports, bits) -> None:
        # The probe contexts read raw rows: decode the columns first.
        self.materialize_rows()
        store = self._store
        ops = store.ops
        pids = store.pids
        names = self._kernel.rule_names
        actions = self._actions
        pool = self._probe_pool
        code_l = ops.tolist(codes)
        port_l = ops.tolist(ports)
        bits_l = ops.tolist(bits)
        for i, code, port, b in zip(ops.tolist(idx), code_l, port_l, bits_l):
            p = pids[i]
            ctx = pool.acquire(p, rng=None)
            action = first_enabled(actions, ctx)
            expect_name = action.name if action is not None else None
            got_name = names[code] if code >= 0 else None
            expect_ports = set(ctx.ports_read)
            got_ports = {port} if port else set()
            if (
                got_name != expect_name
                or got_ports != expect_ports
                or b != ctx.bits_read
            ):
                raise ModelError(
                    f"batch kernel diverged from scalar guards at {p!r}: "
                    f"action {got_name!r} vs {expect_name!r}, ports "
                    f"{sorted(got_ports)} vs {sorted(expect_ports)}, bits "
                    f"{b!r} vs {ctx.bits_read!r}"
                )

    def _audit_silence(self, sim, verdict: bool) -> None:
        exact = sim.is_silent()
        if verdict != exact:
            raise ModelError(
                f"batch kernel silence verdict {verdict!r} diverged from "
                f"the exact check {exact!r}"
            )

    def _compute_enabled(self):
        enabled_set, enabled_list = super()._compute_enabled()
        self.materialize_rows()
        fresh = self._scan()
        if fresh != enabled_set:
            missing = sorted(map(repr, fresh - enabled_set))
            extra = sorted(map(repr, enabled_set - fresh))
            raise ModelError(
                "batch enabled-set diverged from full scan "
                f"(missing: {missing}, stale: {extra})"
            )
        return enabled_set, enabled_list


ENGINES["batch"] = BatchEngine
ENGINES["batch-debug"] = BatchCrossCheckEngine
#: the historical name of the column-resident engine, which every batch
#: engine now is; kept so stored specs and sinks still run
ENGINES["batch-resident"] = BatchEngine
