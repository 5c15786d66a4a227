"""The step simulator.

Implements the computation model of paper §2 faithfully:

* a *step* ``(γi, si, γi+1)`` activates a scheduler-chosen non-empty
  subset ``si`` of processes;
* every activated process evaluates its guards in priority order
  **against γi** and executes its highest-priority enabled action (a
  disabled process does nothing — the footnote case);
* all writes land simultaneously in ``γi+1``;
* rounds are counted with :class:`~repro.core.rounds.RoundTracker`;
* every neighbor read (guards included) is tracked for the
  communication-efficiency metrics;
* the set of enabled processes is maintained across steps by an
  :class:`~repro.core.engine.EnabledSetEngine` (incremental dirty-set
  updates by default, with a full-scan reference and a self-auditing
  debug mode), which powers :meth:`Simulator.enabled_processes` and the
  enabled-drawing daemons.

Hot-path design (flat-state step loop): the default ``state="flat"``
backend addresses process state as ``row[slot]`` through the indexed
:class:`~repro.core.state.Configuration`, reuses one pooled
:class:`~repro.core.context.StepContext` per process per run instead of
allocating one per activation, and folds the paper's measures straight
off the contexts (or the batch engine's columns) with one fold per step.
A :class:`~repro.core.metrics.StepRecord` is built only when the public
:meth:`Simulator.step` is asked for one (``metrics="full"``); the run
drivers never build one.  ``state="legacy"`` reproduces the historical
dict-of-dicts loop step for step; the flat-vs-legacy equivalence tests
require byte-identical traces between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Union

from .actions import first_enabled
from .context import StepContext, StepContextPool
from .engine import EnabledSetEngine, make_engine
from .exceptions import ConvergenceError
from ..obs.registry import TELEMETRY
from .metrics import METRICS_TIERS, LeanStepRecord, MetricsCollector, StepRecord
from .protocol import Protocol
from .rngstreams import RngStreams
from .rounds import RoundTracker
from .scheduler import Scheduler, SynchronousScheduler
from .silence import silence_witness
from .state import Configuration, LegacyConfiguration

ProcessId = Hashable

#: Configuration backends accepted by ``Simulator(state=...)``.
STATE_BACKENDS = ("flat", "legacy")


@dataclass
class StabilizationReport:
    """Outcome of a :meth:`Simulator.run_until_silent` run."""

    silent: bool
    legitimate: bool
    steps: int
    rounds: int
    #: step index at which the silence check first succeeded (None if never)
    silent_at_step: Optional[int]
    #: rounds completed when silence was detected (None if never)
    silent_at_round: Optional[int]

    @property
    def stabilized(self) -> bool:
        return self.silent and self.legitimate


class Simulator:
    """Executes one protocol on one network under one scheduler.

    Parameters
    ----------
    protocol, network:
        What to run and where.
    scheduler:
        Defaults to the synchronous scheduler (one step per round).
    seed:
        Seeds the run's named RNG streams
        (:class:`~repro.core.rngstreams.RngStreams`): the root stream
        drives the scheduler and any randomized actions exactly as the
        historical single run RNG did, while scenarios draw from an
        independent derived stream — runs replay exactly, and adding a
        scenario never changes the scheduler's draw sequence.
    config:
        Starting configuration; defaults to a fresh *arbitrary*
        (uniformly corrupted) configuration, the standard
        self-stabilization starting point.  A private copy is taken in
        the requested ``state`` backend either way.
    engine:
        Enabled-set maintenance strategy: a name from
        :data:`~repro.core.engine.ENGINES` (``"incremental"`` by
        default, ``"scan"``, ``"debug"``, ``"batch"``, …) or a ready
        :class:`~repro.core.engine.EnabledSetEngine` instance.  Every
        engine yields step-for-step identical executions; they differ
        only in how much work keeping the enabled set current costs.
    metrics:
        Metrics tier (:data:`~repro.core.metrics.METRICS_TIERS`):
        ``"full"`` (default) and ``"aggregate"`` fold the paper's
        measures into the collector the same way, once per step;
        ``"full"`` additionally makes :meth:`step` return a
        :class:`~repro.core.metrics.StepRecord` (a
        :class:`~repro.core.metrics.LeanStepRecord` otherwise).  The
        run drivers build no record on either tier.  ``"off"`` skips
        the collector entirely.  Traces require ``"full"``.
    state:
        Configuration backend (:data:`STATE_BACKENDS`): ``"flat"``
        (default) runs the indexed row/slot hot path with pooled step
        contexts; ``"legacy"`` runs the historical dict-of-dicts path
        with per-activation context allocation — the reference both for
        the equivalence tests and the performance benchmarks' baseline.
    scenario:
        Optional scenario script (any object exposing ``bind(sim)``
        returning a runtime with ``before_step``/``after_step`` hooks —
        :class:`repro.scenarios.Scenario` in practice).  Events draw
        from the dedicated ``scenario`` RNG stream, so attaching one
        never perturbs the scheduler's or the protocol's draws; a run
        without a scenario pays one attribute check per step.
    protocol_factory:
        ``network -> Protocol`` rebuild hook required by topology-churn
        scenario events (:meth:`rebind_network`): after a node/edge
        mutation the protocol must be re-instantiated for the new
        network (degrees, palettes and local-identifier colorings are
        network-derived).  ``ExperimentSpec.build_simulator`` supplies
        the registry builder automatically.
    """

    def __init__(
        self,
        protocol: Protocol,
        network,
        scheduler: Optional[Scheduler] = None,
        seed: Optional[int] = None,
        config: Optional[Configuration] = None,
        engine: Union[str, EnabledSetEngine] = "incremental",
        metrics: str = "full",
        state: str = "flat",
        scenario=None,
        protocol_factory: Optional[Callable] = None,
    ):
        if metrics not in METRICS_TIERS:
            raise ValueError(
                f"unknown metrics tier {metrics!r}; known: {METRICS_TIERS}"
            )
        if state not in STATE_BACKENDS:
            raise ValueError(
                f"unknown state backend {state!r}; known: {STATE_BACKENDS}"
            )
        self.protocol = protocol
        self.network = network
        self.scheduler = scheduler or SynchronousScheduler()
        # A reused stateful scheduler (round-robin pointer, bounded-fair
        # starvation counters, scripted prefix) must not carry pacing
        # state from a previous simulator into this run.
        self.scheduler.reset()
        #: named RNG streams; the historical single run RNG survives as
        #: the root (scheduler + protocol draws, byte-compatible with
        #: pre-scenario runs), while scenarios draw from their own
        #: derived stream.
        self.rngs = RngStreams(seed)
        self.rng = self.rngs.root
        self.specs_of = protocol.specs_of(network)
        self._actions = protocol.actions()
        self.metrics_tier = metrics
        self.state_backend = state
        backend = Configuration if state == "flat" else LegacyConfiguration
        if config is None:
            config = protocol.arbitrary_configuration(network, self.rng)
            if not isinstance(config, backend):
                config = backend(config.as_dict())
        else:
            # Private copy, normalized into the requested backend.
            config = backend(config.as_dict())
        protocol.validate_configuration(network, config,
                                        specs_of=self.specs_of)
        self._config = config
        # The canonical process list, cached once: Network.processes
        # builds a fresh list per call, far too expensive per step.
        self._processes = tuple(network.processes)
        self.round_tracker = RoundTracker(self._processes)
        self._metrics = MetricsCollector(self._processes)
        self.step_index = 0
        self.engine = make_engine(engine)
        self.engine.bind(protocol, network, self.config, self.specs_of)
        # Batch-capable engines accumulate aggregate counts in vectors;
        # the ``metrics`` property drains them before any external read.
        self._metrics_flush = getattr(
            self.engine, "flush_pending_metrics", None
        )
        self._enabled_pool = self.scheduler.draws_from == "enabled"
        self._sched_distinct = getattr(
            self.scheduler, "selects_distinct", False
        )
        self._derive_batch()
        # Pooled contexts power the flat hot path; the legacy backend
        # keeps the historical one-context-per-activation allocation so
        # it stays a faithful baseline.
        self._ctx_pool = (
            StepContextPool(network, self.config, self.specs_of)
            if state == "flat"
            else None
        )
        # Telemetry handles, fetched once: the step loop pays a single
        # ``enabled`` attribute check per step, and allocation-free
        # ``inc`` calls only while the registry is switched on.
        self._obs = TELEMETRY
        self._obs_steps = TELEMETRY.counter("sim.steps")
        self._obs_activations = TELEMETRY.counter("sim.activations")
        self._obs_silence_checks = TELEMETRY.counter("silence.checks")
        self._protocol_factory = protocol_factory
        #: audit log of out-of-band fault writes (``FaultReport``-like
        #: objects appended by :meth:`note_fault`; the trace recorder
        #: drains it into fault events)
        self.fault_log: List[object] = []
        #: live scenario runtime (None on scenario-free runs)
        self.scenario_runtime = None
        if scenario is not None:
            self.install_scenario(scenario)

    # ------------------------------------------------------------------
    # Metrics access
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsCollector:
        """The run's metrics collector.

        A batch engine folds aggregate-tier counts into engine-side
        vectors between reads; accessing the collector through this
        property drains them first, so external readers (summaries,
        scenario hooks, the warehouse) always see exact totals.
        """
        flush = self._metrics_flush
        if flush is not None:
            flush()
        return self._metrics

    def _derive_batch(self) -> None:
        """Route the step loop through the engine's batch path when the
        engine is batch-capable *and* currently active (flat state with
        a registered kernel; re-derived after every engine rebind)."""
        engine = self.engine
        self._batch = (
            engine
            if self.state_backend == "flat"
            and getattr(engine, "batch_active", False)
            else None
        )

    # ------------------------------------------------------------------
    # Configuration access
    # ------------------------------------------------------------------
    @property
    def config(self) -> Union[Configuration, LegacyConfiguration]:
        """The live configuration γ.

        Assigning a replacement configuration swaps the run's state
        wholesale: the new object is normalized into the simulator's
        backend, every pooled context is rebuilt (their cached rows
        address the old storage), and the enabled-set engine is
        rebound and fully invalidated.  In-place mutation via
        :meth:`invalidate_enabled` remains the cheaper path for faults.
        """
        return self._config

    @config.setter
    def config(self, new_config) -> None:
        backend = (
            Configuration if self.state_backend == "flat" else LegacyConfiguration
        )
        if not isinstance(new_config, backend):
            new_config = backend(new_config.as_dict())
        self._config = new_config
        if self._ctx_pool is not None:
            self._ctx_pool = StepContextPool(
                self.network, new_config, self.specs_of
            )
        self.engine.rebind_config(new_config)
        self._derive_batch()
        if self.scenario_runtime is not None:
            self.scenario_runtime.silence_cache = None

    # ------------------------------------------------------------------
    # Scenario / fault plumbing
    # ------------------------------------------------------------------
    def install_scenario(self, scenario) -> None:
        """Attach (or replace) the run's scenario script.

        ``scenario.bind(self)`` builds the live runtime whose
        ``before_step``/``after_step`` hooks the step loop calls; its
        events draw from the dedicated ``scenario`` RNG stream.
        """
        self.scenario_runtime = scenario.bind(self)

    def note_fault(self, report) -> None:
        """Log one out-of-band fault application for auditing.

        Called by the :mod:`repro.faults` injectors with their
        ``FaultReport``; the report lands on :attr:`fault_log` (which
        :class:`~repro.core.trace.TraceRecorder` drains into the trace)
        and its victim count streams into the metrics collector under
        the ``full`` and ``aggregate`` tiers.
        """
        self.fault_log.append(report)
        if self.metrics_tier != "off":
            self.metrics.record_fault(len(getattr(report, "victims", ())))

    def swap_scheduler(self, scheduler: Scheduler) -> None:
        """Replace the daemon mid-run (a scenario event).

        The incoming scheduler is reset (no pacing state may leak in)
        and the selection-pool wiring is re-derived from its
        ``draws_from`` declaration.
        """
        scheduler.reset()
        self.scheduler = scheduler
        self._enabled_pool = scheduler.draws_from == "enabled"
        self._sched_distinct = getattr(scheduler, "selects_distinct", False)

    def rebind_network(self, network, rng=None) -> None:
        """Adopt a mutated topology mid-run (scenario churn events).

        Rebuilds the protocol via ``protocol_factory`` (churn changes
        degrees, palettes, and local-identifier colorings, so the
        protocol instance is network-derived), then migrates the run:

        * surviving processes keep every variable value still inside
          its (possibly resized) domain; integer pointer-like values
          are clamped, anything else is resampled from the scenario
          stream — the model of a churn event is a transient fault at
          the affected processes;
        * joined processes start from arbitrary (corrupted) states;
        * communication constants are re-derived by the new protocol;
        * the engine, context pools, round tracker, metrics keys and
          (network-aware) scheduler are all rebound; the whole enabled
          set is distrusted.
        """
        if self._protocol_factory is None:
            raise ValueError(
                "topology mutation requires a protocol_factory= rebuild "
                "hook on the Simulator (ExperimentSpec.build_simulator "
                "supplies one; imperative callers must pass their own)"
            )
        rng = rng if rng is not None else self.rngs.scenario
        protocol = self._protocol_factory(network)
        specs_of = protocol.specs_of(network)
        old_states = self._config.as_dict()
        states = {}
        for p in network.processes:
            consts = protocol.constant_values(network, p)
            old = old_states.get(p)
            state = {}
            for spec in specs_of[p]:
                if spec.kind == "const":
                    state[spec.name] = consts[spec.name]
                    continue
                value = None
                if old is not None and spec.name in old:
                    prev = old[spec.name]
                    if prev in spec.domain:
                        value = prev
                    elif isinstance(prev, int) and hasattr(spec.domain, "lo"):
                        value = max(spec.domain.lo,
                                    min(spec.domain.hi, prev))
                if value is None:
                    value = spec.domain.sample(rng)
                state[spec.name] = value
            states[p] = state
        backend = (
            Configuration if self.state_backend == "flat"
            else LegacyConfiguration
        )
        config = backend(states)
        protocol.validate_configuration(network, config, specs_of=specs_of)

        self.protocol = protocol
        self.network = network
        self.specs_of = specs_of
        self._actions = protocol.actions()
        self._config = config
        self._processes = tuple(network.processes)
        self.round_tracker.rebind(self._processes)
        self.metrics.rebind_processes(list(self._processes))
        if self._ctx_pool is not None:
            self._ctx_pool = StepContextPool(network, config, specs_of)
        self.engine.rebind_network(protocol, network, config, specs_of)
        self._derive_batch()
        self.scheduler.rebind_network(network)
        if self.scenario_runtime is not None:
            self.scenario_runtime.silence_cache = None

    def report(self) -> StabilizationReport:
        """A report for the *current* configuration (silence checked
        now) — what a horizon-bounded scenario run returns."""
        return self._report(silent=None)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(
        self, *, _record: bool = True
    ) -> Union[StepRecord, LeanStepRecord]:
        """Execute one step and return its record.

        The scheduler draws from all processes, or — for daemons with
        ``draws_from == "enabled"`` — from the engine-maintained enabled
        set (falling back to all processes when nothing is enabled, so
        a terminal configuration still closes rounds via no-op steps and
        silence is detected at the next round boundary).

        Returns a full :class:`~repro.core.metrics.StepRecord` under
        ``metrics="full"`` and a lean
        :class:`~repro.core.metrics.LeanStepRecord` otherwise.  The
        record is built from the step's executions after the metrics
        fold, never folded itself.  The run drivers pass
        ``_record=False`` and get back only whether the step closed a
        round, so they build no record on any tier.

        Scenario hook point: an installed scenario runtime sees the
        step boundary *before* the selection (events mutate γ, the
        topology, or the daemon, and the engine is invalidated before
        the pool is drawn) and again after the step's accounting.
        """
        runtime = self.scenario_runtime
        if runtime is not None:
            runtime.before_step(self)
        if self._enabled_pool:
            pool = self.engine.enabled_list() or self._processes
        else:
            pool = self._processes
        selected = self.scheduler.select(pool, self.rngs.scheduler)
        if not selected:
            raise ConvergenceError("scheduler selected an empty set")

        action_rng = self.rngs.protocol if self.protocol.randomized else None
        batch = self._batch
        if batch is not None:
            if self._sched_distinct or len(set(selected)) == len(selected):
                # One whole step over columns: the same γi+1 and the
                # same folds as the scalar loop, without contexts.
                outcome = batch.execute_step(selected, action_rng)
                return self._finish_step(selected, None, outcome, _record)
            # Scalar divert (duplicate pids): pooled contexts cache raw
            # row references, bypassing the config sync hook — the
            # columns must be decoded before any context reads them.
            batch.materialize_rows()

        executions = []
        append = executions.append
        actions = self._actions
        ctx_pool = self._ctx_pool
        if ctx_pool is not None:
            # Inlined StepContextPool.acquire / StepContext.reset: two
            # function calls per activation are measurable at 10k
            # activations per synchronous step.
            ctxs = ctx_pool._ctxs
            acquire = ctx_pool.acquire
            for p in selected:
                ctx = ctxs.get(p)
                if ctx is None:
                    ctx = acquire(p, action_rng)
                else:
                    ctx._rng = action_rng
                    ctx._stamp += 1
                    ctx.ports_read.clear()
                    ctx.bits_read = 0.0
                    ctx.writes.clear()
                    ctx.used_randomness = False
                action = first_enabled(actions, ctx)
                if action is not None:
                    action.effect(ctx)
                append((p, ctx, action))
        else:
            network, config, specs_of = self.network, self.config, self.specs_of
            for p in selected:
                ctx = StepContext(p, network, config, specs_of, rng=action_rng)
                action = first_enabled(actions, ctx)
                if action is not None:
                    action.effect(ctx)
                append((p, ctx, action))

        # Simultaneous writes: γi+1 is built only after every activated
        # process has computed its action against γi.  Processes whose
        # communication variables take a *new* value are collected for
        # the engine — only they can flip a neighbor's enabled-status.
        comm_changed = []
        for p, ctx, _action in executions:
            if ctx.flush_writes():
                comm_changed.append(p)
        self.engine.note_step(selected, comm_changed)
        return self._finish_step(selected, executions, None, _record)

    def _finish_step(self, selected, executions, outcome, want_record):
        """The bookkeeping after one step, shared by the scalar loop
        (``executions``: its ``(pid, ctx, action)`` list) and the
        columnar path (``outcome``: a ``BatchOutcome``): round tracking,
        the step index, telemetry, the tier's one metrics fold, the
        record, and the scenario's ``after_step`` hook.

        Returns the step's record when ``want_record``, else whether
        the step closed a round.
        """
        if self._enabled_pool:
            closed = self.round_tracker.record_step(
                selected, still_enabled=self.engine.enabled_view()
            )
        else:
            closed = self.round_tracker.record_step(selected)

        index = self.step_index
        self.step_index = index + 1
        if self._obs.enabled:
            self._obs_steps.inc()
            self._obs_activations.inc(len(selected))
        tier = self.metrics_tier
        if tier != "off":
            if outcome is None:
                self._metrics.record_lean(executions, closed)
            else:
                self._batch.fold_aggregate(outcome, self._metrics, closed)
        if not want_record:
            record = closed
        elif tier != "full":
            record = LeanStepRecord(index, len(selected), closed)
        elif outcome is not None:
            record = self._batch.make_step_record(index, outcome, closed)
        else:
            record = StepRecord(
                index=index,
                activated=frozenset(selected),
                executed={
                    p: (action.name if action else None)
                    for p, _ctx, action in executions
                },
                ports_read={
                    p: frozenset(ctx.ports_read) for p, ctx, _ in executions
                },
                bits_read={p: ctx.bits_read for p, ctx, _ in executions},
                closed_round=closed,
            )
        runtime = self.scenario_runtime
        if runtime is not None:
            runtime.after_step(self, closed)
        return record

    def _fused_resident(self):
        """The engine to hand a fused columnar run to, or None.

        The fused driver covers scenario-free synchronous-daemon runs
        (plain or ``enabled_only``) on an active batch engine, on every
        metrics tier; anything else — scenario hooks, exotic daemons —
        keeps the per-step loop, which reaches the rows through the
        materialization hook.
        """
        batch = self._batch
        if (
            batch is not None
            and self.scenario_runtime is None
            and type(self.scheduler) is SynchronousScheduler
        ):
            return batch
        return None

    def run_resident(
        self,
        steps: Optional[int] = None,
        stop_on_silence: bool = False,
        max_rounds: Optional[int] = None,
    ):
        """Drive the fused columnar loop explicitly.

        Requires an eligible run (see :meth:`run_steps` for the
        delegation rules); returns ``(steps_executed, silent)`` from
        :meth:`BatchEngine.run_steps <repro.core.batchengine.BatchEngine.run_steps>`.
        """
        engine = self._fused_resident()
        if engine is None:
            raise ConvergenceError(
                "run_resident() requires an active batch engine ('batch', "
                "alias 'batch-resident') on a scenario-free "
                "synchronous-daemon run"
            )
        return engine.run_steps(
            self,
            max_steps=steps,
            stop_on_silence=stop_on_silence,
            round_budget=max_rounds,
        )

    def run_steps(self, count: int) -> None:
        """Execute exactly ``count`` steps."""
        engine = self._fused_resident()
        if engine is not None and count > 0:
            engine.run_steps(self, max_steps=count)
            return
        for _ in range(count):
            self.step(_record=False)

    def run_rounds(self, count: int) -> int:
        """Execute until ``count`` more rounds complete; returns steps used."""
        target = self.round_tracker.completed_rounds + count
        steps = 0
        while self.round_tracker.completed_rounds < target:
            self.step(_record=False)
            steps += 1
        return steps

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_legitimate(self) -> bool:
        """Whether the current γ satisfies the protocol's predicate."""
        return self.protocol.is_legitimate(self.network, self.config)

    def is_silent(self) -> bool:
        """Exact check that γ's communication part is fixed forever.

        Sound for any daemon: silence (Def. 3) quantifies over every
        fair scheduling of the future, not the one this simulator uses.

        On scenario runs the verdict is cached per (step, fault-count)
        boundary — the run loop, the recovery tracker and pending
        ``after_silence`` triggers all ask at the same boundary, and
        the check is a full-network scan.  The cache is keyed on
        :attr:`step_index` and ``len(fault_log)``, so every sanctioned
        mutation path (steps, the fault injectors, churn rebinding)
        invalidates it; out-of-band writes that bypass the injectors
        must not be mixed with installed scenarios.

        Every call counts toward the ``silence.checks`` telemetry
        counter while telemetry is on.
        """
        if self._obs.enabled:
            self._obs_silence_checks.inc()
        runtime = self.scenario_runtime
        if runtime is None:
            return self.silence_witness() is None
        key = (self.step_index, len(self.fault_log))
        cached = runtime.silence_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        verdict = self.silence_witness() is None
        runtime.silence_cache = (key, verdict)
        return verdict

    def silence_witness(self):
        """A reachable communication write proving γ is not silent
        (None when silent), walked on the step loop's pooled contexts:
        pending column writes decode first, as for ``step()``'s divert."""
        if self._batch is not None:
            self._batch.materialize_rows()
        return silence_witness(self.protocol, self.network, self.config,
                               self.specs_of, self._ctx_pool)

    def enabled_processes(self) -> List[ProcessId]:
        """Processes with at least one enabled action in the current γ.

        Served by the enabled-set engine in canonical network order:
        O(dirty guards) per call under the incremental engine instead
        of one guard evaluation per process.  Code that mutates
        :attr:`config` directly (fault injection does) must call
        :meth:`invalidate_enabled` first or the view may be stale.
        """
        return list(self.engine.enabled_list())

    def invalidate_enabled(
        self, processes: Optional[List[ProcessId]] = None
    ) -> None:
        """Tell the engine some states changed behind the simulator's back.

        ``processes`` limits the invalidation to the touched processes
        (and, via the protocol's read-set declaration, everyone whose
        guards may observe them); ``None`` distrusts the whole network.
        The fault-injection helpers in :mod:`repro.faults` call this for
        you.
        """
        self.engine.invalidate(processes)

    # ------------------------------------------------------------------
    # High-level runs
    # ------------------------------------------------------------------
    def run_until_silent(
        self,
        max_rounds: int = 10_000,
        check_legitimacy: bool = True,
    ) -> StabilizationReport:
        """Run until the configuration is provably silent.

        The (exact) silence check runs at every round boundary.  Raises
        :class:`ConvergenceError` if ``max_rounds`` elapse first — for
        the paper's protocols that indicates a bug, because all three
        are silent within known round bounds.
        """
        if self.is_silent():
            return self._report(silent=True)
        engine = self._fused_resident()
        if engine is not None:
            _steps, silent = engine.run_steps(
                self, stop_on_silence=True, round_budget=max_rounds
            )
            if silent:
                return self._report(silent=True)
        else:
            start_round = self.round_tracker.completed_rounds
            while (self.round_tracker.completed_rounds - start_round
                   < max_rounds):
                if self.step(_record=False) and self.is_silent():
                    return self._report(silent=True)
        raise ConvergenceError(
            f"{self.protocol.name} not silent after {max_rounds} rounds "
            f"on {self.network!r} (witness: {self.silence_witness()})"
        )

    def run_until_legitimate(self, max_rounds: int = 10_000) -> StabilizationReport:
        """Run until the legitimacy predicate holds (weaker than silence)."""
        if self.is_legitimate():
            return self._report(silent=None)
        start_round = self.round_tracker.completed_rounds
        while self.round_tracker.completed_rounds - start_round < max_rounds:
            self.step(_record=False)
            if self.is_legitimate():
                return self._report(silent=None)
        raise ConvergenceError(
            f"{self.protocol.name} not legitimate after {max_rounds} rounds"
        )

    def measure_suffix_stability(self, extra_rounds: int = 10) -> Dict[ProcessId, set]:
        """Arm suffix tracking and run ``extra_rounds`` more rounds.

        Returns each process's accumulated neighbor-read set over the
        suffix — the raw material of the ♦-(x, k)-stability measurement.
        Call after reaching silence.  Works under the ``full`` and
        ``aggregate`` tiers (both fold suffix read-sets); under
        ``metrics="off"`` nothing accumulates, so it raises
        :class:`ValueError` rather than report empty read sets.
        """
        if self.metrics_tier == "off":
            raise ValueError(
                "measure_suffix_stability() needs the read sets that "
                "metrics='off' never folds; use metrics='full' or "
                "'aggregate'"
            )
        self.metrics.start_suffix()
        self.run_rounds(extra_rounds)
        assert self.metrics.suffix_read_sets is not None
        return {p: set(s) for p, s in self.metrics.suffix_read_sets.items()}

    # ------------------------------------------------------------------
    def _report(self, silent: Optional[bool]) -> StabilizationReport:
        actually_silent = self.is_silent() if silent is None else silent
        return StabilizationReport(
            silent=actually_silent,
            legitimate=self.is_legitimate(),
            steps=self.step_index,
            rounds=self.round_tracker.completed_rounds,
            silent_at_step=self.step_index if actually_silent else None,
            silent_at_round=(
                self.round_tracker.completed_rounds if actually_silent else None
            ),
        )
