"""Enabled-set engines: who could act *right now*, maintained cheaply.

The simulator, the silence-adjacent analyses, and the enabled-drawing
daemons all need the same piece of derived state: the set of processes
with at least one enabled action in the current configuration γ.
Recomputing it from scratch costs one guard evaluation per process —
``O(n·Δ)`` per query — which caps throughput long before the hardware
does on large networks.

The engines here exploit the locality the execution model *enforces*:
a guard is a function of the process's own state and its neighbors'
communication variables only (:class:`~repro.core.context.StepContext`
raises :class:`~repro.core.exceptions.IllegalRead` on anything else).
Hence a step that activates the set ``s`` and changes the communication
variables of ``c ⊆ s`` can only change the enabled-status of

* the activated processes themselves (their own state moved), and
* the processes whose guards may read a member of ``c`` — by default
  the direct neighbors, or a wider ball when the protocol declares a
  larger :attr:`~repro.core.protocol.Protocol.read_radius` /
  overrides :meth:`~repro.core.protocol.Protocol.reads`.

Three engines implement one contract (:class:`EnabledSetEngine`):

* :class:`ScanEngine` — ``engine="scan"``, the reference: rescans every
  process on demand.  ``O(n·Δ)`` per post-step query, trivially correct.
* :class:`IncrementalEngine` — the default: accumulates a dirty-set per
  step and re-evaluates only dirty guards on demand.  ``O(Δ·|s|)``
  amortized per step.
* :class:`CrossCheckEngine` — debugging: runs the incremental update
  *and* a full scan on every query and raises
  :class:`~repro.core.exceptions.ModelError` on any disagreement.

All engines are *lazy*: :meth:`note_step` only records what moved, and
guard re-evaluation happens when :meth:`enabled_set` /
:meth:`enabled_list` is queried.  A run that never asks about
enabled-status pays almost nothing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, Optional, Set, Tuple,
)

from ..obs.registry import TELEMETRY
from .actions import first_enabled
from .context import StepContextPool
from .exceptions import ModelError

ProcessId = Hashable

#: The one engine table: name -> zero-argument builder.
#: :func:`make_engine`, :data:`repro.api.engine_registry` (and through it
#: ``register_engine``, the CLI and :class:`~repro.api.ExperimentSpec`)
#: all read and extend it.  The scalar engines are entered below; the
#: columnar ``batch`` family (with its ``batch-resident`` alias) enters
#: itself from :mod:`repro.core.batchengine`.
ENGINES: Dict[str, Callable[[], "EnabledSetEngine"]] = {}

#: Live view of the registered engine names.
ENGINE_NAMES = ENGINES.keys()


class EnabledSetEngine(ABC):
    """Maintains the set of enabled processes across simulator steps.

    Lifecycle contract:

    1. The simulator calls :meth:`bind` once with the live run objects;
       the engine snapshots nothing — it reads the (mutable)
       configuration on every guard evaluation.
    2. After every applied step the simulator calls :meth:`note_step`
       with the activated set and the subset whose *communication*
       variables actually changed value.  This must be cheap.
    3. Any time :meth:`enabled_set` / :meth:`enabled_list` is called,
       the engine answers for the configuration as of the last
       :meth:`note_step` (evaluating guards lazily as needed).
    4. Code that mutates the configuration behind the simulator's back
       (fault injection) must call :meth:`invalidate` with the touched
       processes, or with ``None`` to distrust everything.
    """

    #: registry/CLI identifier of the engine implementation
    name: str = "engine"

    def bind(self, protocol, network, config, specs_of) -> None:
        """Attach the engine to one run (called by the simulator).

        An engine instance is a single-run object: rebinding it would
        leave every earlier holder silently querying the new run's
        state, so a second bind raises — pass an engine *name* (or a
        fresh instance) per simulator instead.
        """
        if getattr(self, "_bound", False):
            raise ValueError(
                f"{type(self).__name__} is already bound to a run; "
                "engines are single-run objects — pass an engine name "
                "or a fresh instance to each Simulator"
            )
        self._bound = True
        self.protocol = protocol
        self.network = network
        self.config = config
        self.specs_of = specs_of
        self._actions = protocol.actions()
        # Guard probes reuse pooled contexts (reset per evaluation)
        # instead of allocating one per guard check: a scan costs n
        # context builds otherwise.  Separate from the simulator's
        # execution pool, so a lazy flush triggered mid-step can never
        # clobber the read tracking of the step's execution contexts.
        self._probe_pool = StepContextPool(network, config, specs_of)
        #: canonical position of each process — every engine presents
        #: the enabled pool in network-process order so that daemons
        #: drawing from it behave identically across engines.
        self._order: Dict[ProcessId, int] = {
            p: i for i, p in enumerate(network.processes)
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @abstractmethod
    def enabled_set(self) -> FrozenSet[ProcessId]:
        """The current enabled set (membership queries)."""

    @abstractmethod
    def enabled_list(self) -> Tuple[ProcessId, ...]:
        """The current enabled set in canonical network-process order."""

    def enabled_view(self) -> FrozenSet[ProcessId]:
        """The enabled set for hot-path membership tests.

        May alias engine-internal state to avoid a per-step copy;
        callers must treat it as read-only and must not hold it across
        steps.  Defaults to :meth:`enabled_set`.
        """
        return self.enabled_set()

    # ------------------------------------------------------------------
    # Change notifications
    # ------------------------------------------------------------------
    @abstractmethod
    def note_step(
        self,
        activated: Iterable[ProcessId],
        comm_changed: Iterable[ProcessId],
    ) -> None:
        """Record one applied step.

        ``activated`` is the scheduler's selection; ``comm_changed`` is
        the subset whose communication variables hold a new value in
        γi+1.  Must be O(|activated| + |comm_changed|·Δ) or better.
        """

    @abstractmethod
    def invalidate(self, processes: Optional[Iterable[ProcessId]] = None) -> None:
        """Distrust the cached status of ``processes`` (None = all).

        Required after any out-of-band configuration write — fault
        injection, adversarial resets, direct ``config.set`` calls.
        """

    def rebind_config(self, config) -> None:
        """Point the engine at a *replacement* configuration object.

        Assigning ``Simulator.config`` swaps the storage every cached
        row references, so the probe pool is rebuilt and the whole
        enabled set distrusted.  This is wholesale replacement, not the
        in-place mutation path — for that, :meth:`invalidate` alone is
        enough.
        """
        self.config = config
        self._probe_pool = StepContextPool(
            self.network, config, self.specs_of
        )
        self.invalidate(None)

    def rebind_network(self, protocol, network, config, specs_of) -> None:
        """Re-attach a bound engine to a *mutated* run (topology churn).

        Scenario churn events replace the network, the protocol built
        for it, the configuration and the variable specs wholesale.
        The engine rebuilds everything derived from them — guard
        probes, the canonical process order, and (for the incremental
        engine) the influence map — and distrusts the entire enabled
        set.  Only legal on an already-bound engine; fresh engines go
        through :meth:`bind`.
        """
        if not getattr(self, "_bound", False):
            raise ValueError(
                f"{type(self).__name__} is not bound yet; call bind() first"
            )
        self.protocol = protocol
        self.network = network
        self.config = config
        self.specs_of = specs_of
        self._actions = protocol.actions()
        self._probe_pool = StepContextPool(network, config, specs_of)
        self._order = {p: i for i, p in enumerate(network.processes)}
        self.invalidate(None)

    # ------------------------------------------------------------------
    # Shared guard evaluation
    # ------------------------------------------------------------------
    def _is_enabled(self, p: ProcessId) -> bool:
        """One from-scratch guard evaluation for ``p`` against γ."""
        ctx = self._probe_pool.acquire(p, rng=None)
        return first_enabled(self._actions, ctx) is not None

    def _scan(self) -> Set[ProcessId]:
        """A full from-scratch scan of every process."""
        return {p for p in self.network.processes if self._is_enabled(p)}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _influence_map(protocol, network) -> Dict[ProcessId, tuple]:
    """``q ->`` the processes (≠ q) whose guards may read q: the inverse
    of ``protocol.reads``."""
    influence: Dict[ProcessId, list] = {p: [] for p in network.processes}
    for p in network.processes:
        for q in protocol.reads(network, p):
            influence[q].append(p)
    return {q: tuple(ps) for q, ps in influence.items()}


class ScanEngine(EnabledSetEngine):
    """The full-scan fallback: every query rescans every guard.

    Correct by construction and allocation-free between queries; use it
    as the reference implementation, on tiny networks, or to bisect a
    suspected incremental-engine bug (see also :class:`CrossCheckEngine`
    which automates that comparison).
    """

    name = "scan"

    def bind(self, protocol, network, config, specs_of) -> None:
        super().bind(protocol, network, config, specs_of)
        self._stale = True
        self._set: FrozenSet[ProcessId] = frozenset()
        self._list: Tuple[ProcessId, ...] = ()

    def _refresh(self) -> None:
        if self._stale:
            enabled = self._scan()
            self._set = frozenset(enabled)
            self._list = tuple(
                p for p in self.network.processes if p in enabled
            )
            self._stale = False

    def enabled_set(self) -> FrozenSet[ProcessId]:
        self._refresh()
        return self._set

    def enabled_list(self) -> Tuple[ProcessId, ...]:
        self._refresh()
        return self._list

    def note_step(self, activated, comm_changed) -> None:
        self._stale = True

    def invalidate(self, processes=None) -> None:
        self._stale = True


class IncrementalEngine(EnabledSetEngine):
    """Dirty-set maintenance of the enabled set.

    :meth:`bind` evaluates no guard: the first query builds the
    *influence map* (the inverse of :meth:`Protocol.reads
    <repro.core.protocol.Protocol.reads>`) and scans, so an all-pool
    daemon pays neither, and a raising guard surfaces at the first
    query or step.  Then a step marks exactly
    ``activated ∪ influence(comm_changed)`` dirty; a query re-evaluates
    only dirty guards.

    When the accumulated dirty-set covers the whole network (e.g. under
    the synchronous daemon, or after ``invalidate(None)``) the engine
    degrades gracefully to a single full scan at the next query and the
    per-step bookkeeping short-circuits to O(1).
    """

    name = "incremental"

    def bind(self, protocol, network, config, specs_of) -> None:
        super().bind(protocol, network, config, specs_of)
        self._n = network.n
        self._influence: Optional[Dict[ProcessId, tuple]] = None
        self._dirty: Set[ProcessId] = set()
        self._stale_all = True  # the first query primes the engine
        self._scan_counts = False  # ... with a scan that is no rescan
        self._list: Optional[Tuple[ProcessId, ...]] = None

    def rebind_network(self, protocol, network, config, specs_of) -> None:
        """Base rebind plus a fresh influence map for the new topology
        (the old map would route invalidations to stale neighborhoods)."""
        super().rebind_network(protocol, network, config, specs_of)
        self._n = network.n
        self._influence = _influence_map(protocol, network)

    # ------------------------------------------------------------------
    def note_step(self, activated, comm_changed) -> None:
        if self._stale_all:
            return
        dirty = self._dirty
        dirty.update(activated)
        influence = self._influence
        for q in comm_changed:
            dirty.update(influence[q])
        if len(dirty) >= self._n:
            self._stale_all = True
            dirty.clear()

    def invalidate(self, processes=None) -> None:
        if processes is None:
            self._stale_all = True
            self._scan_counts = True
            self._dirty.clear()
        else:
            # Treat the out-of-band write like a step that both
            # activated the victims and changed their comm variables.
            touched = list(processes)
            self.note_step(touched, touched)

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        if self._stale_all:
            rescan, self._scan_counts = self._scan_counts, True
            if self._influence is None:
                self._influence = _influence_map(self.protocol, self.network)
            self._enabled = self._scan()
            self._stale_all = False
            self._dirty.clear()
            self._list = None
            if TELEMETRY.enabled:
                if rescan:
                    TELEMETRY.counter("engine.incremental.rescans").inc()
                TELEMETRY.gauge("engine.enabled_set").set(len(self._enabled))
            return
        if not self._dirty:
            return
        # Telemetry stays out of the early-return paths above; a flush
        # with work to do pays one enabled-check (plus clock reads only
        # while the registry is on).
        obs_on = TELEMETRY.enabled
        t0 = perf_counter() if obs_on else 0.0
        dirty_count = len(self._dirty)
        enabled = self._enabled
        changed = False
        for p in self._dirty:
            if self._is_enabled(p):
                if p not in enabled:
                    enabled.add(p)
                    changed = True
            elif p in enabled:
                enabled.discard(p)
                changed = True
        self._dirty.clear()
        if changed:
            self._list = None
        if obs_on:
            TELEMETRY.counter(
                "engine.incremental.reclassified").inc(dirty_count)
            TELEMETRY.histogram("engine.flush_s").observe(
                perf_counter() - t0)
            TELEMETRY.gauge("engine.enabled_set").set(len(enabled))

    def enabled_set(self) -> FrozenSet[ProcessId]:
        self._flush()
        return frozenset(self._enabled)

    def enabled_view(self):
        self._flush()
        return self._enabled

    def enabled_list(self) -> Tuple[ProcessId, ...]:
        self._flush()
        if self._list is None:
            self._list = tuple(
                sorted(self._enabled, key=self._order.__getitem__)
            )
        return self._list


class CrossCheckEngine(IncrementalEngine):
    """Incremental engine that audits itself against a full scan.

    Every flush additionally rescans all guards and raises
    :class:`~repro.core.exceptions.ModelError` if the incrementally
    maintained set disagrees — the debugging mode to run when a new
    protocol declares a custom :meth:`reads` hook or a suspiciously
    narrow :attr:`read_radius`.
    """

    name = "debug"

    def _flush(self) -> None:
        super()._flush()
        fresh = self._scan()
        if fresh != self._enabled:
            missing = sorted(map(repr, fresh - self._enabled))
            extra = sorted(map(repr, self._enabled - fresh))
            raise ModelError(
                "incremental enabled-set diverged from full scan "
                f"(missing: {missing}, stale: {extra}); the protocol's "
                "reads()/read_radius declaration is too narrow or the "
                "configuration was mutated without invalidate()"
            )


ENGINES.update(
    incremental=IncrementalEngine, scan=ScanEngine, debug=CrossCheckEngine
)


def make_engine(engine: "str | EnabledSetEngine" = "incremental") -> EnabledSetEngine:
    """Engine factory: a name from :data:`ENGINES` or an instance.

    Passing an already-constructed (unbound) engine through is allowed
    so callers can supply custom implementations.
    """
    if isinstance(engine, EnabledSetEngine):
        return engine
    try:
        builder = ENGINES[engine]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown engine {engine!r}; known: {sorted(ENGINES)}"
        ) from None
    return builder()
