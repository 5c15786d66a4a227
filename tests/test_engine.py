"""Tests for the enabled-set engines (repro.core.engine).

The central contract: every engine — incremental dirty-set, full-scan
fallback, self-auditing debug — produces *step-for-step identical*
executions, because an engine only changes how the enabled set is
maintained, never what it is.  The property tests here drive random
(protocol, topology, scheduler, seed) combinations through paired
simulators and compare traces, configurations and metrics exactly.
"""

import random

import pytest

from repro.api import engine_registry
from repro.core import (
    CentralScheduler,
    ModelError,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    Simulator,
    SynchronousScheduler,
    make_engine,
)
from repro.core.actions import GuardedAction, first_enabled
from repro.core.batchengine import BatchEngine
from repro.core.context import StepContext
from repro.core.engine import (
    ENGINE_NAMES, CrossCheckEngine, EnabledSetEngine, IncrementalEngine,
    ScanEngine,
)
from repro.core.protocol import Protocol
from repro.core.scheduler import BoundedFairScheduler, LocallyCentralScheduler
from repro.core.exceptions import IllegalRead
from repro.core.variables import BOOL, comm, internal
from repro.faults import corrupt_processes
from repro.graphs import chain, grid, random_connected, ring, sparse_random
from repro.protocols import ColoringProtocol, MatchingProtocol, MISProtocol
from repro.graphs import greedy_coloring


#: Every registered engine — new engines (the columnar batch family,
#: future strategies) inherit the whole equivalence matrix by being
#: registered, with no test edits.
ALL_ENGINES = tuple(sorted(engine_registry.names()))


def brute_force_enabled(sim):
    """The reference enabled set: one fresh guard scan per process."""
    actions = sim.protocol.actions()
    out = []
    for p in sim.network.processes:
        ctx = StepContext(p, sim.network, sim.config, sim.specs_of, rng=None)
        if first_enabled(actions, ctx) is not None:
            out.append(p)
    return out


def build_protocol(name, network):
    if name == "coloring":
        return ColoringProtocol.for_network(network)
    colors = greedy_coloring(network)
    return (MISProtocol if name == "mis" else MatchingProtocol)(network, colors)


TOPOLOGIES = {
    "ring12": lambda: ring(12),
    "grid3x4": lambda: grid(3, 4),
    "gnp14": lambda: random_connected(14, 0.3, seed=5),
    "sparse16": lambda: sparse_random(16, avg_degree=3.0, seed=9),
}

SCHEDULERS = {
    "synchronous": lambda net: SynchronousScheduler(),
    "central": lambda net: CentralScheduler(),
    "random-subset": lambda net: RandomSubsetScheduler(0.4),
    "round-robin": lambda net: RoundRobinScheduler(),
    "bounded-fair": lambda net: BoundedFairScheduler(bound=9, burst=2),
    "locally-central": lambda net: LocallyCentralScheduler(net, 0.5),
    "enabled-central": lambda net: CentralScheduler(enabled_only=True),
    "enabled-synchronous": lambda net: SynchronousScheduler(enabled_only=True),
    "enabled-random-subset": lambda net: RandomSubsetScheduler(
        0.5, enabled_only=True
    ),
}


class TestTraceEquivalence:
    """Every registered engine replays the same computation."""

    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_step_for_step_identical(self, protocol, scheduler):
        rng = random.Random(hash((protocol, scheduler)) & 0xFFFF)
        for _ in range(2):
            topo = rng.choice(sorted(TOPOLOGIES))
            seed = rng.randrange(10_000)
            traces, finals, metrics = [], [], []
            for engine in ALL_ENGINES:
                net = TOPOLOGIES[topo]()
                sim = Simulator(
                    build_protocol(protocol, net),
                    net,
                    scheduler=SCHEDULERS[scheduler](net),
                    seed=seed,
                    engine=engine,
                )
                traces.append([sim.step() for _ in range(80)])
                finals.append(sim.config)
                metrics.append(sim.metrics.summary())
            for i, engine in enumerate(ALL_ENGINES):
                label = f"{engine}/{protocol}/{topo}/{scheduler}/s{seed}"
                assert traces[i] == traces[0], label
                assert finals[i] == finals[0], label
                assert metrics[i] == metrics[0], label

    def test_default_engine_is_incremental(self):
        net = ring(6)
        sim = Simulator(ColoringProtocol.for_network(net), net, seed=0)
        assert isinstance(sim.engine, IncrementalEngine)

    def test_unknown_engine_rejected(self):
        net = ring(6)
        with pytest.raises(ValueError, match="unknown engine"):
            Simulator(ColoringProtocol.for_network(net), net, engine="warp")


class TestEnabledSetMaintenance:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_matches_brute_force_along_random_runs(self, engine):
        for seed in (0, 3, 11):
            net = random_connected(12, 0.3, seed=seed)
            sim = Simulator(
                build_protocol("mis", net), net,
                scheduler=RandomSubsetScheduler(0.5), seed=seed,
                engine=engine,
            )
            for _ in range(40):
                sim.step()
                assert sim.enabled_processes() == brute_force_enabled(sim)

    def test_canonical_order(self):
        net = ring(9)
        sim = Simulator(ColoringProtocol.for_network(net), net, seed=2)
        sim.run_steps(5)
        enabled = sim.enabled_processes()
        order = {p: i for i, p in enumerate(net.processes)}
        assert enabled == sorted(enabled, key=order.__getitem__)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_fault_injection_invalidates_engine(self, engine):
        net = grid(3, 3)
        sim = Simulator(build_protocol("matching", net), net, seed=4,
                        engine=engine)
        sim.run_steps(30)
        corrupt_processes(sim, list(net.processes)[:4], random.Random(1))
        assert sim.enabled_processes() == brute_force_enabled(sim)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_manual_invalidate_all(self, engine):
        net = ring(8)
        sim = Simulator(build_protocol("mis", net), net, seed=1,
                        engine=engine)
        sim.run_steps(10)
        # Out-of-band write with an explicit whole-network invalidation.
        p = net.processes[0]
        from repro.predicates.mis import DOMINATED, DOMINATOR
        flipped = DOMINATED if sim.config.get(p, "S") == DOMINATOR else DOMINATOR
        sim.config.set(p, "S", flipped)
        sim.invalidate_enabled()
        assert sim.enabled_processes() == brute_force_enabled(sim)


class TestLazyIncrementalEngine:
    """Binding evaluates no guard: a run whose daemon draws from all
    processes never pays for the enabled set, and the first query
    answers exactly as a full scan would."""

    @pytest.fixture
    def probes(self, monkeypatch):
        calls = []
        original = EnabledSetEngine._is_enabled

        def spy(engine, p):
            calls.append(p)
            return original(engine, p)

        monkeypatch.setattr(EnabledSetEngine, "_is_enabled", spy)
        return calls

    @staticmethod
    def scan_list(sim):
        scan = ScanEngine()
        scan.bind(sim.protocol, sim.network, sim.config, sim.specs_of)
        return scan.enabled_list()

    @pytest.mark.parametrize("engine", ["incremental", "debug"])
    @pytest.mark.parametrize("scheduler", ["synchronous", "central",
                                           "random-subset", "round-robin"])
    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_all_pool_run_evaluates_no_probe_guard(
            self, probes, protocol, scheduler, engine):
        net = grid(3, 4)
        sim = Simulator(build_protocol(protocol, net), net,
                        scheduler=SCHEDULERS[scheduler](net), seed=7,
                        engine=engine)
        sim.run_until_silent(max_rounds=5000)
        assert probes == [] and len(sim.engine._probe_pool) == 0
        assert sim.engine.enabled_list() == self.scan_list(sim)
        assert list(sim.engine.enabled_list()) == brute_force_enabled(sim)

    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_first_query_mid_run_matches_scan(self, protocol):
        net = random_connected(14, 0.3, seed=5)
        for steps in (0, 1, 5, 20):
            sim = Simulator(build_protocol(protocol, net), net,
                            scheduler=CentralScheduler(), seed=steps)
            sim.run_steps(steps)
            assert sim.engine.enabled_list() == self.scan_list(sim)
            # Primed now: later steps go through the dirty set.
            for _ in range(10):
                sim.step()
                assert sim.engine.enabled_list() == self.scan_list(sim)

    @pytest.mark.parametrize("engine", ["incremental", "debug"])
    def test_invalidate_before_first_query(self, engine):
        net = ring(12)
        sim = Simulator(build_protocol("mis", net), net,
                        scheduler=CentralScheduler(), seed=4, engine=engine)
        sim.run_steps(6)
        corrupt_processes(sim, [0, 5], random.Random(1))
        sim.invalidate_enabled([3])
        sim.invalidate_enabled(None)
        assert sim.enabled_processes() == brute_force_enabled(sim)
        for _ in range(20):
            sim.step()
            assert sim.enabled_processes() == brute_force_enabled(sim)

    @pytest.mark.parametrize("engine", ["incremental", "debug"])
    def test_rebind_network_before_first_query(self, engine):
        """The rebound engine routes invalidations through the new
        topology's influence map from its first step on."""
        sim = Simulator(build_protocol("matching", ring(12)), ring(12),
                        scheduler=CentralScheduler(), seed=2, engine=engine,
                        protocol_factory=lambda n: build_protocol(
                            "matching", n))
        sim.run_steps(4)
        sim.rebind_network(random_connected(12, 0.35, seed=4))
        assert sim.enabled_processes() == brute_force_enabled(sim)
        for _ in range(30):
            sim.step()
            assert sim.enabled_processes() == brute_force_enabled(sim)

    def test_guard_error_surfaces_at_first_query_or_step(self):
        class PeekInternal(Protocol):
            """Toy whose guard reads a neighbor's internal register."""

            name = "peek-internal"

            def variables(self, network, p):
                return (internal("y", BOOL),)

            def actions(self):
                return (
                    GuardedAction("peek", lambda ctx: ctx.read(1, "y"),
                                  lambda ctx: None),
                )

            def is_legitimate(self, network, config):
                return True

        net = ring(6)
        for query in (lambda sim: sim.enabled_processes(),
                      lambda sim: sim.step()):
            sim = Simulator(PeekInternal(), net,
                            scheduler=CentralScheduler(), seed=0)
            with pytest.raises(IllegalRead):
                query(sim)


class TestCrossCheckEngine:
    def test_clean_run_passes_audit(self):
        net = random_connected(10, 0.35, seed=2)
        sim = Simulator(build_protocol("mis", net), net,
                        scheduler=CentralScheduler(), seed=2, engine="debug")
        sim.run_steps(60)
        assert isinstance(sim.engine, CrossCheckEngine)
        assert sim.enabled_processes() == brute_force_enabled(sim)

    def test_unreported_mutation_is_caught(self):
        net = ring(8)
        proto = build_protocol("mis", net)
        sim = Simulator(proto, net, seed=0, engine="debug")
        sim.run_steps(5)
        sim.enabled_processes()  # settle the audit at the current γ
        from repro.predicates.mis import DOMINATED, DOMINATOR

        # Flip comm state behind the engine's back until the enabled set
        # diverges; the debug engine must refuse to serve stale data.
        with pytest.raises(ModelError, match="diverged"):
            for p in net.processes:
                current = sim.config.get(p, "S")
                sim.config.set(
                    p, "S",
                    DOMINATED if current == DOMINATOR else DOMINATOR,
                )
                sim.engine.note_step([], [])  # a no-op step, no invalidate
                sim.enabled_processes()
            pytest.skip("no divergence found (all flips status-neutral)")


class TestEnabledDrawingDaemons:
    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_runs_to_silence_with_enabled_central(self, protocol):
        net = random_connected(12, 0.3, seed=6)
        sim = Simulator(
            build_protocol(protocol, net), net,
            scheduler=CentralScheduler(enabled_only=True), seed=6,
        )
        report = sim.run_until_silent(max_rounds=20_000)
        assert report.stabilized

    def test_maximal_daemon_activates_exactly_enabled(self):
        net = ring(10)
        sim = Simulator(
            build_protocol("mis", net), net,
            scheduler=SynchronousScheduler(enabled_only=True), seed=3,
        )
        for _ in range(20):
            expected = frozenset(brute_force_enabled(sim)) or frozenset(
                net.processes
            )
            record = sim.step()
            assert record.activated == expected

    def test_empty_enabled_pool_falls_back_to_noop_steps(self):
        class OneShot(Protocol):
            """Toy: each process clears its flag once, then nothing."""

            name = "one-shot"

            def variables(self, network, p):
                return (comm("x", BOOL),)

            def actions(self):
                return (
                    GuardedAction(
                        "clear",
                        lambda ctx: ctx.get("x"),
                        lambda ctx: ctx.set("x", False),
                    ),
                )

            def is_legitimate(self, network, config):
                return all(not config.get(p, "x") for p in network.processes)

        net = chain(5)
        sim = Simulator(
            OneShot(), net,
            scheduler=SynchronousScheduler(enabled_only=True), seed=0,
        )
        report = sim.run_until_silent(max_rounds=50)
        assert report.stabilized
        # Terminal configuration: the pool is empty, steps fall back to
        # all-process no-ops, and rounds keep closing.
        record = sim.step()
        assert record.activated == frozenset(net.processes)
        assert all(name is None for name in record.executed.values())
        assert sim.enabled_processes() == []


class TestStatefulSchedulerReuse:
    """Regression: engine simulators still reset reused schedulers."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_reused_round_robin_replays(self, engine):
        scheduler = RoundRobinScheduler()
        net = ring(6)
        results = []
        for _ in range(2):
            sim = Simulator(
                ColoringProtocol.for_network(net), net,
                scheduler=scheduler, seed=7, engine=engine,
            )
            results.append([sim.step() for _ in range(25)])
        assert results[0] == results[1]
        assert scheduler._next > 0

    def test_reuse_across_engines_is_equivalent(self):
        scheduler = RoundRobinScheduler(enabled_only=True)
        net = grid(3, 3)
        traces = []
        for engine in ALL_ENGINES:
            sim = Simulator(
                build_protocol("mis", net), net,
                scheduler=scheduler, seed=5, engine=engine,
            )
            traces.append([sim.step() for _ in range(40)])
        for i, engine in enumerate(ALL_ENGINES):
            assert traces[i] == traces[0], engine


class TestReadDeclarations:
    def test_default_reads_is_direct_neighborhood(self):
        net = grid(3, 3)
        proto = ColoringProtocol.for_network(net)
        for p in net.processes:
            assert sorted(map(repr, proto.reads(net, p))) == sorted(
                map(repr, net.neighbors(p))
            )

    def test_wider_read_radius_grows_the_ball(self):
        class TwoHop(ColoringProtocol):
            read_radius = 2

        net = chain(7)
        proto = TwoHop(palette_size=3)
        assert sorted(proto.reads(net, 3)) == [1, 2, 4, 5]
        assert sorted(proto.reads(net, 0)) == [1, 2]

    def test_incremental_respects_declared_radius(self):
        class TwoHop(ColoringProtocol):
            read_radius = 2

        net = ring(10)
        sim = Simulator(TwoHop.for_network(net), net,
                        scheduler=CentralScheduler(), seed=8, engine="debug")
        sim.run_steps(60)  # the audit raises if invalidation is too narrow
        assert sim.enabled_processes() == brute_force_enabled(sim)


class TestMakeEngine:
    def test_names_round_trip(self):
        # an alias builds its canonical engine, whose name round-trips
        for name in ENGINE_NAMES:
            engine = make_engine(name)
            assert type(make_engine(engine.name)) is type(engine)

    def test_batch_resident_is_an_alias_of_batch(self):
        assert type(make_engine("batch-resident")) is BatchEngine
        assert type(make_engine("batch")) is BatchEngine

    def test_instance_passthrough(self):
        engine = ScanEngine()
        assert make_engine(engine) is engine

    def test_engine_instances_are_single_run(self):
        # Rebinding would leave the first simulator querying the second
        # run's state; a second bind must fail loudly instead.
        engine = IncrementalEngine()
        net = ring(6)
        Simulator(ColoringProtocol.for_network(net), net, engine=engine)
        with pytest.raises(ValueError, match="already bound"):
            Simulator(ColoringProtocol.for_network(net), net, engine=engine)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("bogus")
