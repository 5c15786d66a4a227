"""Column-resident execution: byte-identity at observation boundaries.

The batch engine (``"batch"``, alias ``"batch-resident"``) keeps
writes columnar across steps —
rows decode only when something observes them (a trace record, a
direct configuration read, a metrics flush, a scenario effect, a
silence witness).  Observational invisibility is therefore the whole
contract: every suite here compares the resident engine against the
scalar oracles byte for byte *through* those observation boundaries —
traces, final configurations, aggregate folds, mid-run reads forcing
materialization, scenario corruption, churn store rebuilds, and the
NumPy-free backend.  A stale-read regression pins that the
materialization hook is load-bearing, not decorative.
"""

import sys

import pytest

from repro.api import (
    ExperimentSpec,
    protocol_registry,
    scheduler_registry,
    topology_registry,
)
from repro.core import (
    ModelError,
    Simulator,
    TraceRecorder,
)
from repro.core.batchengine import BatchEngine
from repro.core.exceptions import ConvergenceError
from repro.scenarios import build_scenario

PROTOCOLS = ("coloring", "mis", "matching")
#: synchronous daemon and maximal (greedy) daemon — the fused driver's
#: two target daemons; equivalence must hold for both.
SCHEDULERS = (
    ("synchronous", {}),
    ("synchronous", {"enabled_only": True}),
)
SEEDS = (0, 3, 7, 11, 19)
TOPOLOGY = ("gnp", {"n": 14, "p": 0.3, "seed": 2})


def build_sim(protocol, scheduler=("synchronous", {}), seed=0,
              engine="incremental", topology=TOPOLOGY, scenario=None,
              **kwargs):
    topo_name, topo_params = topology
    sched_name, sched_params = scheduler
    net = topology_registry.build(topo_name, **topo_params)
    return Simulator(
        protocol_registry.build(protocol, net),
        net,
        scheduler=scheduler_registry.build(sched_name, net, **sched_params),
        seed=seed,
        engine=engine,
        scenario=scenario,
        protocol_factory=lambda n: protocol_registry.build(protocol, n),
        **kwargs,
    )


def run_recorded(protocol, scheduler, seed, engine, steps=40, **kwargs):
    sim = build_sim(protocol, scheduler, seed, engine, **kwargs)
    recorder = TraceRecorder(sim, seed=seed)
    recorder.run_steps(steps)
    return recorder.trace.to_jsonl(), sim


def aggregate_state(sim):
    """Everything the aggregate tier observes, plus the configuration."""
    return (
        sim.metrics.summary(),
        dict(sim.metrics.activations),
        {p: frozenset(s) for p, s in sim.metrics.read_sets.items()},
        sim.config.as_dict(),
        sim.step_index,
        sim.round_tracker.completed_rounds,
    )


# ----------------------------------------------------------------------
# Per-step path: full-tier traces stay byte-identical
# ----------------------------------------------------------------------
class TestResidentTraceByteIdentity:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_resident_and_scalar_traces_are_byte_identical(
        self, protocol, scheduler, sched_params
    ):
        for seed in SEEDS:
            scalar, scalar_sim = run_recorded(
                protocol, (scheduler, sched_params), seed, "incremental"
            )
            resident, resident_sim = run_recorded(
                protocol, (scheduler, sched_params), seed, "batch-resident"
            )
            label = (protocol, scheduler, sched_params, seed)
            assert isinstance(resident_sim.engine, BatchEngine)
            assert resident_sim.engine.batch_active, label
            assert scalar == resident, label
            assert scalar_sim.config == resident_sim.config, label
            assert (scalar_sim.metrics.summary()
                    == resident_sim.metrics.summary()), label

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_resident_matches_batch_debug_audit(self, protocol):
        """The self-auditing cross-check engine is the strictest scalar
        oracle; the resident per-step path must match it too."""
        audited, audited_sim = run_recorded(
            protocol, ("synchronous", {"enabled_only": True}), 5,
            "batch-debug",
        )
        resident, _ = run_recorded(
            protocol, ("synchronous", {"enabled_only": True}), 5,
            "batch-resident",
        )
        assert audited_sim.engine.batch_active
        assert audited == resident


# ----------------------------------------------------------------------
# Fused driver: aggregate folds, silence, round budgets
# ----------------------------------------------------------------------
class TestFusedDriver:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_fused_steps_match_scalar_aggregates(self, protocol, scheduler,
                                                 sched_params):
        for seed in SEEDS:
            scalar = build_sim(protocol, (scheduler, sched_params),
                               seed=seed, metrics="aggregate")
            scalar.run_steps(60)
            resident = build_sim(protocol, (scheduler, sched_params),
                                 seed=seed, engine="batch-resident",
                                 metrics="aggregate")
            assert resident._fused_resident() is resident.engine
            resident.run_steps(60)
            label = (protocol, scheduler, sched_params, seed)
            assert aggregate_state(scalar) == aggregate_state(resident), label

    @pytest.mark.parametrize("engine",
                             ["batch", "batch-resident", "batch-debug"])
    def test_run_steps_actually_fuses(self, monkeypatch, engine):
        calls = []
        fused = BatchEngine.run_steps

        def spy(self, *args, **kwargs):
            calls.append(kwargs.get("max_steps"))
            return fused(self, *args, **kwargs)

        monkeypatch.setattr(BatchEngine, "run_steps", spy)
        sim = build_sim("coloring", engine=engine, metrics="aggregate")
        sim.run_steps(25)
        assert calls == [25]
        assert sim.step_index == 25

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_default_tier_spec_fuses(self, monkeypatch, protocol):
        calls = []
        fused = BatchEngine.run_steps

        def spy(self, *args, **kwargs):
            calls.append(kwargs.get("stop_on_silence"))
            return fused(self, *args, **kwargs)

        monkeypatch.setattr(BatchEngine, "run_steps", spy)
        spec = ExperimentSpec(
            protocol=protocol, topology=TOPOLOGY[0],
            topology_params=TOPOLOGY[1], scheduler="synchronous", seed=4,
            engine="batch",
        )
        assert spec.metrics == "full"
        fused_result = spec.run()
        assert calls == [True]
        assert fused_result == spec.variant(engine="scan").run()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_run_until_silent_reports_match(self, protocol, scheduler,
                                            sched_params):
        for seed in SEEDS:
            reports = []
            sims = []
            for engine in ("incremental", "batch-resident"):
                sim = build_sim(protocol, (scheduler, sched_params),
                                seed=seed, engine=engine,
                                metrics="aggregate")
                reports.append(sim.run_until_silent(max_rounds=500))
                sims.append(sim)
            label = (protocol, scheduler, sched_params, seed)
            assert reports[0] == reports[1], label
            assert sims[0].config == sims[1].config, label
            assert (sims[0].metrics.summary()
                    == sims[1].metrics.summary()), label

    def test_round_budget_is_respected(self):
        scalar = build_sim("coloring", seed=2, metrics="aggregate")
        resident = build_sim("coloring", seed=2, engine="batch-resident",
                             metrics="aggregate")
        with pytest.raises(ConvergenceError):
            scalar.run_until_silent(max_rounds=1)
        with pytest.raises(ConvergenceError):
            resident.run_until_silent(max_rounds=1)
        assert scalar.round_tracker.completed_rounds == 1
        assert resident.round_tracker.completed_rounds == 1
        assert scalar.config == resident.config


# ----------------------------------------------------------------------
# Observation boundaries: every decode point is byte-faithful
# ----------------------------------------------------------------------
class TestObservationBoundaries:
    def oracle_after(self, protocol, seed, steps):
        sim = build_sim(protocol, seed=seed, metrics="aggregate")
        sim.run_steps(steps)
        return sim

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_direct_config_read_materializes_mid_run(self, protocol):
        """``simulator.config[...]`` between fused spans is an
        observation boundary: the store is dirty going in, the read
        decodes through the hook, and every decoded value matches the
        scalar oracle."""
        resident = build_sim(protocol, seed=7, engine="batch-resident",
                             metrics="aggregate")
        resident.run_resident(steps=9)
        store = resident.engine._store
        assert store.dirty, "fused steps should leave columns ahead of rows"
        oracle = self.oracle_after(protocol, 7, 9)
        for p in resident.network.processes:
            for name in ("cur",):
                assert (resident.config.get(p, name)
                        == oracle.config.get(p, name)), (protocol, p)
        assert not store.dirty
        # the run continues correctly after the boundary
        resident.run_resident(steps=6)
        oracle.run_steps(6)
        assert resident.config.as_dict() == oracle.config.as_dict()

    def test_stale_read_regression_without_the_hook(self):
        """If materialization were skipped, direct reads would serve
        stale rows — this pins that the sync hook is what keeps the
        resident engine observationally invisible."""
        resident = build_sim("coloring", seed=7, engine="batch-resident",
                             metrics="aggregate")
        resident.run_resident(steps=9)
        assert resident.engine._store.dirty
        oracle = self.oracle_after("coloring", 7, 9)
        # Deliberately disconnect the hook: reads now bypass decoding.
        resident.config.install_sync(None)
        stale = [resident.config.get(p, "cur")
                 for p in resident.network.processes]
        fresh = [oracle.config.get(p, "cur")
                 for p in oracle.network.processes]
        assert stale != fresh, "stale rows should be observable bare"
        # Reconnected, the same reads decode to the oracle's values.
        resident.config.install_sync(resident.engine.materialize_rows)
        healed = [resident.config.get(p, "cur")
                  for p in resident.network.processes]
        assert healed == fresh

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_metrics_full_tier_mid_run(self, protocol):
        """Per-step records drive the resident engine step by step
        through ``step()``, byte-identical to the scalar engine."""
        scalar, scalar_sim = run_recorded(
            protocol, ("synchronous", {}), 11, "incremental", steps=25,
            metrics="full",
        )
        resident, resident_sim = run_recorded(
            protocol, ("synchronous", {}), 11, "batch-resident", steps=25,
            metrics="full",
        )
        assert scalar == resident
        assert (scalar_sim.metrics.summary()
                == resident_sim.metrics.summary())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_corruption_scenario_is_byte_identical(self, protocol):
        """A transient fault at a fixed round rewrites state through
        the Configuration mid-run; the resident store must materialize
        before the corruption reads and re-mirror after it writes."""
        scenario = {"fraction": 0.4, "at_round": 3}
        traces = []
        sims = []
        for engine in ("incremental", "batch-resident"):
            trace, sim = run_recorded(
                protocol, ("synchronous", {}), 13, engine, steps=45,
                scenario=build_scenario("single-fault", scenario),
            )
            traces.append(trace)
            sims.append(sim)
        assert traces[0] == traces[1], protocol
        assert sims[0].config == sims[1].config
        assert sims[0].metrics.faults_injected >= 1
        assert (sims[0].metrics.faults_injected
                == sims[1].metrics.faults_injected)

    @pytest.mark.parametrize("processes", [None, "first"])
    def test_invalidate_after_columnar_steps(self, processes):
        """Distrusting rows while the columns are ahead decodes the
        columns first, so the re-read loses no step."""
        resident = build_sim("coloring", seed=7, engine="batch",
                             metrics="aggregate")
        oracle = build_sim("coloring", seed=7, metrics="aggregate")
        resident.run_resident(steps=6)
        oracle.run_steps(6)
        assert resident.engine._store.dirty
        touched = (None if processes is None
                   else [resident.network.processes[0]])
        resident.invalidate_enabled(touched)
        assert resident.enabled_processes() == oracle.enabled_processes()
        resident.run_resident(steps=6)
        oracle.run_steps(6)
        assert resident.config.as_dict() == oracle.config.as_dict()

    def test_copy_is_a_detached_materialized_snapshot(self):
        resident = build_sim("coloring", seed=3, engine="batch-resident",
                             metrics="aggregate")
        resident.run_resident(steps=5)
        snapshot = resident.config.copy()
        oracle = self.oracle_after("coloring", 3, 5)
        assert snapshot.as_dict() == oracle.config.as_dict()
        # the snapshot is detached: later fused steps don't leak into it
        resident.run_resident(steps=5)
        assert snapshot.as_dict() == oracle.config.as_dict()


# ----------------------------------------------------------------------
# Store-level dirty/epoch protocol
# ----------------------------------------------------------------------
class TestDirtyEpochProtocol:
    def fused_store(self, steps=5):
        sim = build_sim("coloring", seed=1, engine="batch-resident",
                        metrics="aggregate")
        sim.run_resident(steps=steps)
        return sim, sim.engine._store

    def test_generation_stamps_advance_per_write(self):
        sim, store = self.fused_store(steps=5)
        cur_slot = store.slot("cur")
        # 'cur' rotates as one whole-column write per fused step
        assert store.generation[cur_slot] >= 5
        gen = list(store.generation)
        sim.run_resident(steps=1)
        assert store.generation[cur_slot] == gen[cur_slot] + 1

    def test_pull_refuses_while_dirty(self):
        _sim, store = self.fused_store()
        assert store.dirty
        with pytest.raises(ModelError, match="materialize"):
            store.pull_all()
        with pytest.raises(ModelError, match="materialize"):
            store.pull([0])
        store.materialize()
        assert not store.dirty
        store.pull_all()  # clean store pulls freely again

    def test_materialize_is_idempotent(self):
        _sim, store = self.fused_store()
        store.materialize()
        rows = [list(r) for r in store.rows]
        store.materialize()
        assert [list(r) for r in store.rows] == rows


# ----------------------------------------------------------------------
# Scenario churn: store rebuilds re-install the hook on the new config
# ----------------------------------------------------------------------
CHURN_PARAMS = {"period_rounds": 2, "fraction": 0.25, "min_n": 6}


class TestResidentChurnEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_churn_stays_in_lockstep_with_scalar(self, protocol):
        for seed in (0, 7):
            sims = [
                build_sim(protocol, ("synchronous", {}), seed=seed,
                          engine=engine,
                          topology=("gnp", {"n": 10, "p": 0.35, "seed": 4}),
                          scenario=build_scenario("churn", CHURN_PARAMS))
                for engine in ("incremental", "batch-resident")
            ]
            step = 0
            while sims[0].round_tracker.completed_rounds < 7 and step < 400:
                enabled = [sim.enabled_processes() for sim in sims]
                assert enabled[0] == enabled[1], (protocol, seed, step)
                records = [sim.step() for sim in sims]
                assert records[0] == records[1], (protocol, seed, step)
                step += 1
            assert sims[0].config == sims[1].config
            applied = [
                [(a.step, a.description) for a in sim.scenario_runtime.applied]
                for sim in sims
            ]
            assert applied[0] and applied[0] == applied[1]


# ----------------------------------------------------------------------
# Eligibility ladder: ineligible runs refuse or degrade, never diverge
# ----------------------------------------------------------------------
class TestEligibility:
    def test_run_resident_requires_resident_engine(self):
        sim = build_sim("coloring", metrics="aggregate")
        with pytest.raises(ConvergenceError, match="batch-resident"):
            sim.run_resident(steps=1)

    def test_run_resident_serves_the_full_tier(self):
        sims = {}
        for tier in ("full", "aggregate"):
            sims[tier] = build_sim("coloring", seed=5, engine="batch-resident",
                                   metrics=tier)
            sims[tier].run_resident(steps=17)
        full, aggregate = sims["full"], sims["aggregate"]
        assert full.config == aggregate.config
        assert full.metrics.summary() == aggregate.metrics.summary()
        assert full.step_index == aggregate.step_index == 17

    def test_run_resident_refuses_exotic_daemons(self):
        sim = build_sim("coloring", ("central", {"enabled_only": True}),
                        engine="batch-resident", metrics="aggregate")
        with pytest.raises(ConvergenceError, match="synchronous"):
            sim.run_resident(steps=1)

    def test_scenario_runs_take_the_per_step_path(self):
        sim = build_sim("coloring", engine="batch-resident",
                        metrics="aggregate",
                        scenario=build_scenario("noop", {}))
        assert sim._fused_resident() is None
        with pytest.raises(ConvergenceError, match="scenario-free"):
            sim.run_resident(steps=1)

    def test_kernel_less_protocol_falls_back(self):
        from repro.core.actions import GuardedAction
        from repro.core.protocol import Protocol
        from repro.core.variables import BOOL, comm

        class OneShot(Protocol):
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
                return all(
                    not config.get(p, "x") for p in network.processes
                )

        net = topology_registry.build("ring", n=6)
        sim = Simulator(OneShot(), net, seed=0, engine="batch-resident",
                        metrics="aggregate")
        assert isinstance(sim.engine, BatchEngine)
        assert not sim.engine.batch_active
        with pytest.raises(ConvergenceError):
            sim.run_resident(steps=1)
        report = sim.run_until_silent(max_rounds=50)
        assert report.stabilized

    def test_legacy_state_backend_falls_back(self):
        scalar, _ = run_recorded(
            "mis", ("synchronous", {}), 3, "incremental", state="legacy"
        )
        resident, resident_sim = run_recorded(
            "mis", ("synchronous", {}), 3, "batch-resident", state="legacy"
        )
        assert not resident_sim.engine.batch_active
        assert scalar == resident


# ----------------------------------------------------------------------
# NumPy-free backend
# ----------------------------------------------------------------------
class TestNoNumpy:
    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_python_backend_fused_runs_match(self, protocol, no_numpy):
        scalar = build_sim(protocol, seed=11, metrics="aggregate")
        scalar.run_steps(40)
        resident = build_sim(protocol, seed=11, engine="batch-resident",
                             metrics="aggregate")
        assert resident.engine.backend_name == "python"
        resident.run_steps(40)
        assert aggregate_state(scalar) == aggregate_state(resident), protocol

    def test_python_backend_traces_identical(self, no_numpy):
        scalar, _ = run_recorded(
            "coloring", ("synchronous", {}), 11, "incremental"
        )
        resident, resident_sim = run_recorded(
            "coloring", ("synchronous", {}), 11, "batch-resident"
        )
        assert resident_sim.engine.batch_active
        assert scalar == resident
