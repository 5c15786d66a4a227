"""Metrics tiers: one fold, step records on request, off is inert.

Every measuring step folds once (``record_lean`` on the scalar loop,
``BatchEngine.fold_aggregate`` on columns).  The differential tests
here feed the records ``step()`` returns under ``full`` through the
reference fold, ``MetricsCollector.record``, and require every
aggregate (totals, maxima, activation counts, whole-run and suffix
read-sets) to match the simulator's collector, across coloring/MIS/
matching × central/synchronous/random-subset × 5 seeds, on the scalar
and the batch engine, with and without NumPy.  The remaining tests pin
the tier plumbing: lean step records, record-free run drivers, the
suffix-stability guard, the trace-recorder guard, and spec/campaign
wiring.
"""

import sys

import pytest

from repro.api import (
    Campaign,
    ExperimentSpec,
    protocol_registry,
    scheduler_registry,
    topology_registry,
)
from repro.core import (
    METRICS_TIERS,
    FixedSequenceScheduler,
    LeanStepRecord,
    MetricsCollector,
    Simulator,
    StepRecord,
    TraceRecorder,
)
from repro.core.batchengine import BatchEngine
from repro.graphs import ring

PROTOCOLS = ("coloring", "mis", "matching")
SCHEDULERS = ("central", "synchronous", "random-subset")
SEEDS = (0, 1, 2, 3, 4)


def _build_sim(protocol, scheduler, seed, metrics, n=10,
               engine="incremental"):
    net = topology_registry.build("ring", n=n)
    proto = protocol_registry.build(protocol, net)
    sched = scheduler_registry.build(scheduler, net)
    return Simulator(proto, net, scheduler=sched, seed=seed, metrics=metrics,
                     engine=engine)


def _observables(source):
    """The collector's observables (``source``: a Simulator or a
    MetricsCollector)."""
    m = getattr(source, "metrics", source)
    return {
        "summary": m.summary(),
        "activations": dict(m.activations),
        "read_sets": {p: set(s) for p, s in m.read_sets.items()},
        "suffix": (
            None
            if m.suffix_read_sets is None
            else {p: set(s) for p, s in m.suffix_read_sets.items()}
        ),
        "suffix_start": m.suffix_start_step,
    }


class TestReferenceFold:
    """Both tiers fold through ``record_lean`` / ``fold_aggregate``;
    ``MetricsCollector.record`` stays the reference.  Feeding it the
    records ``step()`` returns under ``full`` must reproduce the
    simulator's own collector exactly."""

    ENGINES = ("incremental", "batch")

    @pytest.fixture(params=["numpy", "python"])
    def backend(self, request, monkeypatch):
        if request.param == "numpy":
            pytest.importorskip("numpy")
        else:
            monkeypatch.setitem(sys.modules, "numpy", None)
        return request.param

    @staticmethod
    def _check(sim, first, second):
        """Step ``first`` steps, arm the suffix, step ``second`` more;
        compare the simulator's folds with the reference fold."""
        reference = MetricsCollector(list(sim.network.processes))
        for _ in range(first):
            reference.record(sim.step())
        # Arm the suffix mid-run so the ♦-stability read-sets are
        # exercised on both folds.
        reference.start_suffix()
        sim.metrics.start_suffix()
        for _ in range(second):
            reference.record(sim.step())
        assert _observables(sim) == _observables(reference)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_step_records_refold_to_the_collector(self, protocol, scheduler,
                                                  engine, backend):
        for seed in SEEDS:
            sim = _build_sim(protocol, scheduler, seed, "full", engine=engine)
            if engine == "batch":
                assert sim.engine.backend_name == backend
            self._check(sim, 12, 12)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_duplicate_selection_folds_once(self, engine, backend):
        # A scripted scheduler may repeat a pid within one step; the
        # record dedups via frozenset/dict keys, and the folds must
        # agree with it.
        net = topology_registry.build("ring", n=5)
        proto = protocol_registry.build("mis", net)
        sched = FixedSequenceScheduler([[0, 0], [1, 1, 2]])
        sim = Simulator(proto, net, scheduler=sched, seed=2, metrics="full",
                        engine=engine)
        self._check(sim, 1, 1)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_drivers_build_no_record(self, engine, monkeypatch):
        import repro.core.simulator as simulator_module

        def refuse(*args, **kwargs):
            raise AssertionError("a run driver built a StepRecord")

        monkeypatch.setattr(simulator_module, "StepRecord", refuse)
        monkeypatch.setattr(BatchEngine, "make_step_record", refuse)
        for scheduler in SCHEDULERS:
            sim = _build_sim("mis", scheduler, 3, "full", engine=engine)
            sim.run_steps(3)
            sim.run_rounds(2)
            sim.run_until_legitimate()
            sim.run_until_silent()
            sim.measure_suffix_stability(extra_rounds=2)
            assert sim.metrics.steps == sim.step_index > 0


class TestSuffixStability:
    def test_measure_matches_across_tiers(self):
        suffixes = {}
        for tier in ("full", "aggregate"):
            sim = _build_sim("mis", "synchronous", 3, tier, n=12)
            sim.run_until_silent()
            suffixes[tier] = sim.measure_suffix_stability(extra_rounds=5)
        assert suffixes["full"] == suffixes["aggregate"]
        # MIS on a silent ring: members read nothing, dominated
        # processes keep reading their witnesses.
        assert sum(len(s) <= 1 for s in suffixes["full"].values()) == 6

    def test_off_tier_refuses_to_measure(self):
        # Under ``off`` no read set is ever folded: reporting the empty
        # sets would call every process ♦-1-stable.
        sim = _build_sim("mis", "synchronous", 3, "off", n=12)
        sim.run_until_silent()
        with pytest.raises(ValueError, match="metrics='off'"):
            sim.measure_suffix_stability(extra_rounds=5)


class TestTierPlumbing:
    def test_step_record_types_by_tier(self):
        full = _build_sim("coloring", "central", 1, "full")
        assert isinstance(full.step(), StepRecord)
        for tier in ("aggregate", "off"):
            sim = _build_sim("coloring", "central", 1, tier)
            record = sim.step()
            assert isinstance(record, LeanStepRecord)
            assert record.index == 0
            assert record.activated_count == 1

    def test_lean_closed_round_matches_full(self):
        closed = {}
        for tier in ("full", "aggregate"):
            sim = _build_sim("coloring", "synchronous", 2, tier)
            closed[tier] = [sim.step().closed_round for _ in range(6)]
        assert closed["full"] == closed["aggregate"]

    def test_off_tier_leaves_collector_untouched(self):
        sim = _build_sim("coloring", "synchronous", 1, "off")
        report = sim.run_until_silent()
        assert sim.metrics.steps == 0
        assert sim.metrics.total_bits == 0.0
        assert sim.metrics.summary()["k_efficiency"] == 0
        # Step and round counting live on the simulator, not the collector.
        assert report.steps == sim.step_index > 0
        assert report.rounds > 0 and report.silent

    def test_off_tier_runs_replay_identically(self):
        configs = {}
        for tier in ("full", "off"):
            sim = _build_sim("coloring", "synchronous", 9, tier)
            sim.run_steps(20)
            configs[tier] = sim.config
        assert configs["full"] == configs["off"]

    def test_unknown_tier_rejected(self):
        net = ring(4)
        proto = protocol_registry.build("coloring", net)
        with pytest.raises(ValueError, match="metrics tier"):
            Simulator(proto, net, metrics="everything")

    def test_trace_recorder_requires_full(self):
        sim = _build_sim("coloring", "central", 1, "aggregate")
        with pytest.raises(ValueError, match="metrics='full'"):
            TraceRecorder(sim)


class TestSpecAndCampaignWiring:
    def test_spec_round_trip_and_default(self):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8})
        assert spec.metrics == "full"
        tuned = spec.variant(metrics="aggregate")
        assert ExperimentSpec.from_json(tuned.to_json()) == tuned
        # Old payloads without the field still parse.
        payload = spec.to_dict()
        del payload["metrics"]
        assert ExperimentSpec.from_dict(payload).metrics == "full"

    def test_spec_validates_tier(self):
        with pytest.raises(ValueError, match="metrics tier"):
            ExperimentSpec(protocol="coloring", topology="ring",
                           metrics="sometimes")

    def test_key_semantics(self):
        spec = ExperimentSpec(protocol="coloring", topology="ring",
                              topology_params={"n": 8})
        # full and aggregate are result-equivalent: same resume key.
        assert spec.key() == spec.variant(metrics="aggregate").key()
        # off zeroes the measures: it must not be resumed as a stand-in.
        assert spec.key() != spec.variant(metrics="off").key()

    def test_spec_run_matches_across_tiers(self):
        spec = ExperimentSpec(protocol="mis", topology="ring",
                              topology_params={"n": 8}, seed=4)
        assert spec.run() == spec.variant(metrics="aggregate").run()

    def test_campaign_grid_propagates_tier(self):
        campaign = Campaign.grid(
            protocols=["coloring"],
            topologies=[("ring", {"n": 6})],
            seeds=range(2),
            metrics="aggregate",
        )
        assert all(s.metrics == "aggregate" for s in campaign.specs)
        assert METRICS_TIERS == ("full", "aggregate", "off")
