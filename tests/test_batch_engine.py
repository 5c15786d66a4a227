"""Batch (columnar) engine: byte-identity with the scalar step loop.

The batch engine evaluates guards over whole columns and keeps γi+1 in
them, decoding into the shared :class:`~repro.core.state.Configuration`
whenever something observes it, so it must be *observationally
invisible*: byte-identical JSONL traces, equal final configurations,
equal metrics (both tiers), and equal per-step enabled sets — including
under scenario churn that rebuilds the column store mid-run.  The
suite also pins the fallback ladder (kernel-less protocols, legacy
state, duplicate-pid selections, NumPy absent) and the self-auditing
``batch-debug`` engine.
"""

import sys

import pytest

from repro.api import (
    protocol_registry,
    scheduler_registry,
    topology_registry,
)
from repro.core import (
    BatchCrossCheckEngine,
    BatchEngine,
    ModelError,
    Simulator,
    TraceRecorder,
)
from repro.core.actions import GuardedAction
from repro.core.batchengine import BATCH_KERNELS
from repro.core.protocol import Protocol
from repro.core.scheduler import FixedSequenceScheduler
from repro.core.variables import BOOL, comm
from repro.protocols import ColoringProtocol
from repro.scenarios import build_scenario

PROTOCOLS = ("coloring", "mis", "matching")
#: synchronous daemon and maximal (greedy) daemon — the two the batch
#: path is designed for; the equivalence must hold for any daemon.
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


class TestTraceByteIdentity:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_batch_and_scalar_traces_are_byte_identical(
        self, protocol, scheduler, sched_params
    ):
        for seed in SEEDS:
            scalar, scalar_sim = run_recorded(
                protocol, (scheduler, sched_params), seed, "incremental"
            )
            batch, batch_sim = run_recorded(
                protocol, (scheduler, sched_params), seed, "batch"
            )
            label = (protocol, scheduler, sched_params, seed)
            assert batch_sim.engine.batch_active, label
            assert scalar == batch, label
            assert scalar_sim.config == batch_sim.config, label
            assert (scalar_sim.metrics.summary()
                    == batch_sim.metrics.summary()), label
            assert (scalar_sim.metrics.activations
                    == batch_sim.metrics.activations), label
            assert (scalar_sim.metrics.read_sets
                    == batch_sim.metrics.read_sets), label

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_aggregate_tier_folds_agree(self, protocol):
        for scheduler in SCHEDULERS:
            summaries = []
            for engine in ("incremental", "batch"):
                sim = build_sim(protocol, scheduler, seed=5, engine=engine,
                                metrics="aggregate")
                sim.run_steps(60)
                summaries.append(
                    (sim.metrics.summary(), dict(sim.metrics.activations),
                     {p: frozenset(s)
                      for p, s in sim.metrics.read_sets.items()})
                )
            assert summaries[0] == summaries[1], (protocol, scheduler)

    def test_duplicate_pid_selection_takes_the_scalar_path(self):
        """Scripted daemons may activate a pid twice in one step; the
        batch step folds each process once, so such steps must divert
        to the scalar loop — and stay trace-identical doing so."""
        net = topology_registry.build("ring", n=8)
        p0, p1 = net.processes[0], net.processes[1]
        script = [[p0, p0, p1], [p1, p1]]
        traces = []
        for engine in ("incremental", "batch"):
            net = topology_registry.build("ring", n=8)
            sim = Simulator(
                protocol_registry.build("coloring", net), net,
                scheduler=FixedSequenceScheduler(script), seed=4,
                engine=engine,
            )
            recorder = TraceRecorder(sim, seed=4)
            recorder.run_steps(10)
            traces.append(recorder.trace.to_jsonl())
        assert traces[0] == traces[1]


# ----------------------------------------------------------------------
# Per-step enabled sets under scenario churn (store rebuilds mid-run)
# ----------------------------------------------------------------------
CHURN_PARAMS = {"period_rounds": 2, "fraction": 0.25, "min_n": 6}


class TestScenarioChurnEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("scheduler,sched_params", SCHEDULERS)
    def test_churn_enabled_sets_match_scalar(self, protocol, scheduler,
                                             sched_params):
        for seed in (0, 7):
            sims = [
                build_sim(protocol, (scheduler, sched_params), seed=seed,
                          engine=engine,
                          topology=("gnp", {"n": 10, "p": 0.35, "seed": 4}),
                          scenario=build_scenario("churn", CHURN_PARAMS))
                for engine in ("incremental", "batch")
            ]
            step = 0
            while sims[0].round_tracker.completed_rounds < 7 and step < 400:
                enabled = [sim.enabled_processes() for sim in sims]
                assert enabled[0] == enabled[1], (protocol, scheduler,
                                                  seed, step)
                records = [sim.step() for sim in sims]
                assert records[0] == records[1], (protocol, scheduler,
                                                  seed, step)
                step += 1
            assert sims[0].config == sims[1].config
            applied = [
                [(a.step, a.description) for a in sim.scenario_runtime.applied]
                for sim in sims
            ]
            assert applied[0] and applied[0] == applied[1]


# ----------------------------------------------------------------------
# Fallback ladder: the batch engine must degrade, never diverge
# ----------------------------------------------------------------------
class OneShot(Protocol):
    """Toy protocol with no registered batch kernel."""

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


class TestFallback:
    def test_kernel_less_protocol_falls_back_transparently(self):
        net = topology_registry.build("ring", n=6)
        sim = Simulator(OneShot(), net, seed=0, engine="batch")
        assert isinstance(sim.engine, BatchEngine)
        assert not sim.engine.batch_active
        report = sim.run_until_silent(max_rounds=50)
        assert report.stabilized

    def test_legacy_state_backend_falls_back(self):
        scalar, _ = run_recorded(
            "mis", ("synchronous", {}), 3, "incremental", state="legacy"
        )
        batch, batch_sim = run_recorded(
            "mis", ("synchronous", {}), 3, "batch", state="legacy"
        )
        assert not batch_sim.engine.batch_active
        assert scalar == batch

    def test_fallback_classify_all_refuses(self):
        net = topology_registry.build("ring", n=6)
        sim = Simulator(OneShot(), net, seed=0, engine="batch")
        with pytest.raises(ModelError, match="active batch kernel"):
            sim.engine.classify_all()


class TestNoNumpy:
    """The ``array``-module backend must be trace-identical: the CI
    lanes without NumPy exercise it organically, this pins it."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_python_backend_traces_identical(self, protocol, no_numpy):
        for scheduler in SCHEDULERS:
            scalar, _ = run_recorded(protocol, scheduler, 11, "incremental")
            batch, batch_sim = run_recorded(protocol, scheduler, 11, "batch")
            assert batch_sim.engine.batch_active
            assert batch_sim.engine.backend_name == "python"
            assert scalar == batch, (protocol, scheduler)

    def test_numpy_backend_used_when_importable(self):
        pytest.importorskip("numpy")
        sim = build_sim("coloring", engine="batch")
        assert sim.engine.backend_name == "numpy"


class TestBatchCrossCheck:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_clean_run_passes_audit(self, protocol):
        sim = build_sim(protocol, ("synchronous", {"enabled_only": True}),
                        seed=5, engine="batch-debug")
        assert isinstance(sim.engine, BatchCrossCheckEngine)
        sim.run_steps(40)
        sim.enabled_processes()  # the audited enabled-set query

    def test_out_of_band_mutation_is_caught(self):
        from repro.predicates.mis import DOMINATED, DOMINATOR

        sim = build_sim("mis", seed=0, engine="batch-debug")
        sim.run_steps(5)
        sim.enabled_processes()
        # Flip comm state behind the engine's back until the stale
        # columns diverge from a fresh scan; the audit must refuse.
        with pytest.raises(ModelError):
            for p in sim.network.processes:
                current = sim.config.get(p, "S")
                sim.config.set(
                    p, "S",
                    DOMINATED if current == DOMINATOR else DOMINATOR,
                )
                sim.engine.note_step([], [])
                sim.enabled_processes()
            pytest.skip("no divergence found (all flips status-neutral)")

    @pytest.mark.parametrize("block_numpy", [False, True],
                             ids=["numpy", "python"])
    def test_audit_is_never_bypassed(self, monkeypatch, block_numpy):
        """A kernel that misclassifies one process is caught on the run
        that can fuse: synchronous daemon, aggregate tier."""
        if block_numpy:
            monkeypatch.setitem(sys.modules, "numpy", None)
        else:
            pytest.importorskip("numpy")
        kernel_cls = BATCH_KERNELS[ColoringProtocol]
        classify = kernel_cls.classify

        def flip_one(self, idx):
            codes, ports, bits, aux = classify(self, idx)
            flipped = self.store.ops.tolist(codes)
            flipped[0] = -1 if flipped[0] >= 0 else 0
            return self.store.ops.int_col(flipped), ports, bits, aux

        monkeypatch.setattr(kernel_cls, "classify", flip_one)
        sim = build_sim("coloring", seed=3, engine="batch-debug",
                        metrics="aggregate")
        assert sim.engine.backend_name == (
            "python" if block_numpy else "numpy")
        with pytest.raises(ModelError, match="diverged"):
            sim.run_until_silent(max_rounds=50)

    def test_fused_silence_verdicts_are_audited(self, monkeypatch):
        """A columnar silence check that disagrees with the exact one
        is caught too: the fused driver decides silence through it."""
        kernel_cls = BATCH_KERNELS[ColoringProtocol]
        monkeypatch.setattr(kernel_cls, "silent_cols", lambda self: True)
        sim = build_sim("coloring", seed=3, engine="batch-debug",
                        metrics="aggregate")
        with pytest.raises(ModelError, match="silence verdict"):
            sim.run_until_silent(max_rounds=50)
