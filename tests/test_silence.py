"""Unit tests for the sound silence (quiescence) checker."""

import random

import pytest

import repro.api.spec
from repro.api import ExperimentSpec
from repro.api.registry import protocol_registry
from repro.core import Configuration, Simulator, is_silent, silence_witness
from repro.core.context import StepContextPool
from repro.core.scheduler import CentralScheduler, SynchronousScheduler
from repro.core.silence import process_quiescence_witness
from repro.core.trace import TraceRecorder
from repro.graphs import (
    chain,
    greedy_coloring,
    grid,
    random_connected,
    relabel_ports_randomly,
    ring,
)
from repro.protocols import ColoringProtocol, MISProtocol


def coloring_config(colors):
    return Configuration(
        {p: {"C": c, "cur": 1} for p, c in colors.items()}
    )


class TestColoringSilence:
    def test_proper_coloring_is_silent(self):
        net = chain(4)
        proto = ColoringProtocol.for_network(net)
        config = coloring_config({0: 1, 1: 2, 2: 1, 3: 2})
        assert is_silent(proto, net, config)

    def test_conflict_is_not_silent(self):
        net = chain(4)
        proto = ColoringProtocol.for_network(net)
        config = coloring_config({0: 1, 1: 1, 2: 2, 3: 1})
        assert not is_silent(proto, net, config)

    def test_witness_identifies_randomized_rewrite(self):
        net = chain(3)
        proto = ColoringProtocol.for_network(net)
        config = coloring_config({0: 2, 1: 2, 2: 1})
        witness = silence_witness(proto, net, config)
        assert witness is not None
        assert witness.variable == "C"
        assert witness.randomized

    def test_hidden_conflict_found_through_pointer_walk(self):
        """A conflict the *current* pointer does not see must still
        break silence: the walk explores all reachable pointer values."""
        net = ring(4)
        proto = ColoringProtocol.for_network(net)
        # Process 0 conflicts with neighbor 1, but its cur points at 3.
        config = Configuration(
            {
                0: {"C": 1, "cur": net.port_to(0, 3)},
                1: {"C": 1, "cur": net.port_to(1, 2)},
                2: {"C": 2, "cur": 1},
                3: {"C": 3, "cur": 1},
            }
        )
        assert not is_silent(proto, net, config)

    def test_per_process_witness(self):
        net = chain(3)
        proto = ColoringProtocol.for_network(net)
        config = coloring_config({0: 1, 1: 1, 2: 2})
        assert process_quiescence_witness(proto, net, config, 0) is not None
        assert process_quiescence_witness(proto, net, config, 2) is None


class TestMISSilence:
    def _setup(self):
        net = chain(3)
        colors = greedy_coloring(net)
        return net, colors, MISProtocol(net, colors)

    def test_legitimate_with_good_pointers_is_silent(self):
        net, colors, proto = self._setup()
        # Middle is the greedy Dominator when it has the smallest color.
        dominator = min(net.processes, key=lambda p: (colors[p], p != 1))
        # Build: node 1 Dominator, ends dominated pointing at it.
        config = Configuration(
            {
                0: {"S": "dominated" if 1 != 0 else "Dominator", "C": colors[0], "cur": 1},
                1: {"S": "Dominator", "C": colors[1], "cur": 1},
                2: {"S": "dominated", "C": colors[2], "cur": 1},
            }
        )
        if colors[1] < colors[0] and colors[1] < colors[2]:
            assert is_silent(proto, net, config)

    def test_legitimate_but_not_silent(self):
        """An MIS whose dominated members lack smaller-color Dominator
        neighbors is legitimate yet NOT a communication fixed point —
        silence and legitimacy genuinely differ."""
        net = chain(3)
        colors = {0: 2, 1: 1, 2: 2}
        proto = MISProtocol(net, colors)
        # Ends are Dominators (color 2), middle dominated (color 1):
        # a valid MIS, but the middle's claim rule can fire (C.1 ≺ C.0).
        config = Configuration(
            {
                0: {"S": "Dominator", "C": 2, "cur": 1},
                1: {"S": "dominated", "C": 1, "cur": 1},
                2: {"S": "Dominator", "C": 2, "cur": 1},
            }
        )
        assert proto.is_legitimate(net, config)
        assert not is_silent(proto, net, config)

    def test_two_adjacent_dominators_not_silent(self):
        net = chain(3)
        colors = {0: 1, 1: 2, 2: 1}
        proto = MISProtocol(net, colors)
        config = Configuration(
            {
                0: {"S": "Dominator", "C": 1, "cur": 1},
                1: {"S": "Dominator", "C": 2, "cur": 1},
                2: {"S": "dominated", "C": 1, "cur": 1},
            }
        )
        witness = silence_witness(proto, net, config)
        assert witness is not None
        assert witness.process == 1  # the larger color must yield
        assert not witness.randomized


class TestSilenceAfterConvergence:
    def test_simulator_silent_state_passes_checker(self, small_network):
        from repro.core import Simulator

        proto = ColoringProtocol.for_network(small_network)
        sim = Simulator(proto, small_network, seed=5)
        sim.run_until_silent(max_rounds=5000)
        assert is_silent(proto, small_network, sim.config)
        assert proto.is_legitimate(small_network, sim.config)


PROTOCOLS = ("coloring", "mis", "matching")
TOPOLOGIES = (
    lambda: ring(9),
    lambda: grid(3, 4),
    lambda: random_connected(12, 0.35, seed=4),
    lambda: relabel_ports_randomly(
        random_connected(10, 0.5, seed=9), random.Random(1)
    ),
)


class TestLinearWalk:
    """One check walks every process without copying γ, and leaves the
    checked configuration exactly as it found it."""

    @pytest.fixture
    def copies(self, monkeypatch):
        calls = []
        original = Configuration.copy

        def spy(config):
            calls.append(config)
            return original(config)

        monkeypatch.setattr(Configuration, "copy", spy)
        return calls

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("n", [6, 24, 96])
    def test_at_most_one_copy_per_check(self, copies, protocol, n):
        """A silent γ makes every process walk its whole pointer cycle —
        the worst case — yet the check copies γ at most once."""
        net = ring(n)
        sim = Simulator(protocol_registry.build(protocol, net), net, seed=n)
        sim.run_until_silent(max_rounds=100_000)
        for check in (
            lambda: is_silent(sim.protocol, net, sim.config),
            lambda: silence_witness(sim.protocol, net, sim.config),
            sim.is_silent,
        ):
            del copies[:]
            check()
            assert len(copies) <= 1

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("make_net", TOPOLOGIES)
    def test_walk_leaves_config_untouched(self, protocol, make_net):
        net = make_net()
        proto = protocol_registry.build(protocol, net)
        for seed in range(5):
            config = proto.arbitrary_configuration(net, random.Random(seed))
            snapshot = config.copy()
            silence_witness(proto, net, config)
            assert config == snapshot

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_resident_config_keeps_its_sync_hook(self, protocol):
        net = ring(12)
        sim = Simulator(protocol_registry.build(protocol, net), net,
                        scheduler=SynchronousScheduler(), seed=2,
                        engine="batch", metrics="aggregate")
        sim.run_resident(steps=3)
        snapshot = sim.config.copy()
        silence_witness(sim.protocol, net, sim.config)
        sim.is_silent()
        assert sim.config == snapshot
        # Columns run ahead again; a plain read must still decode them.
        steps, _silent = sim.run_resident(steps=2)
        assert steps == 2 and sim.engine._store.dirty
        sim.config.get(next(iter(net.processes)), "cur")
        assert not sim.engine._store.dirty

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("make_net", TOPOLOGIES)
    def test_witness_is_first_per_process_witness(self, protocol, make_net):
        """The shared walk returns exactly the witness of the first
        non-quiescent process in network order, rule for rule and value
        for value."""
        net = make_net()
        proto = protocol_registry.build(protocol, net)
        for seed in range(8):
            config = proto.arbitrary_configuration(net, random.Random(seed))
            expected = next(
                (w for w in (process_quiescence_witness(proto, net, config, p)
                             for p in net.processes) if w is not None),
                None,
            )
            assert silence_witness(proto, net, config) == expected


class TestPooledWalks:
    """Walks on the run's own context pool give the same witnesses as a
    throwaway pool, write nothing into γ, and leave the run they
    interleave with untouched."""

    PROTOCOLS = ("coloring", "mis", "matching", "mis-full",
                 "window-coloring", "window-mis")

    @staticmethod
    def perturbed_silent(proto, net, seed):
        """A silent configuration with one process's writable
        variables overwritten by arbitrary values."""
        sim = Simulator(proto, net, seed=seed)
        sim.run_until_silent(max_rounds=100_000)
        config = sim.config.copy()
        rng = random.Random(seed)
        noise = proto.arbitrary_configuration(net, rng)
        victim = rng.choice(list(net.processes))
        for spec in sim.specs_of[victim]:
            if spec.writable:
                config.set(victim, spec.name, noise.get(victim, spec.name))
        return config

    @pytest.mark.parametrize("state,engine", [
        ("flat", "incremental"), ("flat", "batch"), ("legacy", "incremental"),
    ])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_run_pool_walk_equals_fresh_walk(self, protocol, state, engine):
        net = random_connected(12, 0.35, seed=4)
        proto = protocol_registry.build(protocol, net)
        for seed in range(4):
            for config in (
                proto.arbitrary_configuration(net, random.Random(seed)),
                self.perturbed_silent(proto, net, seed),
            ):
                sim = Simulator(proto, net, scheduler=CentralScheduler(),
                                seed=seed, config=config, state=state,
                                engine=engine)
                # Legacy runs hold no pool; give the walks a long-lived
                # one so the pooled path runs on that backend too.
                pool = sim._ctx_pool or StepContextPool(
                    net, sim.config, sim.specs_of)
                for _ in range(25):
                    # The run's own walk goes first: a batch step leaves
                    # column writes pending, and a fresh pool's first
                    # row access would decode them.
                    pooled = sim.silence_witness()
                    fresh = silence_witness(proto, net, sim.config)
                    assert pooled == fresh
                    assert silence_witness(proto, net, sim.config,
                                           sim.specs_of, pool) == fresh
                    sim.step()

    @pytest.fixture
    def config_writes(self, monkeypatch):
        calls = []
        for name in ("copy", "set"):
            original = getattr(Configuration, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(Configuration, name, spy)
        return calls

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("n", [6, 24])
    def test_checks_neither_copy_nor_set(self, config_writes, protocol, n):
        """Every check of a run, silent or not, copies and writes γ
        zero times."""
        net = ring(n)
        sim = Simulator(protocol_registry.build(protocol, net), net, seed=n)
        verdicts = []
        closed = True  # γ0 is checked too
        while not verdicts or not verdicts[-1]:
            if closed:
                del config_writes[:]
                verdicts.append(sim.is_silent())
                sim.silence_witness()
                assert config_writes == []
            closed = sim.step(_record=False)
        assert False in verdicts

    @pytest.mark.parametrize("engine,state", [
        ("incremental", "flat"), ("scan", "flat"), ("batch", "flat"),
        ("incremental", "legacy"),
    ])
    @pytest.mark.parametrize("protocol", ["coloring", "mis", "matching"])
    def test_checks_between_steps_leave_run_unchanged(
            self, monkeypatch, protocol, engine, state):
        """A check after every step (central daemon, so a batch engine
        runs its per-step path) leaves the JSONL trace byte for byte
        and the trial's result field for field as they were."""
        monkeypatch.setattr(
            repro.api.spec, "Simulator",
            lambda *args, **kw: Simulator(*args, state=state, **kw))

        def trace():
            net = ring(10)
            sim = Simulator(protocol_registry.build(protocol, net), net,
                            scheduler=CentralScheduler(), seed=5,
                            engine=engine, state=state)
            return TraceRecorder(sim).run_steps(80).to_jsonl()

        def trial():
            return ExperimentSpec(
                protocol=protocol, topology="ring",
                topology_params={"n": 10}, scheduler="central", seed=5,
                engine=engine,
            ).run()

        plain = trace(), trial()
        step = Simulator.step

        def checked_step(sim, **kw):
            out = step(sim, **kw)
            sim.is_silent()
            return out

        monkeypatch.setattr(Simulator, "step", checked_step)
        assert (trace(), trial()) == plain
