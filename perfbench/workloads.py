"""The benchmark's spec generator: paper trials derived from a workload seed.

Each workload is an endless-looking but capped stream of
:class:`~repro.api.ExperimentSpec` batches ("passes").  One pass is one
:class:`~repro.api.Campaign`: a balanced set of protocol x topology x
daemon cells, so any whole number of passes has the same mix.  Pass
``j`` of a workload at seed ``s`` is a pure function of ``(s, j)``: the
same seed always gives the same specs, and every random topology gets an
explicit ``seed`` in its ``topology_params`` (``ExperimentSpec.seed``
never reaches the topology builder, so without it two runs would compare
different graphs).

The program under test only ever receives the generated specs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: Seed whose rows are checked field by field against the stored
#: scan-engine reference (``perfbench/reference/``).
DEFAULT_SEED = 0

#: Topology builders that draw random graphs; each needs an explicit seed.
RANDOM_TOPOLOGIES = frozenset({"gnp", "sparse", "regular", "tree"})

PAPER_PROTOCOLS = ("coloring", "mis", "matching")
FULL_READ_PROTOCOLS = ("coloring-full", "mis-full", "matching-full")


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed derived from the workload seed and a label path.

    Hash-based, so it is stable across Python versions and processes.
    """
    text = ":".join(str(p) for p in (seed,) + parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) & 0x7FFFFFFF


@dataclass(frozen=True)
class Workload:
    """A named spec stream: ``pass_specs(seed, j)`` builds pass ``j``."""

    name: str
    #: specs in one pass (one campaign)
    pass_size: int
    #: passes a run may take at most; the reference covers all of them
    max_passes: int
    #: trials per nominal second a run is sized for: a run of
    #: ``--seconds S`` takes ``S * nominal_rate`` trials in whole passes.
    #: Close to the rate measured when the benchmark was written (2-core
    #: x86-64 container, Python 3.11), except ``central-steps``, sized
    #: above its 7.7 trials/s because its trial times spread most
    nominal_rate: float
    #: ``(seed, pass_index) -> [(protocol, topology, topology_params,
    #: scheduler, scheduler_params, spec_kwargs)]`` before seeding
    cells: Callable[[int, int], List[Tuple]]

    def pass_specs(self, seed: int, index: int):
        """The specs of pass ``index`` (0-based) at workload seed ``seed``."""
        from repro.api import ExperimentSpec

        if not 0 <= index < self.max_passes:
            raise ValueError(
                f"{self.name}: pass {index} outside 0..{self.max_passes - 1}")
        specs = []
        for i, (protocol, topology, topo_params, scheduler, sched_params,
                extra) in enumerate(self.cells(seed, index)):
            topo_params = dict(topo_params)
            if topology in RANDOM_TOPOLOGIES:
                topo_params["seed"] = derive_seed(
                    seed, self.name, index, i, "topology")
            specs.append(ExperimentSpec(
                protocol=protocol,
                topology=topology,
                topology_params=topo_params,
                scheduler=scheduler,
                scheduler_params=sched_params,
                seed=derive_seed(seed, self.name, index, i, "trial"),
                **extra,
            ))
        check_seeded(specs)
        if len(specs) != self.pass_size:
            raise ValueError(
                f"{self.name}: pass has {len(specs)} specs, "
                f"expected {self.pass_size}")
        return specs


def check_seeded(specs) -> None:
    """Refuse any spec whose random topology would draw an unseeded graph."""
    for spec in specs:
        if (spec.topology in RANDOM_TOPOLOGIES
                and spec.topology_params.get("seed") is None):
            raise ValueError(f"unseeded random topology in {spec.key()}")


def _sync_silence(seed: int, index: int):
    cells = []
    for _rep in range(2):
        for protocol in PAPER_PROTOCOLS:
            for topology, params in (("sparse", {"n": 500}),
                                     ("torus", {"rows": 20, "cols": 25})):
                cells.append((protocol, topology, params, "synchronous", {},
                              {"engine": "batch-resident",
                               "metrics": "aggregate"}))
    return cells


def _central_steps(seed: int, index: int):
    cells = []
    for enabled_only in (False, True):
        for protocol in PAPER_PROTOCOLS:
            for topology, params in (("sparse", {"n": 250}),
                                     ("torus", {"rows": 16, "cols": 16})):
                cells.append((protocol, topology, params, "central",
                              {"enabled_only": enabled_only}, {}))
    return cells


def _paper_campaign(seed: int, index: int):
    cells = []
    for protocol in PAPER_PROTOCOLS + FULL_READ_PROTOCOLS:
        for topology, params in (("ring", {"n": 32}),
                                 ("grid", {"rows": 6, "cols": 6}),
                                 ("gnp", {"n": 40, "p": 0.15})):
            for scheduler in ("synchronous", "central", "random-subset"):
                cells.append((protocol, topology, params, scheduler, {}, {}))
    return cells


#: Why each workload was chosen: ``perfbench/README.md`` and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="sync-silence",
        pass_size=12,
        max_passes=40,
        nominal_rate=8.0,
        cells=_sync_silence,
    ),
    Workload(
        name="central-steps",
        pass_size=12,
        max_passes=40,
        nominal_rate=9.6,
        cells=_central_steps,
    ),
    Workload(
        name="paper-campaign",
        pass_size=54,
        max_passes=60,
        nominal_rate=65.0,
        cells=_paper_campaign,
    ),
)}
