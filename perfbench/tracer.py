"""Layer spans recorded around calls into the program's public functions.

The tracer wraps methods of the program's classes (``install``) and
restores them afterwards (``uninstall``); nothing inside ``src/`` is
edited.  Every wrapped call records one span: its name, start, end,
parent span and the trial it ran in.  Spans live in flat in-memory
arrays while the run is measured and are written out once, at the end.

Self time is a span's duration minus the time its child spans cover, so
the self times of all spans add up to the duration of the root spans,
and ``trial.unattributed_share`` is the part of trial wall time no
layer accounts for.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from time import perf_counter
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)


def _subclasses(cls) -> List[type]:
    """``cls`` and every subclass below it, each once."""
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def _defining(classes: Iterable[type], attr: str) -> List[type]:
    """The classes among ``classes`` whose own body defines ``attr``."""
    return [c for c in classes if attr in vars(c)]


def layer_targets() -> List[Tuple[str, type, str, Optional[Callable]]]:
    """``(span name, class, method, value-of-result)`` for every layer.

    The value function turns a call's result into the number a count
    metric adds up (activations selected, fused steps run, silence
    verdicts); ``None`` records 0.
    """
    from repro.api.spec import ExperimentSpec
    from repro.core.batchengine import BATCH_KERNELS, BatchEngine
    from repro.core.engine import EnabledSetEngine
    from repro.core.metrics import MetricsCollector
    from repro.core.protocol import Protocol
    from repro.core.scheduler import Scheduler
    from repro.core.simulator import Simulator
    from repro.results.sinks import SqliteSink

    engines = _subclasses(EnabledSetEngine)
    targets = [
        ("graphs.build", ExperimentSpec, "build_network", None),
        ("protocols.build", ExperimentSpec, "build_protocol", None),
        ("api.spec.key", ExperimentSpec, "key", None),
        ("protocols.arbitrary", Protocol, "arbitrary_configuration", None),
        ("core.simulator.init", Simulator, "__init__", None),
        ("core.simulator.step", Simulator, "step", None),
        ("protocols.legitimate", Simulator, "is_legitimate", None),
        ("core.silence.check", Simulator, "is_silent", bool),
        ("core.batchengine.run_steps", BatchEngine, "run_steps",
         lambda result: result[0]),
        ("core.batchengine.execute_step", BatchEngine, "execute_step", None),
        ("core.metrics.fold", MetricsCollector, "record", None),
        ("core.metrics.fold", MetricsCollector, "record_lean", None),
        ("core.metrics.fold", BatchEngine, "fold_aggregate", None),
        ("core.metrics.fold", BatchEngine, "flush_pending_metrics", None),
        ("core.metrics.assemble", MetricsCollector, "trial_measures", None),
        ("results.sink.open", SqliteSink, "__init__", None),
        ("results.sink.completed", SqliteSink, "completed", None),
        ("results.sink.write", SqliteSink, "write", None),
        ("results.sink.close", SqliteSink, "close", None),
    ]
    for cls in _defining(engines, "bind"):
        targets.append(("core.engine.bind", cls, "bind", None))
    for cls in _defining(engines, "note_step"):
        targets.append(("core.engine.note_step", cls, "note_step", None))
    for cls in _defining(_subclasses(Scheduler), "select"):
        targets.append(("core.scheduler.select", cls, "select", len))
    kernels = dict.fromkeys(BATCH_KERNELS.values())
    for cls in _defining(kernels, "silent_cols"):
        targets.append(("core.silence.cols_check", cls, "silent_cols", bool))
    return targets


class Tracer:
    """In-memory span recorder plus the method patches that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trial = array("l")
        self.value = array("d")
        self._stack: List[int] = []
        #: trial the next span belongs to (-1: outside every trial)
        self.trial_id = -1
        #: id the next pass's first trial gets
        self.next_trial = 0
        self._patches: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable,
             value_of: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        name_id = self._name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, trials, values = self.parent, self.trial, self.value
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            trials.append(tracer.trial_id)
            values.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if value_of is not None:
                values[i] = value_of(result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Patch every layer method (see :func:`layer_targets`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, cls, attr, value_of in layer_targets():
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, value_of))

    def uninstall(self) -> None:
        """Restore every patched method, last patch first."""
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def layer_totals(self, scale: Sequence[float]) -> Dict[str, Dict[str, float]]:
        """Per span name, over spans inside trials: self time (times
        ``scale[trial]``), call count, summed values and number of truthy
        values."""
        n = len(self.start)
        starts, ends, parents = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = {name: {"self_s": 0.0, "calls": 0, "value": 0.0,
                         "truthy": 0} for name in self.names}
        for i in range(n):
            if self.trial[i] < 0:
                continue
            row = totals[self.names[self.name[i]]]
            row["self_s"] += (ends[i] - starts[i] - child[i]) * scale[
                self.trial[i]]
            row["calls"] += 1
            value = self.value[i]
            row["value"] += value
            if value:
                row["truthy"] += 1
        return totals

    def attributed_s(self, scale: Sequence[float]) -> float:
        """Summed duration of the root spans inside trials (each times
        ``scale[trial]``): the summed self time of every span inside
        trials."""
        return sum(
            (self.end[i] - self.start[i]) * scale[self.trial[i]]
            for i in range(len(self.start))
            if self.parent[i] < 0 and self.trial[i] >= 0
        )

    def write_csv(self, path) -> None:
        """Write every span, gzip-compressed, one line each:
        ``id,name,start_ns,end_ns,parent,trial,value`` with times in
        nanoseconds since the first span started (ids are line order,
        parent -1 marks a root span)."""
        origin = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,trial,value\n")
            for i in range(len(self.start)):
                value = self.value[i]
                fh.write(
                    f"{i},{names[self.name[i]]},"
                    f"{round((self.start[i] - origin) * 1e9)},"
                    f"{round((self.end[i] - origin) * 1e9)},"
                    f"{self.parent[i]},{self.trial[i]},"
                    f"{int(value) if value.is_integer() else value}\n")
