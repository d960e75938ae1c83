"""Span tracer that instruments ``repro.*`` from the outside.

The benchmark's ``--trace`` runs install a :class:`Tracer`, which
replaces a fixed list of public functions and methods with timing
wrappers and restores the originals on :meth:`Tracer.uninstall`.  No
file of the program changes: a module-level function is rebound in its
defining module *and* in every loaded ``repro.*`` module that imported
it by name; a method is replaced on its class; the flow-proof and
metamorphic oracle factories are wrapped so that the closures they
return become spans named after the pass they check.

A span records its name, start, end, parent span, operation id and
pid.  Spans stay in memory until the run ends.  Shard workers are
forked, so they inherit the wrappers; a worker writes its spans to
``spans-<pid>.jsonl`` in the spool directory each time its outermost
wrapped call returns (worker processes end through ``os._exit``, so
nothing may wait for exit handlers), and :meth:`Tracer.profile`
merges those files with the parent's spans.

A layer's *self* time is its spans' duration minus the part covered by
child spans.  Time inside an operation (the ``bench.op`` root span)
that no layer span covers is reported as unattributed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

#: (module, attribute, span name): functions and ``Class.method``s whose
#: calls become spans
TARGETS = (
    ("repro.transforms.scripts", "apply_transform", "transforms.apply_transform"),
    ("repro.afsm.extract", "extract_controllers", "afsm.extract_controllers"),
    ("repro.local_transforms.scripts", "optimize_machine", "local_transforms.optimize_machine"),
    ("repro.sim.system", "simulate_system", "sim.simulate_system"),
    ("repro.sim.token_sim", "simulate_tokens", "sim.simulate_tokens"),
    ("repro.obs.causal", "critical_path", "obs.critical_path"),
    ("repro.cdfg.builder", "CdfgBuilder.build", "cdfg.build"),
    ("repro.cache.fingerprint", "fingerprint_cdfg", "cache.fingerprint"),
    ("repro.cache.fingerprint", "fingerprint_plan", "cache.fingerprint"),
    ("repro.cache.fingerprint", "fingerprint_content", "cache.fingerprint"),
    ("repro.cache.fingerprint", "fingerprint_machine", "cache.fingerprint"),
    ("repro.cache.fingerprint", "fingerprint_delays", "cache.fingerprint"),
    ("repro.cache.fingerprint", "fingerprint_registers", "cache.fingerprint"),
    ("repro.cache.store", "ArtifactCache.load", "cache.store.load"),
    ("repro.cache.store", "ArtifactCache.save", "cache.store.save"),
    ("repro.cache.journal", "ResultJournal.append", "cache.journal.append"),
    ("repro.cache.journal", "ResultJournal.load", "cache.journal.load"),
    ("repro.cache.journal", "ResultJournal.compact", "cache.journal.compact"),
    ("repro.cache.shards", "ShardRunner.run", "cache.shards.run"),
    ("repro.serve.client", "ServeClient.submit", "serve.submit"),
    ("repro.serve.client", "ServeClient.wait", "serve.wait"),
)

#: IncrementalExplorer entry points: spans named ``cache.incremental``
#: that also record how many evaluations and trie edges the call computed
EXPLORER_METHODS = ("run", "evaluate_prefix")

#: (module, factory, span name, per pass): the returned oracle closures
#: become spans; per-pass spans append the checked report's pass name
ORACLE_FACTORIES = (
    ("repro.verify.flow", "make_flow_global_oracle", "verify.flow", True),
    ("repro.verify.flow", "make_flow_local_oracle", "verify.flow", True),
    ("repro.verify.oracles", "make_global_oracle", "verify.meta", False),
    ("repro.verify.oracles", "make_local_oracle", "verify.meta", False),
)

#: the root span the benchmark opens around every traced operation
OP_SPAN = "bench.op"

# record fields
_NAME, _START, _END, _PARENT, _OP, _PID, _OUTER, _OUTER_GROUP, _EXTRA = range(9)


def _group(name: str) -> str:
    return name.split(".", 1)[0]


def repro_modules() -> List[object]:
    """Every loaded module of the program under test."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Profile:
    """Aggregated spans of one traced run (see :meth:`Tracer.profile`)."""

    def __init__(self) -> None:
        #: name -> seconds not covered by child spans
        self.self_s: Dict[str, float] = defaultdict(float)
        #: name -> calls not nested in a span of the same name
        self.calls: Dict[str, int] = defaultdict(int)
        #: name -> durations of those outermost calls
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: first name component -> inclusive seconds of outermost spans
        self.group_s: Dict[str, float] = defaultdict(float)
        #: "evaluations"/"edges" computed inside ``cache.incremental``
        self.counters: Dict[str, int] = defaultdict(int)
        #: (duration, self time) of every ``bench.op`` root span
        self.ops: List[Tuple[float, float]] = []
        #: seconds forked workers spent inside outermost spans
        self.worker_busy_s = 0.0


class Tracer:
    """Records spans from wrapped ``repro.*`` calls; see the module doc."""

    def __init__(self, spool_dir: Union[str, Path]):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        #: operation id stamped on new spans (threads may override it)
        self.op: Optional[int] = None
        #: wrappers record spans only while this is set; clearing it
        #: pauses recording without touching the installed wrappers
        self.active = False
        self._lock = threading.Lock()
        self._buffers: List[list] = []  # per-thread span lists (this pid)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, Tuple[object, object]] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        pid = os.getpid()
        if getattr(local, "pid", None) != pid:
            # first span of this thread, or of a forked worker whose
            # inherited copy of the parent's spans must not be re-sent
            local.pid = pid
            local.spans = []
            local.stack = []
            local.open = defaultdict(int)
            local.handle = None
            if pid == self.pid:
                with self._lock:
                    self._buffers.append(local.spans)
        return local

    def record(self, enabled: bool, op: Optional[int] = None) -> None:
        """Switch recording for the calling thread only, stamping its
        new spans with ``op`` (wrappers stay installed either way)."""
        self._local.paused = not enabled
        self._local.op = op

    @property
    def recording(self) -> bool:
        """Whether calls on this thread record spans right now."""
        return self.active and not getattr(self._local, "paused", False)

    def _enter(self, name: str, group: str):
        local = self._thread_state()
        opened = local.open
        record = [
            name,
            time.perf_counter(),
            0.0,
            local.stack[-1] if local.stack else None,
            getattr(local, "op", self.op),
            local.pid,
            opened[name] == 0,
            opened[group] == 0,
            None,
        ]
        opened[name] += 1
        opened[group] += 1
        local.stack.append(len(local.spans))
        local.spans.append(record)
        return local, record, group

    def _exit(self, token, extra=None) -> None:
        local, record, group = token
        record[_END] = time.perf_counter()
        record[_EXTRA] = extra
        local.open[record[_NAME]] -= 1
        local.open[group] -= 1
        local.stack.pop()
        if not local.stack and local.pid != self.pid:
            self._spool(local)

    def _spool(self, local) -> None:
        if local.handle is None:
            local.handle = open(
                self.spool_dir / f"spans-{local.pid}.jsonl", "a", encoding="utf-8"
            )
        local.handle.write(json.dumps(local.spans) + "\n")
        local.handle.flush()
        local.spans.clear()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a span around a block of the benchmark's own code."""
        token = self._enter(name, _group(name))
        try:
            yield
        finally:
            self._exit(token)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(
        self,
        fn,
        name: Union[str, Callable[[tuple], str]],
        group: str,
        counters: bool = False,
        register: bool = True,
    ):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args)
            if counters:
                explorer = args[0]
                before = (explorer.evaluations_computed, explorer.edges_applied)
            token = tracer._enter(span_name, group)
            extra = None
            try:
                return fn(*args, **kwargs)
            finally:
                if counters:
                    extra = [
                        explorer.evaluations_computed - before[0],
                        explorer.edges_applied - before[1],
                    ]
                tracer._exit(token, extra)

        if register:
            self._wrappers[id(traced)] = (traced, fn)
        return traced

    def _wrap_factory(self, factory, name: str, per_pass: bool):
        tracer = self

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            oracle = factory(*args, **kwargs)
            if not tracer.active:
                return oracle
            span_name = (lambda call: f"{name}.{call[0].name}") if per_pass else name
            return tracer._wrap(oracle, span_name, "verify", register=False)

        self._wrappers[id(traced_factory)] = (traced_factory, factory)
        return traced_factory

    def _planned(self) -> Tuple[list, list]:
        """``(class patches, module-function patches)`` to install."""
        from repro.local_transforms.scripts import build_local_sequence
        from repro.transforms.scripts import build_sequence

        methods = []
        functions = []
        for module_name, attribute, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                methods.append((owner, method, self._wrap(owner.__dict__[method], name, _group(name))))
            else:
                original = getattr(module, attribute)
                functions.append((original, self._wrap(original, name, _group(name))))
        for prefix, passes in (
            ("transforms", build_sequence()),
            ("local_transforms", build_local_sequence()),
        ):
            for transform in passes:
                owner = type(transform)
                name = f"{prefix}.{transform.name}"
                methods.append((owner, "apply", self._wrap(owner.__dict__["apply"], name, prefix)))
        explorer = importlib.import_module("repro.cache.incremental").IncrementalExplorer
        for method in EXPLORER_METHODS:
            wrapper = self._wrap(
                explorer.__dict__[method], "cache.incremental", "cache", counters=True
            )
            methods.append((explorer, method, wrapper))
        for module_name, factory_name, name, per_pass in ORACLE_FACTORIES:
            factory = getattr(importlib.import_module(module_name), factory_name)
            functions.append((factory, self._wrap_factory(factory, name, per_pass)))
        return methods, functions

    def install(self) -> None:
        """Wrap every target; calls from now on record spans."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        methods, functions = self._planned()
        for owner, attribute, wrapper in methods:
            self._patches.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, wrapper)
        replacement = {id(original): (original, wrapper) for original, wrapper in functions}
        for module in repro_modules():
            for attribute, value in list(vars(module).items()):
                entry = replacement.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attribute, value))
                    setattr(module, attribute, entry[1])
        self.active = True

    def uninstall(self) -> None:
        """Restore every patched attribute, including bindings that
        modules imported while the wrappers were installed made."""
        self.active = False
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        for module in repro_modules():
            for attribute, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
        self._wrappers.clear()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _records(self) -> List[list]:
        """Every span of this process and its workers, parents re-indexed
        into one list."""
        records: List[list] = []

        def extend(batch: List[list]) -> None:
            offset = len(records)
            for record in batch:
                if record[_PARENT] is not None:
                    record[_PARENT] += offset
                records.append(record)

        with self._lock:
            buffers = [list(buffer) for buffer in self._buffers]
        for buffer in buffers:
            extend([list(record) for record in buffer])
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    extend(json.loads(line))
        return records

    def profile(self) -> Profile:
        """Aggregate every recorded span into per-layer totals."""
        records = self._records()
        covered = [0.0] * len(records)
        for record in records:
            if record[_PARENT] is not None:
                covered[record[_PARENT]] += record[_END] - record[_START]
        result = Profile()
        for index, record in enumerate(records):
            name = record[_NAME]
            duration = record[_END] - record[_START]
            self_time = duration - covered[index]
            result.self_s[name] += self_time
            if record[_OUTER]:
                result.calls[name] += 1
                result.durations[name].append(duration)
            if record[_OUTER_GROUP]:
                result.group_s[_group(name)] += duration
            if record[_EXTRA]:
                result.counters["evaluations"] += record[_EXTRA][0]
                result.counters["edges"] += record[_EXTRA][1]
            if name == OP_SPAN:
                result.ops.append((duration, self_time))
            elif record[_PID] != self.pid and record[_PARENT] is None:
                result.worker_busy_s += duration
        return result
