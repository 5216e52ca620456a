"""Spans and counts recorded from outside the twinrelay package.

The tracer replaces public module attributes (and the registered
experiments) with wrappers that time each call.  A span is
``(name, start_ns, end_ns, parent)``, where ``parent`` is the index of the
enclosing span in the same process or -1.  Spans stay in memory and are
written out once, when the run ends.  ``restore`` puts every original back,
so untraced and traced rounds can alternate in one process.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter_ns


class Tracer:
    """Spans in flat integer arrays, which the garbage collector never scans
    (a list of span tuples made every collection slower as the run went on)."""

    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self._names: list[str] = []
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._experiments: list[tuple[str, object]] = []

    # -- recording -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._start)

    @property
    def spans(self) -> list[tuple[str, int, int, int]]:
        return [(self._names[n], s, e, p)
                for n, s, e, p in zip(self._name, self._start, self._end, self._parent)]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def record(self, name_id: int, start: int, end: int, parent: int) -> int:
        self._name.append(name_id)
        self._start.append(start)
        self._end.append(end)
        self._parent.append(parent)
        return len(self._start) - 1

    def begin(self, name_id: int) -> int:
        """Open a span; its start is set here and its end by `end`."""
        idx = self.record(name_id, 0, 0, self._stack[-1])
        self._stack.append(idx)
        self._start[idx] = perf_counter_ns()
        return idx

    def end(self, idx: int) -> None:
        self._end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tracer, name_id = self, self.name_id(name)

        def traced(*args, **kwargs):
            idx = tracer.begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        traced.__wrapped__ = fn
        return traced

    def wrap_cache_miss(self, name: str, cached):
        """Span only the calls of an lru_cache'd builder that miss the cache."""
        tracer, name_id = self, self.name_id(name)

        def traced(*args, **kwargs):
            misses = cached.cache_info().misses
            start = perf_counter_ns()
            out = cached(*args, **kwargs)
            if cached.cache_info().misses > misses:
                tracer.record(name_id, start, perf_counter_ns(), tracer._stack[-1])
            return out

        traced.__wrapped__ = cached
        return traced

    def wrap_count_from(self, name: str, fn, caller: str):
        """Count calls of `fn` made directly from a function named `caller`."""
        tracer = self

        def counted(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == caller:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span_attr(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def span_experiment(self, harness, experiment: str, name: str) -> None:
        original = harness.get_experiment(experiment)
        self._experiments.append((experiment, original))
        harness.register_experiment(experiment, self.wrap(name, original))

    def restore(self, harness=None) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for experiment, original in self._experiments:
            harness.register_experiment(experiment, original)
        self._experiments.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def traced_pool(tracer: Tracer):
    """ProcessPoolExecutor subclass that records the parent's side of a pool.

    ``harness.pool`` spans the pool's whole life; ``harness.pool_start`` spans
    construction plus the first submit (which forks the workers) and the
    shutdown on exit; ``harness.worker_wait`` spans the time between the last
    submit and the exit, when the parent only waits for worker results.
    """

    class TracedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._bench_idx = tracer.begin(tracer.name_id("harness.pool"))
            self._bench_first_submit = None
            self._bench_last_submit = None
            super().__init__(*args, **kwargs)
            tracer.counts["harness.pool_starts"] += 1

        def submit(self, *args, **kwargs):
            fut = super().submit(*args, **kwargs)
            now = perf_counter_ns()
            if self._bench_first_submit is None:
                self._bench_first_submit = now
            self._bench_last_submit = now
            return fut

        def __exit__(self, *exc):
            t_exit = perf_counter_ns()
            try:
                return super().__exit__(*exc)
            finally:
                t0 = tracer._start[self._bench_idx]
                first = self._bench_first_submit or t_exit
                last = self._bench_last_submit or t_exit
                start_id = tracer.name_id("harness.pool_start")
                tracer.record(start_id, t0, first, self._bench_idx)
                tracer.record(tracer.name_id("harness.worker_wait"), last, t_exit,
                              self._bench_idx)
                tracer.record(start_id, t_exit, perf_counter_ns(), self._bench_idx)
                tracer.end(self._bench_idx)

    return TracedPool


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from twinrelay import bsc, harness, minangle, multihop, rates, twoway

    tracer.span_attr(harness, "generator", "rng.generator")
    tracer.span_attr(harness, "run_trials", "harness.run_trials")
    tracer.patch(harness, "wilson_interval",
                 tracer.wrap_count_from("harness.stop_checks",
                                        harness.wilson_interval, "run_trials"))
    tracer.patch(harness, "ProcessPoolExecutor", traced_pool(tracer))
    for experiment, name in (("lattice", "twoway.trial"), ("bsc", "bsc.trial"),
                             ("minangle", "minangle.trial"),
                             ("concentration", "minangle.concentration_trial"),
                             ("anc-power", "harness.anc_power_trial")):
        tracer.span_experiment(harness, experiment, name)
    for attr, name in (("make_pair", "lattice.make_pair"),
                       ("encode_message", "lattice.encode_message"),
                       ("mod_coarse", "lattice.mod_coarse"),
                       ("quantize_fine", "lattice.quantize_fine"),
                       ("modulo_sum", "lattice.modulo_sum"),
                       ("relay_decode_sum", "twoway.relay_decode_sum"),
                       ("recover_at_node", "twoway.recover_at_node")):
        tracer.span_attr(twoway, attr, name)
    tracer.span_attr(multihop, "quantize_fine", "lattice.quantize_fine")
    tracer.span_attr(multihop, "build_schedule", "multihop.build_schedule")
    tracer.span_attr(multihop, "run_multihop", "multihop.run_multihop")
    tracer.span_attr(rates, "rate_curve", "rates.rate_curve")
    tracer.span_attr(bsc.BinaryLinearCode, "ml_decode", "bsc.ml_decode")
    tracer.span_attr(minangle, "min_angle_decode", "minangle.min_angle_decode")
    # The decoder tables have no public builder; the lru_cache'd private one is
    # what both the experiment and the CLI call.
    tracer.patch(minangle, "_decoder_instance",
                 tracer.wrap_cache_miss("minangle.decoder_build",
                                        minangle._decoder_instance))


def uninstall(tracer: Tracer) -> None:
    from twinrelay import harness

    tracer.restore(harness)
