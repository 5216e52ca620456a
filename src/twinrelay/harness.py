"""A deterministic Monte Carlo trial runner; it holds no scheme of its own.

An experiment is a block kernel `(params, rng, count) -> totals` that
runs `count` trials on one generator.  `EXPERIMENTS` names each
experiment's kernel module and function, and `get_experiment` imports a
module the first time one of its kernels is asked for, so a run loads only
its own kernel.  This module imports no kernel module and no kernel module
imports it; `register_experiment` puts a kernel in place of an entry.
Trials are grouped in fixed blocks of BLOCK: block b holds trials
[BLOCK*b, BLOCK*(b+1)) and draws from the stream (master seed, TAG_TRIAL,
b).  Workers receive whole blocks, so aggregate counts are identical for
any worker count or scheduling order.  A report carries the Wilson 95%
interval of its primary error key and serializes to a canonical JSON form
that is byte-stable across reruns (wall time is reported separately).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Mapping

import numpy as np

from .canonical import BLOCK, canonical_dumps
from .errors import TwinrelayError, ValidationError
from .rng import TAG_TRIAL, generator

Z95 = 1.959963984540054
MAX_WORKERS = 64


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("trials must be positive for an interval")
    p, z = successes / trials, Z95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------

# kernel(params, rng, count) -> totals of each outcome over `count` trials
KernelFn = Callable[[Mapping, np.random.Generator, int], Mapping[str, float]]

# Each experiment's kernel: its module in this package and its name there.
EXPERIMENTS = {
    "lattice": ("twoway", "lattice_kernel"),
    "bsc": ("bsc", "bsc_kernel"),
    "minangle": ("minangle", "minangle_kernel"),
    "concentration": ("minangle", "concentration_kernel"),
    "anc-power": ("twoway", "anc_power_kernel"),
}

# The kernels loaded so far, and any registered in place of a table entry.
_REGISTRY: dict[str, KernelFn] = {}


def register_experiment(name: str, fn: KernelFn) -> None:
    _REGISTRY[name] = fn


def get_experiment(name: str) -> KernelFn:
    """The kernel of `name`, its module imported the first time it is asked for."""
    if name not in _REGISTRY:
        if name not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {name!r}; "
                                  f"known: {sorted(EXPERIMENTS.keys() | _REGISTRY.keys())}")
        module, kernel = EXPERIMENTS[name]
        _REGISTRY[name] = getattr(import_module(f".{module}", __package__), kernel)
    return _REGISTRY[name]


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment plus a JSON-able parameter mapping."""

    name: str
    params: Mapping
    error_keys: tuple[str, ...] = ()  # binary outcome keys; first is primary


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

# Each block's totals are quantized onto a fixed binary grid and summed as
# integers, so aggregation is exactly associative: any worker count or
# partitioning yields bit-identical totals.
_GRID = 1 << 32


def _run_range(name: str, params: Mapping, master: int, start: int, stop: int) -> dict:
    """Totals of trials [start, stop), start on a block boundary; one stream per block."""
    kernel = get_experiment(name)
    totals: dict[str, int] = {}
    for first in range(start, stop, BLOCK):
        out = kernel(params, generator(master, TAG_TRIAL, first // BLOCK),
                     min(BLOCK, stop - first))
        for key, val in out.items():
            totals[key] = totals.get(key, 0) + round(float(val) * _GRID)
    return totals


def _blocks(trials: int) -> int:
    return -(-trials // BLOCK)


def _merge(into: dict, other: Mapping) -> dict:
    for key, val in other.items():
        into[key] = into.get(key, 0) + val
    return into


@dataclass
class TrialReport:
    """Aggregate of a trial batch; canonical form excludes timing."""

    experiment: str
    params: dict
    trials: int
    counts: dict[str, float]
    error_keys: tuple[str, ...]
    master_seed: int
    wall_time_s: float = 0.0
    estimate: float = field(init=False)
    ci_low: float = field(init=False)
    ci_high: float = field(init=False)

    def __post_init__(self) -> None:
        primary = self.error_keys[0] if self.error_keys else None
        if primary is not None and self.trials > 0:
            successes = int(self.counts.get(primary, 0))
            self.estimate = successes / self.trials
            self.ci_low, self.ci_high = wilson_interval(successes, self.trials)
        else:
            self.estimate = float("nan")
            self.ci_low = float("nan")
            self.ci_high = float("nan")

    def rate(self, key: str) -> float:
        """The share of trials counted under `key`; KeyError if the report lacks it."""
        return self.counts[key] / self.trials

    def to_dict(self) -> dict:
        """The report without its wall time."""
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "trials": self.trials,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "error_keys": list(self.error_keys),
            "master_seed": self.master_seed,
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, 12 significant digits."""
        return canonical_dumps(self.to_dict())


def run_trials(
    spec: ExperimentSpec,
    trials: int | None,
    master_seed: int,
    workers: int = 1,
    target_ci: float | None = None,
    max_trials: int | None = None,
    block: int = BLOCK,
) -> TrialReport:
    """Run a trial batch in fixed blocks of BLOCK trials, one stream per block.

    Either a fixed `trials` count, or sequential stopping once the primary
    Wilson half-width drops below `target_ci`, checked every `block` trials
    (a multiple of BLOCK, so the stopping point is identical for any worker
    count), capped by `max_trials`.  At most one process pool serves the
    whole call, and only when a chunk between checks has two or more blocks
    to spread over `workers`.  An error key the kernel's totals lack is
    refused after the first chunk, so a misspelled key never reads zero.
    """
    if trials is None and target_ci is None:
        raise ValidationError("need trials or target_ci")
    if trials is not None and target_ci is not None:
        raise ValidationError("give either trials or target_ci, not both")
    if target_ci is not None and not (math.isfinite(target_ci) and target_ci > 0):
        raise ValidationError(f"target_ci must be a positive finite number, got {target_ci}")
    if target_ci is not None and not spec.error_keys:
        raise ValidationError(
            f"target_ci needs an error key; experiment {spec.name!r} has none")
    if trials is not None and trials <= 0:
        raise ValidationError("trials must be positive")
    if trials is not None and max_trials is not None:
        raise ValidationError("max_trials caps a target_ci run; give it without trials")
    if max_trials is not None and max_trials < 1:
        raise ValidationError(f"max_trials must be positive, got {max_trials}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValidationError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    if block < BLOCK or block % BLOCK:
        raise ValidationError(f"block must be a positive multiple of {BLOCK}, got {block}")
    get_experiment(spec.name)

    start_time = time.perf_counter()
    if trials is not None:
        stop = period = trials
    else:
        stop = max_trials if max_trials is not None else 1 << 22
        period = block
    spread = min(workers, _blocks(min(period, stop)))
    totals: dict[str, int] = {}
    done = 0
    try:
        with ProcessPoolExecutor(max_workers=spread) if spread > 1 else nullcontext() as pool:
            while done < stop:
                end = min(done + period, stop)
                _merge(totals, _run_chunk(pool, spread, spec, master_seed, done, end))
                missing = [key for key in spec.error_keys if key not in totals]
                if missing:
                    raise ValidationError(
                        f"experiment {spec.name!r} reports no {', '.join(missing)}; "
                        f"its totals are {', '.join(sorted(totals))}")
                done = end
                if target_ci is not None:
                    primary = round(totals.get(spec.error_keys[0], 0) / _GRID)
                    lo, hi = wilson_interval(primary, done)
                    if (hi - lo) / 2.0 <= target_ci:
                        break
    except BrokenProcessPool as exc:
        raise TwinrelayError(f"a trial worker process died: {exc}") from exc

    return TrialReport(
        experiment=spec.name,
        params=dict(spec.params),
        trials=done,
        counts={k: v / _GRID for k, v in totals.items()},
        error_keys=spec.error_keys,
        master_seed=master_seed,
        wall_time_s=time.perf_counter() - start_time,
    )


def _run_chunk(pool, spread: int, spec: ExperimentSpec, master: int,
               start: int, stop: int) -> dict:
    """Totals of trials [start, stop): in process for one block, else whole
    blocks spread over the pool in contiguous ranges."""
    first, last = start // BLOCK, _blocks(stop)
    if pool is None or last - first < 2:
        return _run_range(spec.name, spec.params, master, start, stop)
    bounds = np.linspace(first, last, min(spread, last - first) + 1).astype(int)
    futures = [
        pool.submit(_run_range, spec.name, spec.params, master,
                    int(a) * BLOCK, min(int(b) * BLOCK, stop))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    totals: dict[str, int] = {}
    for fut in futures:
        _merge(totals, fut.result())
    return totals

