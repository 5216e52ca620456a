"""The amplify-and-forward relay map and a deterministic Monte Carlo trial runner.

Trials are pure functions of a per-trial generator derived from
(master seed, trial index), so aggregate counts are identical for any
worker count or scheduling order.  Reports carry Wilson 95% intervals
for the binary error classes and serialize to a canonical JSON form
that is byte-stable across reruns (wall time is reported separately).
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ValidationError
from .rng import TAG_TRIAL, generator

Z95 = 1.959963984540054


# ---------------------------------------------------------------------------
# Amplify-and-forward relay map
# ---------------------------------------------------------------------------

def anc_relay(y_relay: np.ndarray, power: float, sigma2: float) -> np.ndarray:
    """Amplify-and-forward gain sqrt(P/(2P+sigma2)) applied to the relay input.

    The gain renormalizes the superposition of two power-P signals plus
    noise back to transmit power P.
    """
    gain = math.sqrt(power / (2.0 * power + sigma2))
    return gain * np.asarray(y_relay, dtype=float)


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("trials must be positive for an interval")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------

TrialFn = Callable[[Mapping, np.random.Generator], Mapping[str, float]]

_REGISTRY: dict[str, TrialFn] = {}


def register_experiment(name: str, fn: TrialFn) -> None:
    _REGISTRY[name] = fn


def _ensure_registered() -> None:
    # Import for the side effect of registering each module's experiments.
    from . import bsc, minangle, twoway  # noqa: F401


def get_experiment(name: str) -> TrialFn:
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(f"unknown experiment {name!r}; known: {sorted(_REGISTRY)}")


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment plus a JSON-able parameter mapping."""

    name: str
    params: Mapping
    error_keys: tuple[str, ...] = ()  # binary outcome keys; first is primary


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

# Per-trial values are quantized onto a fixed binary grid and summed as
# integers, so aggregation is exactly associative: any worker count or
# partitioning yields bit-identical totals.
_GRID = 1 << 32


def _run_range(name: str, params: Mapping, master: int, start: int, stop: int) -> dict:
    fn = get_experiment(name)
    totals: dict[str, int] = {}
    for i in range(start, stop):
        out = fn(params, generator(master, TAG_TRIAL, i))
        for key, val in out.items():
            totals[key] = totals.get(key, 0) + round(float(val) * _GRID)
    return totals


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
        return self.counts.get(key, 0.0) / self.trials

    def interval(self, key: str) -> tuple[float, float]:
        return wilson_interval(int(self.counts.get(key, 0)), self.trials)

    def to_dict(self, include_timing: bool = False) -> dict:
        d = {
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
        if include_timing:
            d["wall_time_s"] = self.wall_time_s
        return d

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, 12 significant digits."""
        return canonical_dumps(self.to_dict(include_timing=False))


def _round_floats(obj):
    if isinstance(obj, dict):
        return {k: _round_floats(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    return obj


def canonical_dumps(obj) -> str:
    return json.dumps(_round_floats(obj), sort_keys=True, separators=(",", ":"))


def run_trials(
    spec: ExperimentSpec,
    trials: int | None,
    master_seed: int,
    workers: int = 1,
    target_ci: float | None = None,
    max_trials: int | None = None,
    block: int = 4096,
) -> TrialReport:
    """Run a trial batch with per-trial derived streams.

    Either a fixed `trials` count, or sequential stopping once the primary
    Wilson half-width drops below `target_ci` (evaluated at fixed block
    boundaries so the stopping point is identical for any worker count),
    capped by `max_trials`.
    """
    if trials is None and target_ci is None:
        raise ValidationError("need trials or target_ci")
    if trials is not None and target_ci is not None:
        raise ValidationError("give either trials or target_ci, not both")
    if target_ci is not None and not spec.error_keys:
        raise ValidationError(
            f"target_ci needs an error key; experiment {spec.name!r} has none")
    if trials is not None and trials <= 0:
        raise ValidationError("trials must be positive")
    if workers < 1:
        raise ValidationError("workers must be >= 1")

    start_time = time.perf_counter()
    totals: dict[str, int] = {}
    done = 0

    def run_chunk(begin: int, end: int) -> None:
        nonlocal done
        if workers == 1 or end - begin < 2 * workers:
            _merge(totals, _run_range(spec.name, spec.params, master_seed, begin, end))
        else:
            bounds = np.linspace(begin, end, workers + 1).astype(int)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_run_range, spec.name, spec.params, master_seed, int(a), int(b))
                    for a, b in zip(bounds[:-1], bounds[1:])
                    if b > a
                ]
                for fut in futures:
                    _merge(totals, fut.result())
        done = end

    if trials is not None:
        run_chunk(0, trials)
    else:
        cap = max_trials if max_trials is not None else 1 << 22
        primary = spec.error_keys[0]
        while done < cap:
            end = min(done + block, cap)
            run_chunk(done, end)
            lo, hi = wilson_interval(round(totals.get(primary, 0) / _GRID), done)
            if (hi - lo) / 2.0 <= target_ci:
                break

    return TrialReport(
        experiment=spec.name,
        params=dict(spec.params),
        trials=done,
        counts={k: v / _GRID for k, v in totals.items()},
        error_keys=spec.error_keys,
        master_seed=master_seed,
        wall_time_s=time.perf_counter() - start_time,
    )


def write_jsonl(records: list[dict], path: str) -> None:
    """One canonical-JSON record per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(canonical_dumps(rec))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Amplify-and-forward power contract experiment
# ---------------------------------------------------------------------------

def anc_power_trial(params: Mapping, rng: np.random.Generator) -> Mapping[str, float]:
    """One amplify-and-forward session with Gaussian signaling.

    Accumulates the relay output energy so the batch mean checks the
    power renormalization contract E||x_R||^2/n = P.
    """
    n = int(params.get("n", 16))
    power = float(params.get("power", 1.0))
    sigma2 = float(params["sigma2"])
    sigma = math.sqrt(power)
    x1 = rng.normal(0.0, sigma, size=n)
    x2 = rng.normal(0.0, sigma, size=n)
    y = x1 + x2
    if sigma2 > 0:
        y = y + rng.normal(0.0, math.sqrt(sigma2), size=n)
    x_relay = anc_relay(y, power, sigma2)
    return {"relay_energy_per_dim": float(np.dot(x_relay, x_relay)) / n}


register_experiment("anc-power", anc_power_trial)
