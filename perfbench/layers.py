"""Per-layer metrics computed from the traced run's spans.

``_us``/``_ms`` metrics are mean time per call; ``_calls`` metrics and the
``harness`` counts are per round (one pass over the workload's fixed mix);
``self`` is a span's time minus the time of its direct child spans;
``cli.<line>_s`` is the line's fastest wall time over the untraced rounds.
A layer that the workload never reaches in a traced process reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import CLI_LINES

_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}

# (metric, unit, kind, span or count name)
#   mean   mean span duration over the traced rounds
#   build  mean span duration over set-up and traced rounds (table builders)
#   self   mean span duration minus direct children, traced rounds
#   calls  spans per traced round
#   count  counter per traced round
#   pool   total span time per pool (harness.pool spans)
#   total  total span time per traced round
LAYER_METRICS = (
    ("rng.generator_us", "us", "mean", "rng.generator"),
    ("rng.generator_calls", "count", "calls", "rng.generator"),
    ("lattice.quantize_fine_us", "us", "mean", "lattice.quantize_fine"),
    ("lattice.quantize_fine_calls", "count", "calls", "lattice.quantize_fine"),
    ("lattice.mod_coarse_us", "us", "mean", "lattice.mod_coarse"),
    ("lattice.encode_message_us", "us", "mean", "lattice.encode_message"),
    ("lattice.modulo_sum_us", "us", "mean", "lattice.modulo_sum"),
    ("lattice.make_pair_ms", "ms", "build", "lattice.make_pair"),
    ("twoway.recover_at_node_us", "us", "mean", "twoway.recover_at_node"),
    ("twoway.relay_decode_sum_us", "us", "mean", "twoway.relay_decode_sum"),
    ("twoway.trial_us", "us", "mean", "twoway.trial"),
    ("twoway.trial_self_us", "us", "self", "twoway.trial"),
    ("bsc.trial_us", "us", "mean", "bsc.trial"),
    ("bsc.ml_decode_us", "us", "mean", "bsc.ml_decode"),
    ("bsc.ml_decode_calls", "count", "calls", "bsc.ml_decode"),
    ("minangle.trial_us", "us", "mean", "minangle.trial"),
    ("minangle.min_angle_decode_us", "us", "mean", "minangle.min_angle_decode"),
    ("minangle.concentration_trial_us", "us", "mean", "minangle.concentration_trial"),
    ("minangle.decoder_build_ms", "ms", "build", "minangle.decoder_build"),
    ("harness.pool_starts", "count", "count", "harness.pool_starts"),
    ("harness.pool_start_ms", "ms", "pool", "harness.pool_start"),
    ("harness.worker_wait_s", "s", "total", "harness.worker_wait"),
    ("harness.stop_checks", "count", "count", "harness.stop_checks"),
    ("multihop.build_schedule_ms", "ms", "mean", "multihop.build_schedule"),
    ("multihop.run_multihop_ms", "ms", "mean", "multihop.run_multihop"),
    ("rates.rate_curve_ms", "ms", "mean", "rates.rate_curve"),
)
CLI_METRICS = tuple(f"cli.{name}_s" for name, _ in CLI_LINES)
# cli.startup_s comes from the set-up probes, measured by run.py.
PER_LAYER_NAMES = (tuple(m[0] for m in LAYER_METRICS) + ("cli.startup_s",) + CLI_METRICS
                   + ("trace.overhead_pct",))


def layer_metrics(spans, first_round: int, counts, traced_rounds: int,
                  plain_rounds: list[dict], overhead_pct: float) -> dict:
    """Spans from index `first_round` on are the traced rounds'; earlier ones
    were recorded during set-up."""
    rounds_acc = defaultdict(lambda: [0, 0])
    build_acc = defaultdict(lambda: [0, 0])
    self_acc = defaultdict(int)
    child_ns = defaultdict(int)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        build_acc[name][0] += 1
        build_acc[name][1] += end - start
        if i >= first_round:
            rounds_acc[name][0] += 1
            rounds_acc[name][1] += end - start
            self_acc[name] += end - start - child_ns.get(i, 0)

    out = {}
    for metric, unit, kind, name in LAYER_METRICS:
        scale = _SCALE.get(unit, 1.0)
        calls, total = (build_acc if kind == "build" else rounds_acc)[name]
        if kind in ("mean", "build"):
            value = total / calls * scale if calls else 0.0
        elif kind == "self":
            value = self_acc[name] / calls * scale if calls else 0.0
        elif kind == "calls":
            value = calls / traced_rounds
        elif kind == "count":
            value = counts.get(name, 0) / traced_rounds
        elif kind == "pool":
            pools = rounds_acc["harness.pool"][0]
            value = total / pools * scale if pools else 0.0
        else:  # total
            value = total / traced_rounds * scale
        out[metric] = {"value": value, "unit": unit}
    for (line, _), metric in zip(CLI_LINES, CLI_METRICS):
        walls = [r["op_times"][line] for r in plain_rounds if line in r["op_times"]]
        out[metric] = {"value": min(walls) if walls else 0.0, "unit": "s"}
    out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return out
