"""twinrelay benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there.  The run compiles ``src/`` once, runs the workload's
rounds in a fresh interpreter for S seconds (``wall_s`` is one round with
each operation at its fastest) with eight set-up probes in between, each a
fresh interpreter timed to the end of its set-up (``setup_s`` is their
median), checks every output against the references in ``checks.py``, and
prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics from
the traced run (``--trace 1``).  Run outputs and traces go to
``.bench_run/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 60  # after its output ends


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TWINRELAY_WORKERS"] = "1"
    return env


def build() -> None:
    """Byte-compile the package so no timed interpreter pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


def setup_probe(workload: str) -> float:
    """Seconds from starting a fresh interpreter to the end of the set-up."""
    if workload == "cli-readme":
        cmd = [sys.executable, "-m", "twinrelay.cli", "--version"]
    else:
        cmd = [sys.executable, str(HERE / "work.py"), "setup", "--workload", workload]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=child_env()) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or not line.strip():
        raise RuntimeError(f"set-up probe {cmd} exited {code}")
    return elapsed


def run_worker(args, rundir: Path) -> tuple[int, str, list[float]]:
    """Run work.py; answer its probe requests; return (exit code, last line, probes)."""
    cmd = [sys.executable, str(HERE / "work.py"), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rundir", str(rundir)]
    probes, last = [], ""
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            if line == "probe\n":
                probes.append(setup_probe(args.workload))
                proc.stdin.write("done\n")
                proc.stdin.flush()
            else:
                last = line
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    return code, last, probes


def provenance() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    src_loc = sum(len(p.read_text().splitlines())
                  for p in sorted((ROOT / "src" / "twinrelay").glob("*.py")))
    return {"commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "src_loc": src_loc}


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    import checks
    import layers
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "twinrelay" / "__init__.py").is_file():
        return fail(f"no twinrelay sources under {ROOT / 'src'}; run from a source checkout")
    if not (ROOT / "tests" / "oracles.py").is_file():
        return fail(f"no {ROOT / 'tests' / 'oracles.py'}; the checks need its quadrature oracle")

    build()
    rundir = ROOT / ".bench_run" / f"{args.workload}-s{args.seed}-t{args.trace}"
    code, last, probes = run_worker(args, rundir)
    if code != 0:
        return fail(f"workload {args.workload} exited {code}")
    result = json.loads(last)
    with open(rundir / "rounds.jsonl") as fh:
        rounds = [json.loads(line) for line in fh]

    if args.workload == "acceptance-mc":
        found = checks.check_acceptance(rounds, args.seed, ROOT)
    elif args.workload == "long-code-direct":
        found = checks.check_long_code(rounds, args.seed, ROOT)
    elif args.workload == "ci-stop-2w":
        found = checks.check_ci_stop(rounds, result["verify"], args.seed, ROOT)
    else:
        found = checks.check_cli(rounds, args.seed, ROOT)
    correct = all(c["ok"] for c in found)

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        metrics = dict(result["layers"])
        startup = statistics.median(probes) if args.workload == "cli-readme" else 0.0
        metrics["cli.startup_s"] = {"value": startup, "unit": "s"}
        metrics = {name: metrics[name] for name in layers.PER_LAYER_NAMES}
    else:
        wall = workloads.fastest_round_s(plain)
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "trials_per_s": {"value": statistics.median(r["trials"] for r in plain) / wall,
                             "unit": "trials/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "setup_probes_s": probes,
              "round_times_s": [r["time_s"] for r in rounds],
              "op_fastest_s": {name: min(r["op_times"][name] for r in plain)
                               for name in plain[0]["op_times"]},
              "checks": found,
              "provenance": provenance(), "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (rundir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for c in found:
        print(f"{'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    print(f"rounds {len(rounds)}; provenance {json.dumps(record['provenance'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
