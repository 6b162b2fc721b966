"""Benchmark of rotor-gpe: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload strang-n64 --seed 1 --seconds 25 --trace 0

A worker process (``worker.py``) sets up from a cold start, then repeats
the workload's operation in timed rounds, checking each round's outputs
against independent references after its timer stops.  Rounds repeat
until ``--seconds`` have passed; further set-up-only processes top the
cold starts up to ``SETUP_SAMPLES``.  With ``--trace 0`` the run reports
the medians of ``wall_s`` and ``accuracy_digits`` over rounds, of
``setup_s`` over cold starts and of ``peak_rss_mb`` over processes.
With ``--trace 1`` it alternates untraced and traced processes of one
round each and reports the per-layer metrics of the traced ones plus the
tracing overhead.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Outputs and traces; listed in the repository's .gitignore.
OUT = ROOT / ".perfbench"
#: verify-battery caches its kernel tables across calls in one process,
#: so each of its rounds runs in a fresh process.
FRESH_PROCESS_ROUNDS = ("verify-battery",)
#: Cold starts whose median is setup_s.
SETUP_SAMPLES = 7
#: A run must end within 180 s; no worker may outlive this budget.
BUDGET_S = 170.0
#: Per-layer units whose values repeat exactly between traced processes.
EXACT_UNITS = ("count", "bytes")


class Runner:
    """Starts worker processes one at a time and removes their run directories."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.spawned = 0

    def worker(self, *extra: str) -> dict:
        rundir = OUT / "runs" / f"{self.workload}-seed{self.seed}-{self.spawned}"
        self.spawned += 1
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--rundir", str(rundir),
            *extra,
        ]
        remaining = BUDGET_S - (time.perf_counter() - self.started)
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=max(remaining, 1.0))
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            raise RuntimeError(f"worker exited with code {done.returncode}: {' '.join(command)}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def tally(rounds: list[dict]) -> tuple[int, int]:
    checks = [c for r in rounds for c in r["checks"]]
    return len(checks), sum(not c["passed"] for c in checks)


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def measure(runner: Runner, seconds: float) -> tuple[list[dict], dict]:
    processes: list[dict] = []
    while not processes or runner.elapsed() < seconds:
        span = 0.0 if runner.workload in FRESH_PROCESS_ROUNDS else seconds - runner.elapsed()
        processes.append(runner.worker("--seconds", repr(max(span, 0.0))))
    rounds = [r for p in processes for r in p["rounds"]]
    setups = [p["setup_s"] for p in processes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.worker("--setup-only")["setup_s"])
    print(f"{runner.workload}: {len(rounds)} rounds in {len(processes)} processes, {len(setups)} cold starts")
    return rounds, {
        "wall_s": median_of(rounds, "wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median_of(processes, "peak_rss_mb"),
        "accuracy_digits": median_of(rounds, "accuracy_digits"),
    }


def trace(runner: Runner, seconds: float, exact: set[str]) -> tuple[list[dict], dict]:
    plain: list[dict] = []
    traced: list[dict] = []
    while not traced or runner.elapsed() < seconds:
        trace_file = OUT / "traces" / f"{runner.workload}-seed{runner.seed}-{len(traced)}.json"
        # Alternate which side runs first, so drift in host speed cancels.
        traced_first = len(traced) % 2 == 1
        if traced_first:
            traced.append(runner.worker("--trace-out", str(trace_file)))
        plain.append(runner.worker())
        if not traced_first:
            traced.append(runner.worker("--trace-out", str(trace_file)))
    metrics = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        if name in exact and len(set(values)) > 1:
            print(f"warning: {name} differs between traced processes: {values}", file=sys.stderr)
        metrics[name] = values[0] if name in exact else statistics.median(values)
    metrics["trace.traced_wall_s"] = statistics.median(p["rounds"][0]["wall_s"] for p in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(p["rounds"][0]["wall_s"] for p in plain)
    metrics["trace.wall_ratio"] = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"]
    print(f"{runner.workload}: {len(plain)} untraced and {len(traced)} traced first rounds")
    print("self time per layer (s, median over traced processes):")
    for layer in sorted(traced[0]["summary"]["layers"]):
        value = statistics.median(p["summary"]["layers"].get(layer, 0.0) for p in traced)
        print(f"  {layer:<12} {value:.4f}")
    return [r for p in plain + traced for r in p["rounds"]], metrics


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="rotor-gpe benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rotor_gpe" / "__init__.py").is_file():
        print(f"rotor_gpe sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            exact = {name for name, unit in units.items() if unit in EXACT_UNITS}
            rounds, values = trace(runner, args.seconds, exact)
        else:
            rounds, values = measure(runner, args.seconds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    attempted, failed = tally(rounds)
    for r in rounds:
        for c in r["checks"]:
            if not c["passed"]:
                print(f"FAILED {c['name']}: {c['value']:.3e} > {c['tolerance']:.1e}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: {attempted} attempted, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
