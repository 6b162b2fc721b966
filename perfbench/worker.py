"""One cold process of the benchmark: set-up, then timed rounds and checks.

Run by ``run.py``; prints one JSON object as its last stdout line::

    python3 perfbench/worker.py --workload strang-n64 --seed 1 --rundir DIR
        [--seconds S] [--setup-only] [--trace-out FILE]

``setup_s`` runs from the top of this file, before ``rotor_gpe`` is
imported, to the start of the first timed round.  Rounds repeat until
``S`` seconds have passed since then (one round when ``S`` is 0); each
is timed alone and checked after its timer stops.  ``peak_rss_mb`` is
this process's peak resident memory when the first round ends.  With
``--trace-out`` the set-up and exactly one round are traced.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Strang steps per round; dt = 5e-4 keeps every round inside one window.
STEPS = 40
DT = 5e-4
OMEGA = 1.0
BETA = 1.0
EXTENT = 8.0
#: observe-n48 writes a snapshot every this many steps.
SNAPSHOT_EVERY = 2


def draw_state(seed: int) -> tuple[list[float], list[float]]:
    """Off-axis centre and kick of the coherent state, drawn from ``seed``.

    Centre: radius 1-1.5 off the x3 axis, x3 within +-0.5.  Kick:
    magnitude 0.5-1 in a uniform direction.  The orbit then stays within
    2 of the origin, six trap lengths inside the box face at extent 8.
    """
    rng = random.Random(seed)
    radius, phi = rng.uniform(1.0, 1.5), rng.uniform(0.0, 2.0 * math.pi)
    centre = [radius * math.cos(phi), radius * math.sin(phi), rng.uniform(-0.5, 0.5)]
    direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
    scale = rng.uniform(0.5, 1.0) / math.sqrt(sum(d * d for d in direction))
    return centre, [d * scale for d in direction]


def workload_config(workload: str, seed: int, rundir: Path) -> dict:
    """The JSON run configuration a workload feeds the program."""
    if workload == "verify-battery":
        # The built-in desk-scale configuration of `rotor-gpe verify`, with
        # the benchmark's seed in place of its default seed 0.
        return {
            "grid": {"n": 24, "extent": 6.0},
            "physics": {"omega": 1.0, "beta": 1.0},
            "initial": {"type": "ground"},
            "evolve": {"scheme": "strang", "dt": 1e-3},
            "output": {"dir": str(rundir / "out")},
            "seed": seed,
        }
    centre, kick = draw_state(seed)
    observe = workload == "observe-n48"
    return {
        "grid": {"n": 48 if observe else 64, "extent": EXTENT},
        "physics": {"omega": OMEGA, "beta": BETA},
        "initial": {"type": "coherent", "params": {"center": centre, "kick": kick}},
        "evolve": {"scheme": "strang", "dt": DT, "t_end": STEPS * DT},
        "output": {
            "dir": str(rundir / "out"),
            "snapshot_every": SNAPSHOT_EVERY if observe else 0,
            "diagnostics_every": 1 if observe else 0,
        },
    }


def setup(workload: str, seed: int, rundir: Path, tracer=None):
    """Import, parse the config, calibrate, plan and build the initial field."""
    # Every module the timed round uses is imported here, as part of set-up.
    from rotor_gpe import cli, config, propagator, solver  # noqa: F401

    if tracer is not None:
        tracer.install()
    data = workload_config(workload, seed, rundir)
    config_path = rundir / "config.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")
    cfg = config.load_config(config_path)
    # The calibration and the plan cache are internals a faster program may
    # drop, so they are set up only where they exist.
    calibrate = getattr(propagator, "calibrated_rotation_sign", None)
    if calibrate is not None:
        calibrate()
    plan = getattr(propagator, "splitting_plan", None)
    if plan is not None:
        plan(cfg.grid, cfg.params, cfg.solver.dt, cfg.solver.m)
    u0 = config.build_initial_field(cfg)
    return cfg, config_path, u0


def timed_round(workload: str, cfg, config_path: Path, u0):
    """The workload's timed operation; returns what the checks need."""
    from rotor_gpe import cli, solver

    if workload == "strang-n64":
        return solver.evolve(u0, cfg.solver, cfg.params), ""
    command = "run" if workload == "observe-n48" else "verify"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.entrypoint([command, str(config_path)])
    return code, out.getvalue()


def run_checks(workload: str, seed: int, cfg, u0, outcome, printed, caught):
    """Checks against independent references; returns (checks, accuracy_digits)."""
    import checks as ck

    quiet = ck.Check("no-warnings", float(len(caught)), 0.0)
    if workload == "verify-battery":
        found, margin = ck.check_verify_table(printed, outcome)
        return [quiet, *found], margin

    centre, kick = draw_state(seed)
    if workload == "strang-n64":
        series = [
            ck.moments(u0.data, EXTENT, OMEGA, BETA),
            ck.moments(outcome.final.field.data, EXTENT, OMEGA, BETA),
        ]
        times = [0.0, STEPS * DT]
        found = [quiet]
    else:
        out_dir = cfg.output_dir
        stems = [(f"snapshot_{i:06d}", i * SNAPSHOT_EVERY * DT) for i in range(STEPS // SNAPSHOT_EVERY + 1)]
        stems.append(("snapshot_final", STEPS * DT))
        series, times, lags = [], [], []
        try:
            for stem, t in stems:
                data, sidecar = ck.read_snapshot(out_dir / stem)
                lags.append(abs(sidecar["t"] - t))
                series.append(ck.moments(data, EXTENT, OMEGA, BETA))
                times.append(t)
            csv_text = (out_dir / "diagnostics.csv").read_text(encoding="utf-8")
        except (OSError, ValueError, KeyError) as exc:
            print(f"observe-n48 outputs unreadable: {exc}", file=sys.stderr)
            lags, csv_text = [math.inf], ""
        found = [
            quiet,
            ck.Check("run-exit-code", float(outcome != 0), 0.0),
            ck.Check("snapshot-times", max(lags), 1e-12),
            ck.check_csv_first_row(csv_text, centre, kick, OMEGA, BETA),
        ]
    kohn = ck.check_kohn(zip(times, (m["centre"] for m in series)), centre, kick, OMEGA)
    found += [kohn, *ck.check_drifts(series)]
    return found, ck.digits(kohn.value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rundir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()
    args.rundir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace_out is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
    cfg, config_path, u0 = setup(args.workload, args.seed, args.rundir, tracer)
    start = time.perf_counter()
    result = {"setup_s": start - T0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rounds = []
    while not rounds or time.perf_counter() - start < args.seconds:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            began = time.perf_counter()
            outcome, printed = timed_round(args.workload, cfg, config_path, u0)
            wall_s = time.perf_counter() - began
        if not rounds:
            # Read before any check runs, so the checks' arrays never count.
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters)
            result["summary"] = tracing.summary(tracer.spans)
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(
                json.dumps({"spans": tracer.spans, "counters": tracer.counters, **result}),
                encoding="utf-8",
            )
        for w in caught:
            print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
        found, accuracy = run_checks(args.workload, args.seed, cfg, u0, outcome, printed, caught)
        shutil.rmtree(cfg.output_dir, ignore_errors=True)
        rounds.append(
            {"wall_s": wall_s, "accuracy_digits": accuracy, "checks": [c.as_dict() for c in found]}
        )
        if tracer is not None:
            break
    result["rounds"] = rounds
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
