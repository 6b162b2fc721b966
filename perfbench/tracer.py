"""Per-layer tracing of ``rotor_gpe``, installed from outside the program.

:meth:`Tracer.install` replaces every public function of the traced
modules with a wrapper, in every ``rotor_gpe`` module namespace where a
caller looks that function up (``from .grid import gradient_arrays``
binds a second name, so both are patched).  ``Field.__post_init__`` is
wrapped on its class, and the ``scipy.fft`` transforms the program calls
are counted (calls and bytes computed from array sizes) without spans.

Each wrapped call appends one span ``(name, start, end, parent, tag)``
to an in-memory list; ``parent`` is the index of the enclosing span
(-1 at top level) and ``tag`` carries a per-function detail (the
backend of ``propagate_dual``, the iterations of ``picard_solve``, the
bytes of ``write_snapshot``).  Spans are written out only when the
benchmark ends.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

import scipy.fft

MODULES = ("grid", "propagator", "solver", "diagnostics", "galilean", "snapshots", "config", "cli")
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn", "fft2", "ifft2")
CALIBRATION = "propagator.calibrated_rotation_sign"


def _dual_backend(fn):
    signature = inspect.signature(fn)

    def tag(args, kwargs, _result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["backend"]

    return tag


def _written_bytes(_args, _kwargs, result):
    return sum(path.stat().st_size for path in result)


#: Span tags: name -> factory(original function) -> tag(args, kwargs, result).
TAGS = {
    "propagator.propagate_dual": _dual_backend,
    "solver.picard_solve": lambda fn: lambda a, kw, r: r.iterations,
    "snapshots.write_snapshot": lambda fn: _written_bytes,
}


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag_of = TAGS[name](fn) if name in TAGS else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tag = tag_of(args, kwargs, result) if tag_of and result is not None else None
                spans[index] = (name, start, end, parent, tag)

        return wrapper

    def _count_fft(self, fn):
        counters = self.counters

        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            counters["grid.fft_calls"] += 1
            counters["grid.fft_bytes"] += getattr(x, "nbytes", 0) + out.nbytes
            return out

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced modules; ``rotor_gpe`` must be imported already."""
        traced = [importlib.import_module(f"rotor_gpe.{short}") for short in MODULES]
        package = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "rotor_gpe"]
        for short, module in zip(MODULES, traced):
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, key, wrapper)
        field = sys.modules["rotor_gpe.grid"].Field
        self._patch(field, "__post_init__", self._wrap("grid.Field.__post_init__", field.__post_init__))
        for attr in FFT_NAMES:
            self._patch(scipy.fft, attr, self._count_fft(getattr(scipy.fft, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# --------------------------------------------------------------------------
# span analysis
# --------------------------------------------------------------------------


def _flag_descendants(spans, test) -> list[bool]:
    """``out[i]`` is true when some proper ancestor of span ``i`` passes ``test``.

    Parents precede their children in the span list, so one forward pass
    suffices.
    """
    out = [False] * len(spans)
    for i, (_name, _start, _end, parent, _tag) in enumerate(spans):
        if parent >= 0:
            out[i] = out[parent] or test(spans[parent])
    return out


def summary(spans) -> dict:
    """Calls, inclusive time and self time per span name and per module.

    Self time is a span's duration minus the durations of its direct
    children (which, single-threaded, never overlap one another).
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _tag in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _parent, _tag) in enumerate(spans):
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    by_layer: dict = defaultdict(float)
    for name, entry in by_name.items():
        by_layer[name.split(".")[0]] += entry["self_s"]
    return {"functions": dict(by_name), "layers": dict(by_layer)}


def layer_metrics(spans, counters) -> dict:
    """The per-layer metrics of the benchmark, from one traced process.

    Propagator metrics other than ``calibration_s`` leave out the work
    done inside the rotation-sign calibration, which has its own metric.
    """
    in_calibration = _flag_descendants(spans, lambda s: s[0] == CALIBRATION)

    def is_fast(span):
        return span[0] == "propagator.propagate_fast" or (
            span[0] == "propagator.propagate_dual" and span[4] == "fast"
        )

    def is_oracle(span):
        return span[0] == "propagator.propagate_oracle" or (
            span[0] == "propagator.propagate_dual" and span[4] == "oracle"
        )

    def outermost(test, skip_calibration=False):
        nested = _flag_descendants(spans, test)
        return [
            i
            for i, s in enumerate(spans)
            if test(s) and not nested[i] and not (skip_calibration and in_calibration[i])
        ]

    def named(*names):
        wanted = set(names)
        return lambda s: s[0] in wanted

    def total(indices):
        return sum(spans[i][2] - spans[i][1] for i in indices)

    def median_ms(indices):
        if not indices:
            return 0.0
        return 1e3 * statistics.median(spans[i][2] - spans[i][1] for i in indices)

    def tags(indices):
        return sum(spans[i][4] or 0 for i in indices)

    fast = outermost(is_fast, skip_calibration=True)
    in_fast = _flag_descendants(spans, is_fast)
    rotate = outermost(named("propagator.rotate_pattern"), skip_calibration=True)
    oracle = outermost(is_oracle, skip_calibration=True)
    calibration = [i for i, s in enumerate(spans) if s[0] == CALIBRATION]
    steps = outermost(named("solver.strang_step"))
    picard = outermost(named("solver.picard_solve"))
    records = outermost(named("diagnostics.record"))
    fields = [i for i, s in enumerate(spans) if s[0] == "grid.Field.__post_init__"]
    writes = outermost(named("snapshots.write_snapshot"))
    return {
        "propagator.fast_calls": len(fast),
        "propagator.fast_s": total(fast),
        "propagator.rotate_s": total(rotate),
        "propagator.harmonic_s": total(fast) - total(i for i in rotate if in_fast[i]),
        "propagator.oracle_calls": len(oracle),
        "propagator.oracle_s": total(oracle),
        "propagator.calibration_s": total(calibration[:1]),
        "solver.steps": len(steps),
        "solver.step_ms": median_ms(steps),
        "solver.nonlinear_s": total(outermost(named("solver.nonlinear_phase"))),
        "solver.picard_s": total(picard),
        "solver.picard_iterations": tags(picard),
        "solver.workspace_distance_s": total(outermost(named("solver.workspace_distance"))),
        "diagnostics.records": len(records),
        "diagnostics.record_ms": median_ms(records),
        "diagnostics.energy_s": total(outermost(named("diagnostics.energy_e0", "diagnostics.energy_terms"))),
        "galilean.dressed_s": total(outermost(named("galilean.galilean_momentum", "galilean.galilean_position"))),
        "grid.gradient_s": total(outermost(named("grid.gradient_arrays"))),
        "grid.field_inits": len(fields),
        "grid.field_init_s": total(fields),
        "grid.fft_workers_calls": sum(s[0] == "grid.fft_workers" for s in spans),
        "grid.fft_calls": counters["grid.fft_calls"],
        "grid.fft_bytes": counters["grid.fft_bytes"],
        "snapshots.writes": len(writes),
        "snapshots.bytes_written": tags(writes),
        "snapshots.write_s": total(writes),
        "cli.csv_write_s": total(outermost(named("diagnostics.write_csv"))),
        "config.build_initial_s": total(outermost(named("config.build_initial_field"))),
    }
