"""Outside-in tracing of decosim's public functions.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the
wrapper at every name the original is bound to in a loaded ``decosim``
module.  Rebinding every name matters: ``scenarios``, ``trajectories``,
``models.three_level`` and ``cli`` import these functions by name, so
patching only the defining module would miss their calls.

Each call becomes one span ``[name, parent_index, start, end]`` (seconds on
``time.perf_counter``), kept in memory and written by ``dump`` when the
operation ends.  A few wrappers also add counters taken from the call's
arguments or result, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, attribute) of every traced function; the span name is the module
# path below ``decosim`` plus the attribute.
TARGETS = (
    ("decosim.cli", "main"),
    ("decosim.config", "parse_config"),
    ("decosim.scenarios", "run_scenario"),
    ("decosim.evolution", "integrate_master"),
    ("decosim.evolution", "lindblad_rhs"),
    ("decosim.trajectories", "run_ensemble"),
    ("decosim.trajectories", "aggregate"),
    ("decosim.coherence", "trace_distance"),
    ("decosim.models.disorder", "quad"),
    ("decosim.models.oscillator", "position_density"),
    ("decosim.models.three_level", "fluorescence_telegraph"),
)
MIXED = "hilbert.QuantumState.mixed"


def _span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('decosim.')}.{attr}"


def _count_rk4_steps(fn):
    signature = inspect.signature(fn)

    def observe(counters, args, kwargs, result):
        grid = signature.bind(*args, **kwargs).arguments["grid"]
        counters["evolution.rk4_steps"] += grid.n_steps
    return observe


def _count_trajectory_work(fn):
    signature = inspect.signature(fn)

    def observe(counters, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        counters["trajectories.row_steps"] += (int(a["n_traj"])
                                               * a["grid"].n_steps)
        counters["trajectories.jumps"] += sum(r.jump_times.size
                                              for r in result)
        counters["trajectories.workers"] = max(
            counters["trajectories.workers"], int(a["workers"]))
    return observe


def _count_integrand_evals(fn):
    def observe(counters, args, kwargs, result):
        # decosim always asks quad for full_output, so result[2] is the
        # info dict carrying the number of integrand evaluations.
        counters["models.disorder.integrand_evals"] += result[2]["neval"]
    return observe


OBSERVERS = {
    "evolution.integrate_master": _count_rk4_steps,
    "trajectories.run_ensemble": _count_trajectory_work,
    "models.disorder.quad": _count_integrand_evals,
}
COUNTERS = ("evolution.rk4_steps", "trajectories.row_steps",
            "trajectories.jumps", "trajectories.workers",
            "models.disorder.integrand_evals")


class Tracer:
    """Span recorder for one operation in one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        make_observer = OBSERVERS.get(name)
        observe = make_observer(fn) if make_observer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target at every name bound to it in decosim."""
        modules = [m for n, m in sys.modules.items()
                   if n == "decosim" or n.startswith("decosim.")]
        for module, attr in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(_span_name(module, attr), original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
        from decosim.hilbert import QuantumState
        mixed = QuantumState.__dict__["mixed"].__func__
        QuantumState.mixed = classmethod(self._wrap(MIXED, mixed))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def summarize(spans) -> dict:
    """Per span name: call count, total seconds and self seconds (total
    minus the time covered by direct child spans)."""
    child_s = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict] = {}
    for (name, parent, start, end), covered in zip(spans, child_s):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered
    return out
