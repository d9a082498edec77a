"""Runtime span tracer for the ``pairdecomp`` package.

``Tracer.install`` replaces every public function defined in a
``pairdecomp`` module with a timing wrapper, in every ``pairdecomp``
module namespace that binds it: ``cli`` binds ``fidelity_spectrum``
through ``from .fidelity import``, so patching only ``fidelity`` would
miss the CLI's calls.  Public class and static methods of ``pairdecomp``
classes (``StateOperator.from_matrix``) are wrapped too.  Two probes go
beyond public names, each for a counter that no public boundary shows:

- ``optimal._lift_through_projection``, for the rows the lift appends;
- ``numpy.linalg.eigh``, ``eigvalsh`` and ``svd`` when called from
  ``pairdecomp`` outside ``hermitian_eig``, so the eigen-kernel counters
  keep their meaning if the kernel moves to LAPACK.  Their spans belong
  to the ``matcore`` layer.

Nothing under ``src/`` changes; ``uninstall`` restores every original
object, and ``find_wrappers`` lists any wrapper still in place.

A span's layer is the module that defines the function.  A layer's self
time is the duration of its spans minus the time covered by their
child spans.  Spans are kept in memory, summarised per task by
``task_summary`` and kept as [name, parent, start_ms, end_ms] rows in
``archive`` once the next task begins.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter

import numpy as np

#: attribute set on every wrapper, pointing at the wrapped function
ORIGINAL = "__bench_original__"

NUMPY_PROBES = ("eigh", "eigvalsh", "svd")
EIG_KERNEL = "matcore.hermitian_eig"
LIFT = "optimal._lift_through_projection"
RENDER = frozenset(
    ["cli.render_report", "cli.build_report", "cli.matrix_payload",
     "cli.vector_payload", "cli.floats"]
)
LAYERS = ("matcore", "states", "fidelity", "optimal", "oracle", "majorize", "cli")

# span fields
_NAME, _LAYER, _PARENT, _START, _END, _CHILD = range(6)


def package_modules(package) -> list:
    """The package and all its submodules except ``__main__``, imported."""
    prefix = package.__name__ + "."
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            importlib.import_module(prefix + info.name)
    return [package] + [
        sys.modules[name] for name in sorted(sys.modules)
        if name.startswith(prefix) and name != prefix + "__main__"
    ]


def _matrix_key(matrix) -> bytes:
    a = np.ascontiguousarray(matrix)
    return hashlib.blake2b(repr((a.shape, a.dtype.str)).encode() + a.tobytes(), digest_size=16).digest()


class Tracer:
    """Installs wrappers into a package and records spans and counters."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.archive: list[list] = []
        self.counts: Counter = Counter()
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._eig_depth = 0
        self._eig_seen: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, parent, time.perf_counter(), 0.0, 0.0])
        self._stack.append(index)
        self.counts["calls:" + name] += 1
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[_END] = time.perf_counter()
        self._stack.pop()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += span[_END] - span[_START]

    def _count_eig(self, matrix) -> None:
        self.counts["eig_calls"] += 1
        key = _matrix_key(matrix)
        if key in self._eig_seen:
            self.counts["eig_repeats"] += 1
        self._eig_seen.add(key)

    def begin_task(self) -> None:
        """Start a new task; the spans of the previous one go to ``archive``."""
        if self.spans:
            t0 = self.spans[0][_START]
            self.archive.append([
                [s[_NAME], s[_PARENT], (s[_START] - t0) * 1e3, (s[_END] - t0) * 1e3]
                for s in self.spans
            ])
        self.spans = []
        self.counts = Counter()
        self._eig_seen = set()

    # -- wrappers ------------------------------------------------------

    def _wrap(self, func, name: str, layer: str):
        tracer = self
        eig = name == EIG_KERNEL
        after = _AFTER.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            if eig:
                tracer._count_eig(args[0] if args else kwargs["matrix"])
                tracer._eig_depth += 1
            try:
                result = func(*args, **kwargs)
            finally:
                if eig:
                    tracer._eig_depth -= 1
                tracer._close(span)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        setattr(traced, ORIGINAL, func)
        self.originals[name] = func
        return traced

    def _numpy_probe(self, func, name: str):
        tracer = self
        prefix = self.package.__name__ + "."

        @functools.wraps(func)
        def probe(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if tracer._eig_depth or not caller.startswith(prefix):
                return func(*args, **kwargs)
            span = tracer._open(name, "matcore")
            tracer._count_eig(args[0] if args else kwargs["a"])
            tracer._eig_depth += 1
            try:
                return func(*args, **kwargs)
            finally:
                tracer._eig_depth -= 1
                tracer._close(span)

        setattr(probe, ORIGINAL, func)
        return probe

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        prefix = self.package.__name__ + "."
        wrappers: dict[int, object] = {}

        def wrapper_for(func, qualname: str):
            if id(func) not in wrappers:
                layer = func.__module__.rsplit(".", 1)[-1]
                wrappers[id(func)] = self._wrap(func, f"{layer}.{qualname}", layer)
            return wrappers[id(func)]

        for module in package_modules(self.package):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and (value.__module__ or "").startswith(prefix):
                    self._patch(module, attr, wrapper_for(value, value.__qualname__))
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for name, member in list(vars(value).items()):
                        if not name.startswith("_") and isinstance(member, (classmethod, staticmethod)):
                            func = member.__func__
                            self._patch(value, name, type(member)(wrapper_for(func, func.__qualname__)))
        optimal = sys.modules[prefix + "optimal"]
        lift = LIFT.split(".")[1]
        self._patch(optimal, lift, wrapper_for(vars(optimal)[lift], lift))
        for attr in NUMPY_PROBES:
            self._patch(np.linalg, attr, self._numpy_probe(getattr(np.linalg, attr), f"numpy.linalg.{attr}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summaries -----------------------------------------------------

    def task_summary(self, factor: float = 1.0) -> Counter:
        """Counters of the current task, plus span times in ms, multiplied
        by ``factor``, under keys starting with ``ms:`` (inclusive) and
        ``self_ms:`` (per layer)."""
        out = Counter()
        spans = self.spans
        to_ms = 1e3 * factor
        for span in spans:
            name, layer = span[_NAME], span[_LAYER]
            ms = (span[_END] - span[_START]) * to_ms
            out[f"self_ms:{layer}"] += ms - span[_CHILD] * to_ms
            out[f"ms:{name}"] += ms
            parent = spans[span[_PARENT]][_NAME] if span[_PARENT] >= 0 else None
            if name == EIG_KERNEL or name.startswith("numpy.linalg."):
                out["ms:eig"] += ms
            if name in RENDER and parent not in RENDER:
                out["ms:render"] += ms
            if name == "cli.load_matrix_file":
                out["ms:parse"] += ms
            if parent == "cli.main" and name.startswith("cli.cmd_"):
                out["ms:parse"] += (span[_START] - spans[span[_PARENT]][_START]) * to_ms
        out.update(self.counts)
        return out


def _after_support_reduction(counts, args, result):
    counts["reduction_steps"] += len(result.steps)


def _after_lift(counts, args, result):
    counts["lift_rows_added"] += result.shape[0] - args[0].shape[0]


def _after_random_search(counts, args, result):
    counts["search_samples"] += result.samples


_AFTER = {
    "optimal.support_reduction": _after_support_reduction,
    LIFT: _after_lift,
    "oracle.random_search": _after_random_search,
}


def find_wrappers(package) -> list[str]:
    """Names in the package and in ``numpy.linalg`` that still hold a wrapper."""
    found = []
    for module in package_modules(package):
        for attr, value in vars(module).items():
            if hasattr(value, ORIGINAL):
                found.append(f"{module.__name__}.{attr}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    if hasattr(getattr(member, "__func__", None), ORIGINAL):
                        found.append(f"{module.__name__}.{attr}.{name}")
    found += [f"numpy.linalg.{attr}" for attr in NUMPY_PROBES if hasattr(getattr(np.linalg, attr), ORIGINAL)]
    return found


def layer_metrics(summary: Counter, tasks: int, untraced_task_ms: float) -> dict[str, float]:
    """Per-task layer metrics from the summed task summaries of ``tasks`` traced tasks."""

    def ratio(num, den):
        return num / den if den else 0.0

    s = summary
    per = 1.0 / tasks
    metrics = {f"{layer}.self_ms": s[f"self_ms:{layer}"] * per for layer in LAYERS}
    metrics.update({
        "matcore.eig_calls": s["eig_calls"] * per,
        "matcore.eig_repeat_share": ratio(s["eig_repeats"], s["eig_calls"]),
        "matcore.eig_ms_per_call": ratio(s["ms:eig"], s["eig_calls"]),
        "states.validate_ms": s["ms:states.StateOperator.from_matrix"] * per,
        "states.random_decomposition_calls": s["calls:states.random_decomposition"] * per,
        "fidelity.spectrum_calls": s["calls:fidelity.fidelity_spectrum"] * per,
        "optimal.support_reduction_calls": s["calls:optimal.support_reduction"] * per,
        "optimal.reduction_steps": s["reduction_steps"] * per,
        "optimal.lift_rows_added": s["lift_rows_added"] * per,
        "oracle.matching_calls": s["calls:oracle.max_weight_matching_value"] * per,
        "oracle.matching_ms_per_call": ratio(
            s["ms:oracle.max_weight_matching_value"], s["calls:oracle.max_weight_matching_value"]
        ),
        "oracle.search_samples_per_s": ratio(s["search_samples"], s["ms:oracle.random_search"] / 1e3),
        "cli.parse_ms": s["ms:parse"] * per,
        "cli.render_ms": s["ms:render"] * per,
        "trace.overhead_share": ratio(s["ms:cli.main"] * per, untraced_task_ms),
    })
    return metrics
