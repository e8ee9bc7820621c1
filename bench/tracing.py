"""In-process tracing of the defectwalk layers from outside the package.

``Tracer.install`` replaces public functions of the package's modules with
wrappers that record spans (name, layer, start, end, parent, operation) or,
for the per-step and per-root hot paths, plain call counters. Every module
binding of a wrapped function is replaced, so calls through
``from .spectrum import eigenvalues`` are seen too. ``uninstall`` restores
the originals. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

# (module, function) -> span name; the layer is the module.
SPANNED = (
    ("oracle", "highprec_check"),
    ("oracle", "find_eigenvalues_numeric"),
    ("oracle", "residual_decay"),
    ("walk", "evolve"),
    ("walk", "eigen_residual"),
    ("spectrum", "eigenvalues"),
    ("spectrum", "eigenvector"),
    ("figure", "figure_rows"),
    ("figure", "render_svg"),
    ("figure", "rows_to_csv"),
)
# Called once per step or per square root: counted, not timed, so that the
# tracing overhead stays small next to the work.
COUNTED = (
    ("walk", "apply_U"),
    ("sqrtbranch", "principal_sqrt"),
)
MODULES = ("cli", "config", "figure", "oracle", "spectrum", "sqrtbranch", "walk")


@dataclass
class Span:
    name: str
    layer: str
    op: int
    parent: int | None
    start: int
    end: int = 0
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children
    (children of one span run one after another, so they never overlap)."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, self._op, parent, time.perf_counter_ns())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, subcommand: str, call):
        """Root span 'cli.main' around one replayed command."""
        self._op = op_id
        span = self.open("cli.main", "cli")
        span.attrs["subcommand"] = subcommand
        try:
            return call()
        finally:
            self.close(span)

    def _innermost(self, name: str) -> Span | None:
        for idx in reversed(self._stack):
            if self.spans[idx].name == name:
                return self.spans[idx]
        return None

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                tracer.close(span)
            _annotate(span, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if name == "walk.apply_U":
                run = tracer._innermost("walk.evolve")
                if run is not None:
                    run.attrs["executed"] = run.attrs.get("executed", 0) + 2 * args[0].window + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Wrap the traced functions in every module of ``package``."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        targets = [(m, f, self._spanned(f"{m}.{f}", m, getattr(getattr(package, m), f)))
                   for m, f in SPANNED]
        targets += [(m, f, self._counted(f"{m}.{f}", getattr(getattr(package, m), f)))
                    for m, f in COUNTED]
        for m, f, wrapper in targets:
            original = getattr(getattr(package, m), f)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _annotate(span: Span, args, kwargs, result) -> None:
    if span.name == "oracle.find_eigenvalues_numeric":
        span.attrs.update(seeds=result.seeds_attempted, converged=result.seeds_converged,
                          roots=len(result.roots))
    elif span.name == "walk.evolve":
        steps = int(_arg(args, kwargs, 2, "steps"))
        span.attrs["completed"] = steps * (2 * _arg(args, kwargs, 0, "state").window + 1)
    elif span.name == "spectrum.eigenvector":
        span.attrs["sites"] = 2 * int(_arg(args, kwargs, 2, "window")) + 1


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times (ms), counts and ratios from the recorded spans."""
    spans = tracer.spans
    selfs = self_times(spans)
    ms = 1e-6

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name) * ms

    def attr(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    scans = [s for s in spans if s.name == "oracle.find_eigenvalues_numeric"]
    seeds = attr("oracle.find_eigenvalues_numeric", "seeds")
    runs = [s for s in spans if s.name == "walk.evolve"]
    executed = sum(s.attrs.get("executed", 0) for s in runs)
    useful = sum(s.attrs.get("completed", 0) for s in runs if s.ok)
    out = {
        "oracle.decay_ms": total("oracle.residual_decay"),
        "oracle.decay_calls": sum(s.name == "oracle.residual_decay" for s in spans),
        "oracle.scan_ms": total("oracle.find_eigenvalues_numeric"),
        "oracle.scan_seeds_attempted": seeds,
        "oracle.scan_converged_ratio": (
            attr("oracle.find_eigenvalues_numeric", "converged") / seeds if seeds else 0.0),
        "oracle.scan_roots_found": sum(s.attrs.get("roots", 0) for s in scans),
        "oracle.highprec_ms": total("oracle.highprec_check"),
        "walk.evolve_ms": total("walk.evolve"),
        "walk.evolve_ns_per_site_step": total("walk.evolve") * 1e6 / executed if executed else 0.0,
        "walk.apply_U_calls": tracer.counts.get("walk.apply_U", 0),
        "walk.useful_step_ratio": useful / executed if executed else 0.0,
        "walk.eigen_residual_ms": total("walk.eigen_residual"),
        "spectrum.eigenvalues_calls": sum(s.name == "spectrum.eigenvalues" for s in spans),
        "spectrum.eigenvector_ms": total("spectrum.eigenvector"),
        "spectrum.eigenvector_sites": attr("spectrum.eigenvector", "sites"),
        "sqrtbranch.principal_sqrt_calls": tracer.counts.get("sqrtbranch.principal_sqrt", 0),
        "figure.rows_ms": total("figure.figure_rows"),
        "figure.svg_ms": total("figure.render_svg"),
        "figure.csv_ms": total("figure.rows_to_csv"),
    }
    for layer in ("cli", "oracle", "walk", "spectrum", "figure"):
        out[f"{layer}.self_ms"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer) * ms
    for sub in ("spectrum", "eigvec", "simulate", "validate", "figure"):
        out[f"cli.self_ms.{sub}"] = sum(
            t for s, t in zip(spans, selfs)
            if s.name == "cli.main" and s.attrs["subcommand"] == sub) * ms
    return out
