"""Command-line interface.

Subcommands: spectrum (closed-form eigenvalue table), eigvec (bound-state
export), simulate (truncated-lattice evolution), validate (oracle suites with
pass/fail report), figure (SVG + CSV of the spectral picture).

Exit codes: 0 success, 1 validation failure, 2 usage or domain error. Output
is deterministic: no timestamps, metadata in '#'-prefixed lines, numbers with
17 significant digits in CSV and exact round-trip floats in JSON. The
DEFECTWALK_TOL environment variable overrides the default membership
tolerances; --tol (where accepted) takes precedence over it.

Each command imports the modules it runs, so that --version and usage
errors load neither numpy nor mpmath, and only validate loads mpmath.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .config import Tolerances

__all__ = ["main", "entrypoint", "read_eigvec_csv"]

DEFAULT_OMEGA_GRID = (-3.0, -2.0, -1.0, -0.5, 0.5, 0.9, 1.5, 2.0, 3.0)
VALIDATE_SUITES = ("highprec", "roots", "residual", "decay")
INITIAL_CHOICES = {
    "origin-up": "up",
    "origin-down": "down",
    "origin-symmetric": "symmetric",
}
RESIDUAL_WINDOW = 64
RESIDUAL_BOUND = 1e-10
DECAY_RATE_RTOL = 0.10
ROOT_MATCH_TOL = 1e-8


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _tolerances(args) -> Tolerances:
    tol = Tolerances.from_env()
    value = getattr(args, "tol", None)
    if value is not None:
        tol = tol.with_equality_tol(value)
    return tol


# ---------------------------------------------------------------------------
# spectrum

def cmd_spectrum(args) -> int:
    from . import spectrum

    tol = _tolerances(args)
    quad = spectrum.eigenvalues(args.omega)
    entries = []
    for j, lam in enumerate(quad, start=1):
        entries.append(
            {
                "index": j,
                "re": float(lam.real),
                "im": float(lam.imag),
                "modulus": float(abs(lam)),
                "region": spectrum.classify(lam, tol).value,
            }
        )
    if args.format == "json":
        payload = {
            "command": "spectrum",
            "version": __version__,
            "omega": float(args.omega),
            "eigenvalues": entries,
        }
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [
            f"# defectwalk {__version__} spectrum",
            f"# omega = {_fmt(args.omega)}",
            "index,re,im,modulus,region",
        ]
        for e in entries:
            lines.append(
                f"{e['index']},{_fmt(e['re'])},{_fmt(e['im'])},"
                f"{_fmt(e['modulus'])},{e['region']}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# eigvec

def cmd_eigvec(args) -> int:
    from . import spectrum, walk

    tol = _tolerances(args)
    quad = spectrum.eigenvalues(args.omega)
    lam = quad.by_index(args.index)
    state = spectrum.eigenvector(args.omega, lam, args.window, tol)
    residual = walk.eigen_residual(state, args.omega, lam, interior_only=True)
    if args.format == "json":
        payload = {
            "command": "eigvec",
            "version": __version__,
            "omega": float(args.omega),
            "index": int(args.index),
            "window": int(args.window),
            "eigenvalue": {"re": float(lam.real), "im": float(lam.imag)},
            "amplitudes": [
                {
                    "x": x,
                    "reL": float(state.amps[x + state.window, 0].real),
                    "imL": float(state.amps[x + state.window, 0].imag),
                    "reR": float(state.amps[x + state.window, 1].real),
                    "imR": float(state.amps[x + state.window, 1].imag),
                }
                for x in state.sites()
            ],
            "interior_residual": float(residual),
        }
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [
            f"# defectwalk {__version__} eigvec",
            f"# omega = {_fmt(args.omega)}",
            f"# index = {args.index}",
            f"# window = {args.window}",
            f"# eigenvalue_re = {_fmt(lam.real)}",
            f"# eigenvalue_im = {_fmt(lam.imag)}",
            "x,reL,imL,reR,imR",
        ]
        for x in state.sites():
            l, r = state.site(x)
            lines.append(
                f"{x},{_fmt(l.real)},{_fmt(l.imag)},{_fmt(r.real)},{_fmt(r.imag)}"
            )
        lines.append(f"# interior_residual = {_fmt(residual)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def read_eigvec_csv(text: str) -> tuple[walk.WaveFunction, dict]:
    """Parse an eigvec CSV export back into a state plus its metadata."""
    import numpy as np

    from . import walk

    meta: dict[str, float] = {}
    rows: list[tuple[int, complex, complex]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                try:
                    meta[key.strip()] = float(value.strip())
                except ValueError:
                    pass
            continue
        if line.startswith("x,"):
            continue
        x, re_l, im_l, re_r, im_r = line.split(",")
        rows.append(
            (int(x), complex(float(re_l), float(im_l)), complex(float(re_r), float(im_r)))
        )
    if not rows:
        raise ValueError("no amplitude rows found")
    window = max(abs(r[0]) for r in rows)
    amps = np.zeros((2 * window + 1, 2), dtype=complex)
    for x, l, r in rows:
        amps[x + window, 0] = l
        amps[x + window, 1] = r
    return walk.WaveFunction(window, amps), meta


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    from . import walk

    chirality = INITIAL_CHOICES[args.initial]
    state = walk.delta_state(args.window, chirality)
    traj = walk.evolve(state, args.omega, args.steps, keep_states=args.dump is not None)
    if traj.truncated:
        print(
            "warning: light cone reached the window edge; steps past that are truncated",
            file=sys.stderr,
        )
    if args.dump is not None:
        _dump_states(args.dump, traj)
    rows = [
        {
            "t": t,
            "norm": float(traj.norms[t]),
            "origin_weight": float(traj.origin_weights[t]),
            "origin_prob_normalized": float(traj.origin_probs[t]),
            "growth_rate_running": float(traj.growth_running[t]),
        }
        for t in range(traj.steps + 1)
    ]
    if args.format == "json":
        payload = {
            "command": "simulate",
            "version": __version__,
            "omega": float(args.omega),
            "steps": int(args.steps),
            "window": int(args.window),
            "initial": args.initial,
            "truncated": bool(traj.truncated),
            "rows": rows,
        }
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [
            f"# defectwalk {__version__} simulate",
            f"# omega = {_fmt(args.omega)}",
            f"# steps = {args.steps}",
            f"# window = {args.window}",
            f"# initial = {args.initial}",
            "t,norm,origin_weight,origin_prob_normalized,growth_rate_running",
        ]
        for r in rows:
            lines.append(
                f"{r['t']},{_fmt(r['norm'])},{_fmt(r['origin_weight'])},"
                f"{_fmt(r['origin_prob_normalized'])},{_fmt(r['growth_rate_running'])}"
            )
        if traj.truncated:
            lines.append("# warning: light cone reached the window edge")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _dump_states(path: str, traj: walk.Trajectory) -> None:
    """Full per-step normalized states; scale restored via the log-norm column."""
    lines = [
        f"# defectwalk {__version__} simulate dump",
        "t,log_norm,x,reL,imL,reR,imR",
    ]
    for t, st in enumerate(traj.states):
        for x in st.sites():
            l, r = st.site(x)
            lines.append(
                f"{t},{_fmt(traj.log_norms[t])},{x},"
                f"{_fmt(l.real)},{_fmt(l.imag)},{_fmt(r.real)},{_fmt(r.imag)}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# validate

def _check(name: str, passed: bool, error: float) -> dict:
    return {"name": name, "passed": bool(passed), "error": float(error)}


def _validate_omega(omega: float, suites: tuple[str, ...], match_tol: float,
                    seed_grid: int | None) -> list[dict]:
    from . import oracle, spectrum, walk

    checks: list[dict] = []
    if "highprec" in suites:
        report = oracle.highprec_check(omega)
        for c in report.checks:
            checks.append(_check(f"highprec/{c.name}", c.passed, c.error))
    quad = spectrum.eigenvalues(omega)
    closed = list(quad)
    if "roots" in suites:
        scan = oracle.find_eigenvalues_numeric(omega, grid=seed_grid)
        found = scan.roots
        checks.append(_check("roots/found_four", len(found) == 4, abs(len(found) - 4)))
        if found:
            gap = max(
                max(min(abs(c - f) for f in found) for c in closed),
                max(min(abs(c - f) for c in closed) for f in found),
            )
        else:
            gap = math.inf
        checks.append(_check("roots/set_match", gap < match_tol, gap))
        placed = all(
            r.region == (spectrum.Region.XI_PLUS if r.root.real > 0 else spectrum.Region.XI_MINUS)
            for r in scan.results
        )
        checks.append(_check("roots/regions_valid", placed, 0.0 if placed else 1.0))
    if "residual" in suites:
        for j, lam in enumerate(closed, start=1):
            state = spectrum.eigenvector(omega, lam, RESIDUAL_WINDOW)
            res = walk.eigen_residual(state, omega, lam, interior_only=True)
            checks.append(
                _check(f"residual/interior{RESIDUAL_WINDOW}_lambda{j}", res < RESIDUAL_BOUND, res)
            )
    if "decay" in suites:
        for j in (1, 2, 3, 4):
            fit = oracle.residual_decay(omega, j)
            checks.append(
                _check(
                    f"decay/rate_lambda{j}", fit.relative_gap <= DECAY_RATE_RTOL,
                    fit.relative_gap,
                )
            )
    return checks


def cmd_validate(args) -> int:
    suites = VALIDATE_SUITES if args.suite == "all" else (args.suite,)
    grid = tuple(args.omega_grid) if args.omega_grid else DEFAULT_OMEGA_GRID
    match_tol = args.tol if args.tol is not None else ROOT_MATCH_TOL
    if not (math.isfinite(match_tol) and match_tol > 0):
        raise ValueError(f"--tol must be a finite positive number, got {match_tol!r}")
    results = []
    for omega in grid:
        checks = _validate_omega(omega, suites, match_tol, args.seed_grid)
        results.append(
            {
                "omega": float(omega),
                "checks": checks,
                "passed": all(c["passed"] for c in checks),
            }
        )
    all_passed = all(r["passed"] for r in results)
    if args.format == "json":
        payload = {
            "command": "validate",
            "version": __version__,
            "suites": list(suites),
            "omega_grid": [float(o) for o in grid],
            "results": results,
            "all_passed": all_passed,
        }
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [
            f"# defectwalk {__version__} validate",
            f"# suites = {'+'.join(suites)}",
            "omega,check,passed,error",
        ]
        for r in results:
            for c in r["checks"]:
                lines.append(
                    f"{_fmt(r['omega'])},{c['name']},{str(c['passed']).lower()},{_fmt(c['error'])}"
                )
        lines.append(f"# all_passed = {str(all_passed).lower()}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# figure

def cmd_figure(args) -> int:
    from . import figure

    cfg = figure.FigureConfig(
        omega_min=args.omega_min, omega_max=args.omega_max, samples=args.samples
    )
    svg_path = args.out
    csv_path = os.path.splitext(svg_path)[0] + ".csv"
    if csv_path == svg_path:
        raise ValueError(f"--out {svg_path!r} is also the path of the paired CSV; "
                         "give the SVG another extension")
    rows = figure.figure_rows(cfg)
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(figure.render_svg(rows, cfg))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(figure.rows_to_csv(rows, cfg, __version__))
    return 0


# ---------------------------------------------------------------------------
# parser

def _omega_grid_type(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad omega grid {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("omega grid is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectwalk",
        description="Point spectrum and dynamics of the one-defect walk",
    )
    parser.add_argument("--version", action="version", version=f"defectwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="closed-form eigenvalue quadruple")
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(func=cmd_spectrum)

    ev = sub.add_parser("eigvec", help="bound-state amplitudes on a window")
    ev.add_argument("--omega", type=float, required=True)
    ev.add_argument("--index", type=int, required=True, choices=(1, 2, 3, 4))
    ev.add_argument("--window", type=int, default=32)
    ev.add_argument("--format", choices=("json", "csv"), default="csv")
    ev.add_argument("--out", default=None)
    ev.add_argument("--tol", type=float, default=None)
    ev.set_defaults(func=cmd_eigvec)

    sim = sub.add_parser("simulate", help="evolve a delta start on a finite window")
    sim.add_argument("--omega", type=float, required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--window", type=int, required=True)
    sim.add_argument("--initial", choices=sorted(INITIAL_CHOICES), default="origin-up")
    sim.add_argument("--format", choices=("json", "csv"), default="csv")
    sim.add_argument("--out", default=None)
    sim.add_argument("--dump", default=None, help="write per-step states to this path")
    sim.set_defaults(func=cmd_simulate)

    va = sub.add_parser("validate", help="run oracle suites and report pass/fail")
    va.add_argument("--omega-grid", type=_omega_grid_type, default=None)
    va.add_argument("--suite", choices=VALIDATE_SUITES + ("all",), default="all")
    va.add_argument("--tol", type=float, default=None,
                    help="root set-match tolerance (default 1e-8)")
    va.add_argument("--seed-grid", type=int, default=None,
                    help="Newton seed grid resolution per axis")
    va.add_argument("--format", choices=("json", "csv"), default="json")
    va.add_argument("--out", default=None)
    va.set_defaults(func=cmd_validate)

    fig = sub.add_parser("figure", help="SVG + CSV of circle, arcs, loci, markers")
    fig.add_argument("--omega-min", type=float, default=-3.0)
    fig.add_argument("--omega-max", type=float, default=3.0)
    fig.add_argument("--samples", type=int, default=121)
    fig.add_argument("--out", default="figure.svg")
    fig.set_defaults(func=cmd_figure)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
