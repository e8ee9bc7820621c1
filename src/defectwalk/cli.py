"""Command-line interface.

Subcommands: spectrum (closed-form eigenvalue table), eigvec (bound-state
export), simulate (truncated-lattice evolution), validate (oracle suites with
pass/fail report), figure (SVG + CSV of the spectral picture).

Exit codes: 0 success, 1 validation failure, 2 usage or domain error.

Output is deterministic, with no timestamps. Every table goes through one
writer, ``write_table``, in one of two formats:

- JSON: one object, ``{"command", "version", ...}``, keys sorted, indented by
  two, floats as exact round-trip reprs, with the table as a list of records.
- CSV: a ``# defectwalk <version> <command>`` line, metadata as
  ``# key = value`` lines, the column row, one line per row, and trailing
  ``#`` comments (``# key = value`` lines or a warning). Floats have 17
  significant digits, booleans are ``true``/``false``, and a missing value is
  an empty cell.

``simulate --dump`` formats the per-step states one step at a time after the
run completes, so writing it takes O(window) memory on top of the run, and a
run that fails writes nothing. ``spectrum`` labels each eigenvalue with its
region (``spectrum.classify``) under one region tolerance: ``--tol`` if
given, else the DEFECTWALK_TOL environment variable if set, else 1e-9; the
environment is not read when ``--tol`` is given.

Each command imports the modules it runs, so that --version and usage
errors load neither numpy nor mpmath, and only validate loads mpmath.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections.abc import Sequence
from itertools import chain, repeat

from . import __version__
from .config import check_tolerance, region_tolerance

__all__ = ["main", "entrypoint", "write_table"]

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


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def meta(**pairs) -> list[str]:
    """``key = value`` metadata lines, values formatted as CSV cells."""
    return [f"{key} = {_cell(value)}" for key, value in pairs.items()]


def write_table(out: str | None, fmt: str, command: str, columns: dict, *,
                key: str | None = None, fields: dict | None = None,
                head: Sequence[str] = (), tail: Sequence[str] = ()) -> None:
    """Write one table to the file ``out``, or to stdout if it is None.

    ``columns`` maps each column name to its values, all of one length; they
    are read once, row by row, so they may be lazy iterables. ``fmt`` "json"
    writes ``{"command", "version", **fields}``, plus the rows as records
    under ``key`` if one is given. ``fmt`` "csv" writes the header line, the
    ``head`` lines as comments, the column row, each row as soon as it is
    formatted, and the ``tail`` lines as comments.
    """
    rows = zip(*columns.values())
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8")) as fh:
        if fmt == "json":
            payload = {"command": command, "version": __version__, **(fields or {})}
            if key is not None:
                payload[key] = [dict(zip(columns, row)) for row in rows]
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            return
        fh.write(f"# defectwalk {__version__} {command}\n")
        fh.writelines(f"# {line}\n" for line in head)
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)
        fh.writelines(f"# {line}\n" for line in tail)


# ---------------------------------------------------------------------------
# spectrum

def cmd_spectrum(args) -> int:
    from . import spectrum

    tol = region_tolerance(args.tol)
    quad = spectrum.eigenvalues(args.omega)
    write_table(
        args.out, args.format, "spectrum",
        {
            "index": [1, 2, 3, 4],
            "re": [float(lam.real) for lam in quad],
            "im": [float(lam.imag) for lam in quad],
            "modulus": [float(abs(lam)) for lam in quad],
            "region": [spectrum.classify(lam, tol).value for lam in quad],
        },
        key="eigenvalues", fields={"omega": float(args.omega)}, head=meta(omega=args.omega),
    )
    return 0


# ---------------------------------------------------------------------------
# eigvec

def cmd_eigvec(args) -> int:
    from . import spectrum, walk

    lam = spectrum.eigenvalues(args.omega).by_index(args.index)
    state = spectrum.eigenvector(args.omega, lam, args.window)
    residual = float(walk.eigen_residual(state, args.omega, lam, interior_only=True))
    if not residual < RESIDUAL_BOUND:
        raise ArithmeticError(
            f"omega = {args.omega!r}: the bound state of lambda_{args.index} on window "
            f"{args.window} has interior residual {residual:.3e}, not below {RESIDUAL_BOUND:g}"
        )
    re_l, im_l, re_r, im_r = state.amps.view(float).T.tolist()
    write_table(
        args.out, args.format, "eigvec",
        {"x": state.sites(), "reL": re_l, "imL": im_l, "reR": re_r, "imR": im_r},
        key="amplitudes",
        fields={
            "omega": float(args.omega),
            "index": int(args.index),
            "window": int(args.window),
            "eigenvalue": {"re": float(lam.real), "im": float(lam.imag)},
            "interior_residual": residual,
        },
        head=meta(omega=args.omega, index=args.index, window=args.window,
                  eigenvalue_re=lam.real, eigenvalue_im=lam.imag),
        tail=meta(interior_residual=residual),
    )
    return 0


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    from . import walk

    chirality = INITIAL_CHOICES[args.initial]
    state = walk.delta_state(args.window, chirality)
    traj = walk.evolve(state, args.omega, args.steps, keep_states=args.dump is not None)
    if traj.truncated:
        print(
            f"warning: light cone passed the window edge at step {traj.truncated_from_step}; "
            "that step and later ones are truncated",
            file=sys.stderr,
        )
    if args.dump is not None:
        _dump_states(args.dump, traj)
    write_table(
        args.out, args.format, "simulate",
        {
            "t": range(traj.steps + 1),
            "norm": traj.norms.tolist(),
            "origin_weight": traj.origin_weights.tolist(),
            "origin_prob_normalized": traj.origin_probs.tolist(),
            "growth_rate_running": traj.growth_running.tolist(),
        },
        key="rows",
        fields={
            "omega": float(args.omega),
            "steps": int(args.steps),
            "window": int(args.window),
            "initial": args.initial,
            "truncated": bool(traj.truncated),
        },
        head=meta(omega=args.omega, steps=args.steps, window=args.window,
                  initial=args.initial),
        tail=["warning: light cone reached the window edge"] if traj.truncated else [],
    )
    return 0


def _dump_states(path: str, traj: walk.Trajectory) -> None:
    """Full per-step normalized states; scale restored via the log-norm column.

    Each step's rows are formatted from that step's state alone, so the dump
    takes O(window) memory on top of the trajectory."""
    sites = range(-traj.window, traj.window + 1)

    def per_step(values):
        return chain.from_iterable(repeat(v, len(sites)) for v in values)

    def amps(part):  # 0, 1, 2, 3: reL, imL, reR, imR
        return chain.from_iterable(s.amps.view(float)[:, part].tolist() for s in traj.states)

    write_table(
        path, "csv", "simulate dump",
        {
            "t": per_step(range(len(traj.states))),
            "log_norm": per_step(traj.log_norms.tolist()),
            "x": chain.from_iterable(repeat(sites, len(traj.states))),
            "reL": amps(0),
            "imL": amps(1),
            "reR": amps(2),
            "imR": amps(3),
        },
    )


# ---------------------------------------------------------------------------
# validate

def _check(name: str, passed: bool, error: float) -> dict:
    return {"name": name, "passed": bool(passed), "error": float(error)}


def _validate_omega(omega: float, suites: tuple[str, ...], match_tol: float,
                    seed_grid: int | None) -> list[dict]:
    from . import oracle, spectrum, walk

    checks: list[dict] = []
    if "highprec" in suites:
        for c in oracle.highprec_check(omega):
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
    match_tol = ROOT_MATCH_TOL if args.tol is None else check_tolerance(args.tol, "--tol")
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
    flat = [(r["omega"], c) for r in results for c in r["checks"]]
    write_table(
        args.out, args.format, "validate",
        {
            "omega": [omega for omega, _ in flat],
            "check": [c["name"] for _, c in flat],
            "passed": [c["passed"] for _, c in flat],
            "error": [c["error"] for _, c in flat],
        },
        fields={
            "suites": list(suites),
            "omega_grid": [float(o) for o in grid],
            "results": results,
            "all_passed": all_passed,
        },
        head=meta(suites="+".join(suites)),
        tail=meta(all_passed=all_passed),
    )
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
        fh.write(figure.render_svg(rows))
    figure.rows_to_csv(rows, cfg, csv_path)
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


def _out_path(text: str) -> str | None:
    """An --out path; "-" is stdout, which the writer takes as None."""
    return None if text == "-" else text


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
    sp.add_argument("--out", type=_out_path, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(func=cmd_spectrum)

    ev = sub.add_parser("eigvec", help="bound-state amplitudes on a window")
    ev.add_argument("--omega", type=float, required=True)
    ev.add_argument("--index", type=int, required=True, choices=(1, 2, 3, 4))
    ev.add_argument("--window", type=int, default=32)
    ev.add_argument("--format", choices=("json", "csv"), default="csv")
    ev.add_argument("--out", type=_out_path, default=None)
    ev.set_defaults(func=cmd_eigvec)

    sim = sub.add_parser("simulate", help="evolve a delta start on a finite window")
    sim.add_argument("--omega", type=float, required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--window", type=int, required=True)
    sim.add_argument("--initial", choices=sorted(INITIAL_CHOICES), default="origin-up")
    sim.add_argument("--format", choices=("json", "csv"), default="csv")
    sim.add_argument("--out", type=_out_path, default=None)
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
    va.add_argument("--out", type=_out_path, default=None)
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
