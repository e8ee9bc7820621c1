from __future__ import annotations

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import defectwalk as dw
from defectwalk import cli
from defectwalk import spectrum as spectrum_mod

from .conftest import run_cli


# --- process-level contract -----------------------------------------------------

def test_module_entry_point_and_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"defectwalk {dw.__version__}"


def _imported_by(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -X importtime -m defectwalk *args``; the names of the
    modules the process imported, from the importtime lines on stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "defectwalk", *args],
        capture_output=True, text=True, timeout=120,
    )
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc, names


def test_startup_imports_only_what_the_subcommand_runs(tmp_path):
    proc, names = _imported_by("--version")
    assert proc.returncode == 0
    assert "defectwalk.cli" in names
    assert not {"numpy", "mpmath"} & names
    proc, names = _imported_by("spectrum", "--omega", "nope")  # usage error
    assert proc.returncode == 2
    assert not {"numpy", "mpmath"} & names
    proc, names = _imported_by("spectrum", "--omega", "2")
    assert proc.returncode == 0
    assert "mpmath" not in names
    proc, names = _imported_by("validate", "--omega-grid", "2", "--suite", "highprec",
                               "--out", str(tmp_path / "v.json"))
    assert proc.returncode == 0
    assert "mpmath" in names


def test_package_names_resolve_on_first_use():
    code = (
        "import sys\n"
        "import defectwalk\n"
        "assert not {'numpy', 'mpmath'} & set(sys.modules)\n"
        "fit = defectwalk.oracle.residual_decay\n"
        "from defectwalk import build_dense\n"
        "assert build_dense is defectwalk.oracle.build_dense\n"
        "assert set(defectwalk.__all__) <= set(dir(defectwalk))\n"
        "for name in defectwalk.__all__:\n"
        "    getattr(defectwalk, name)\n"
        "print(fit.__module__, build_dense.__module__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["defectwalk.oracle", "defectwalk.oracle"]
    with pytest.raises(AttributeError):
        dw.no_such_name


def test_help_and_missing_subcommand():
    assert run_cli("--help").returncode == 0
    assert run_cli().returncode == 2          # subcommand is required
    assert run_cli("nonsense").returncode == 2


def test_domain_errors_exit_2(tmp_path):
    for args in (
        ("spectrum", "--omega", "1"),
        ("spectrum", "--omega", "0"),
        ("eigvec", "--omega", "2", "--index", "5"),   # argparse choices
        ("eigvec", "--omega", "2", "--index", "1", "--window", "0"),
        ("simulate", "--omega", "0", "--steps", "5", "--window", "8"),
        # the first step's norm, |omega|, squares past the largest double
        ("simulate", "--omega", "1.4e154", "--steps", "1", "--window", "4"),
        # a root set-match tolerance that no gap can meet is a usage error,
        # not a failed validation
        *(("validate", "--suite", "roots", "--omega-grid", "2", "--tol", bad)
          for bad in ("nan", "0", "-1e-8", "inf")),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert "error" in proc.stderr.lower() or "usage" in proc.stderr.lower()
    # a growing run whose origin_weight leaves double range fails with a
    # reason, not a bare "math range error", and writes nothing
    out = tmp_path / "sim.csv"
    proc = run_cli("simulate", "--omega", "3", "--steps", "2000", "--window", "2048",
                   "--out", str(out))
    assert proc.returncode == 2
    assert "math range error" not in proc.stderr
    assert "omega=3.0" in proc.stderr and "step 1141" in proc.stderr
    assert "log-norm is 355.2" in proc.stderr
    assert not out.exists()
    # so does a step whose norm overflows, without a numpy warning
    dump = tmp_path / "dump.csv"
    for steps in ("1", "3"):
        proc = run_cli("simulate", "--omega", "1.4e154", "--steps", steps, "--window", "4",
                       "--out", str(out), "--dump", str(dump))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: omega=1.4e+154: ") and "step 1:" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists() and not dump.exists()


def test_output_is_byte_deterministic():
    for args in (
        ("spectrum", "--omega", "2"),
        ("eigvec", "--omega", "-0.5", "--index", "3", "--window", "12"),
        ("simulate", "--omega", "2", "--steps", "20", "--window", "32"),
    ):
        first = run_cli(*args, check=True).stdout
        second = run_cli(*args, check=True).stdout
        assert first == second, args


def _records(payload: dict) -> list[dict]:
    """The JSON table a command's CSV rows carry, one record per row."""
    if payload["command"] == "validate":
        return [{"omega": r["omega"], "check": c["name"], "passed": c["passed"],
                 "error": c["error"]} for r in payload["results"] for c in r["checks"]]
    key = {"spectrum": "eigenvalues", "eigvec": "amplitudes", "simulate": "rows"}
    return payload[key[payload["command"]]]


def _scalars(payload: dict, prefix: str = "") -> dict:
    """Top-level JSON values by CSV metadata key: nested keys joined by '_',
    lists of names joined by '+'."""
    out = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            out.update(_scalars(value, f"{prefix}{key}_"))
        elif isinstance(value, list):
            if all(isinstance(v, str) for v in value):
                out[prefix + key] = "+".join(value)
        else:
            out[prefix + key] = value
    return out


def _cell_is(cell: str, value) -> bool:
    """Whether a CSV cell reads back as exactly this JSON value."""
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    return repr(type(value)(cell)) == repr(value)  # repr tells -0.0 from 0.0


@pytest.mark.parametrize("args", [
    *(("spectrum", "--omega", om) for om in ("2", "-0.5")),
    *(("eigvec", "--omega", om, "--index", "3", "--window", "6") for om in ("2", "-0.5")),
    *(("simulate", "--omega", om, "--steps", "12", "--window", "16") for om in ("2", "-0.5")),
    ("simulate", "--omega", "1.5", "--steps", "12", "--window", "5"),  # truncated
    ("validate", "--omega-grid", "2,-0.5", "--suite", "highprec"),
])
def test_csv_and_json_carry_the_same_table(args, capsys):
    rc = cli.main([*args, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert cli.main([*args, "--format", "csv"]) == rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# defectwalk {dw.__version__} {args[0]}"
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    columns, rows = lines[body[0]].split(","), [lines[i].split(",") for i in body[1:]]
    assert body == list(range(body[0], body[-1] + 1))  # comments only around the table
    records = _records(payload)
    assert len(rows) == len(records) > 0
    for row, record in zip(rows, records):
        assert sorted(columns) == sorted(record)
        for name, cell in zip(columns, row, strict=True):
            assert _cell_is(cell, record[name]), (name, cell, record[name])
    scalars = _scalars(payload)
    comments = [ln[2:] for ln in lines[1:body[0]] + lines[body[-1] + 1:]]
    for comment in comments:
        if comment.startswith("warning:"):
            continue
        key, _, value = comment.partition(" = ")
        assert _cell_is(value, scalars[key]), comment
    warned = any(c.startswith("warning:") for c in comments)
    assert warned == payload.get("truncated", False)


# --- spectrum ---------------------------------------------------------------------

def test_spectrum_json_payload(capsys):
    assert cli.main(["spectrum", "--omega", "-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "spectrum"
    assert payload["omega"] == -1.0
    eigs = payload["eigenvalues"]
    assert [e["index"] for e in eigs] == [1, 2, 3, 4]
    a, b = 3.0 / math.sqrt(10.0), 1.0 / math.sqrt(10.0)
    want = {1: (a, -b), 2: (-a, -b), 3: (-a, b), 4: (a, b)}
    # negative omega pairs the first-quadrant eigenvalue with sign -1; the
    # quadruple is still +-a +- ib, indexed counterclockwise from quadrant 1
    got = {e["index"]: (e["re"], e["im"]) for e in eigs}
    assert got[1][0] == pytest.approx(a, abs=1e-14)
    assert abs(got[1][1]) == pytest.approx(b, abs=1e-14)
    for e in eigs:
        assert e["modulus"] == pytest.approx(1.0, abs=1e-14)
        assert e["region"] in ("sigma", "sigma0", "xi_plus", "xi_minus")


def test_spectrum_csv_layout(capsys):
    assert cli.main(["spectrum", "--omega", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[2] == "index,re,im,modulus,region"
    data = [ln.split(",") for ln in lines[3:]]
    assert len(data) == 4
    assert [row[0] for row in data] == ["1", "2", "3", "4"]
    assert {row[5 - 1] for row in data} == {"xi_plus", "xi_minus"}


def test_spectrum_env_tolerance_changes_classification(monkeypatch):
    monkeypatch.setenv("DEFECTWALK_TOL", "0.5")
    assert run_cli("spectrum", "--omega", "2", "--format", "csv",
                   check=True).stdout.count("sigma0") == 4
    monkeypatch.setenv("DEFECTWALK_TOL", "not-a-float")
    proc = run_cli("spectrum", "--omega", "2")
    assert proc.returncode == 2
    # --tol wins without reading the environment
    with_env = run_cli("spectrum", "--omega", "2", "--tol", "1e-6", check=True)
    monkeypatch.delenv("DEFECTWALK_TOL")
    assert with_env.stdout == run_cli("spectrum", "--omega", "2", "--tol", "1e-6",
                                      check=True).stdout
    # eigvec classifies nothing, so it does not read the tolerance
    assert run_cli("eigvec", "--omega", "2", "--index", "1", "--window", "4").returncode == 0


@pytest.mark.parametrize("bad", ["inf", "nan", "0", "-1"])
def test_spectrum_tolerance_must_be_finite_and_positive(bad, monkeypatch, capsys):
    # an infinite tolerance would put every eigenvalue on an arc corner
    monkeypatch.delenv("DEFECTWALK_TOL", raising=False)
    assert cli.main(["spectrum", "--omega", "2", "--format", "csv", "--tol", bad]) == 2
    monkeypatch.setenv("DEFECTWALK_TOL", bad)
    assert cli.main(["spectrum", "--omega", "2", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("must be a finite positive number") == 2


def test_spectrum_out_file(tmp_path):
    target = tmp_path / "eigs.json"
    assert cli.main(["spectrum", "--omega", "2", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["omega"] == 2.0


# --- eigvec -------------------------------------------------------------------------

def test_eigvec_csv_window_rows(capsys):
    assert cli.main(["eigvec", "--omega", "2", "--index", "1", "--window", "32"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    data = [ln for ln in lines if not ln.startswith("#") and not ln.startswith("x,")]
    assert len(data) == 65
    assert any("interior_residual" in ln for ln in lines)


def test_eigvec_round_trip_residual(capsys):
    assert cli.main(["eigvec", "--omega", "-0.5", "--index", "2",
                     "--window", "24"]) == 0
    lines = capsys.readouterr().out.splitlines()
    meta = dict(ln[2:].split(" = ") for ln in lines if " = " in ln)
    rows = [ln.split(",") for ln in lines if not ln.startswith(("#", "x,"))]
    assert [int(row[0]) for row in rows] == list(range(-24, 25))
    amps = [[complex(float(re_l), float(im_l)), complex(float(re_r), float(im_r))]
            for _, re_l, im_l, re_r, im_r in rows]
    state = dw.WaveFunction(24, amps)
    omega = float(meta["omega"])
    lam = complex(float(meta["eigenvalue_re"]), float(meta["eigenvalue_im"]))
    assert omega == -0.5
    assert dw.eigen_residual(state, omega, lam) <= 1e-12
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("window", [4, 64])
@pytest.mark.parametrize("omega", ["3e4", "-3e4", "1e5", "-1e5", "1e14", "1e16", "1e17",
                                   "1e-13", "1e-16", "1e-50", "1e-160"])
def test_eigvec_writes_a_bound_state_or_fails_naming_omega(omega, window, capsys):
    # at the ends of the omega range the state is either a bound state to
    # RESIDUAL_BOUND or a loud error, never a wrong state written with exit 0
    for index in (1, 2, 3, 4):
        rc = cli.main(["eigvec", f"--omega={omega}", "--index", str(index),
                       "--window", str(window), "--format", "json"])
        out, err = capsys.readouterr()
        if rc == 0:
            assert json.loads(out)["interior_residual"] < cli.RESIDUAL_BOUND
        else:
            assert rc == 2 and out == ""
            assert "omega" in err and f"lambda_{index}" in err and str(window) in err


def test_eigvec_json_format(capsys):
    assert cli.main(["eigvec", "--omega", "2", "--index", "4", "--window",
                     "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window"] == 8
    assert len(payload["amplitudes"]) == 17
    assert payload["interior_residual"] < 1e-12


# --- simulate -----------------------------------------------------------------------

def test_simulate_csv_columns_and_values(capsys):
    assert cli.main(["simulate", "--omega", "2", "--steps", "8", "--window",
                     "16"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    header = [ln for ln in lines if ln.startswith("t,")][0]
    assert header == "t,norm,origin_weight,origin_prob_normalized,growth_rate_running"
    data = [ln.split(",") for ln in lines if ln[:1].isdigit()]
    assert len(data) == 9
    assert float(data[0][1]) == 1.0
    assert float(data[1][1]) == pytest.approx(2.0, rel=1e-14)  # one-step norm = |omega|
    # odd steps have exactly zero origin probability for a delta start
    assert float(data[1][3]) == 0.0
    assert float(data[3][3]) == 0.0


def test_simulate_truncation_warning():
    proc = run_cli("simulate", "--omega", "2", "--steps", "30", "--window", "10")
    assert proc.returncode == 0
    assert "window edge at step 11;" in proc.stderr
    assert "# warning" in proc.stdout
    clean = run_cli("simulate", "--omega", "2", "--steps", "9", "--window", "10")
    assert clean.stderr == ""
    assert "# warning" not in clean.stdout


def test_simulate_initial_choices_and_dump(tmp_path, capsys):
    dump = tmp_path / "states.csv"
    assert cli.main(["simulate", "--omega", "-1", "--steps", "6", "--window",
                     "12", "--initial", "origin-symmetric",
                     "--dump", str(dump)]) == 0
    capsys.readouterr()
    lines = dump.read_text().strip().splitlines()
    assert lines[1] == "t,log_norm,x,reL,imL,reR,imR"
    assert len(lines) == 2 + 7 * 25  # (steps+1) blocks of 2*window+1 sites


def test_dump_is_written_in_window_memory(tmp_path):
    traj = dw.evolve(dw.delta_state(256), 2.0, 100, keep_states=True)
    path = tmp_path / "states.csv"
    tracemalloc.start()
    try:
        cli._dump_states(str(path), traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text alone is larger than the bound, so the rows must be streamed
    assert path.stat().st_size > 2**20
    assert peak < 2**20


def test_simulate_json(capsys):
    assert cli.main(["simulate", "--omega", "1", "--steps", "4", "--window",
                     "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["truncated"] is False
    assert [r["t"] for r in payload["rows"]] == [0, 1, 2, 3, 4]
    for r in payload["rows"]:
        assert r["norm"] == pytest.approx(1.0, abs=1e-12)  # unitary at omega = 1


# --- validate -----------------------------------------------------------------------

def test_validate_passes_on_small_grid(capsys):
    rc = cli.main(["validate", "--omega-grid", "2,-1", "--suite", "highprec"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert payload["omega_grid"] == [2.0, -1.0]
    assert all(r["passed"] for r in payload["results"])


def test_validate_csv_trailer(capsys):
    rc = cli.main(["validate", "--omega-grid", "2", "--suite", "residual",
                   "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("# all_passed = true")
    assert "residual/interior64_lambda1" in out


def test_validate_roots_suite_with_custom_seed_grid(capsys):
    rc = cli.main(["validate", "--omega-grid", "-0.5", "--suite", "roots",
                   "--seed-grid", "20"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in payload["results"][0]["checks"]]
    assert names == ["roots/found_four", "roots/set_match", "roots/regions_valid"]


def test_validate_impossible_tolerance_exits_1(capsys):
    # honest failure path: no finite-precision scan can match sets to 1e-30
    rc = cli.main(["validate", "--omega-grid", "2", "--suite", "roots",
                   "--tol", "1e-30", "--seed-grid", "16"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False
    failed = [c for r in payload["results"] for c in r["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["roots/set_match"]


def test_validate_catches_a_drifted_closed_form(capsys, monkeypatch):
    # mutation check: nudge the closed form and the blind scan must disagree
    true_eigenvalues = spectrum_mod.eigenvalues

    def drifted(omega):
        quad = true_eigenvalues(omega)
        return spectrum_mod.SpectralQuadruple(
            quad.lambda1 + 1e-4, quad.lambda2 + 1e-4,
            quad.lambda3 + 1e-4, quad.lambda4 + 1e-4,
        )

    monkeypatch.setattr(spectrum_mod, "eigenvalues", drifted)
    rc = cli.main(["validate", "--omega-grid", "2", "--suite", "roots",
                   "--seed-grid", "16"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is False


# --- figure -------------------------------------------------------------------------

def _read_figure_rows(csv_path):
    rows = []
    for line in csv_path.read_text().splitlines():
        if line.startswith("#") or line.startswith("series,") or not line:
            continue
        series, omega, index, re, im = line.split(",")
        rows.append((series, float(omega) if omega else None, int(index),
                     float(re), float(im)))
    return rows


def test_figure_writes_svg_and_csv(tmp_path):
    out = tmp_path / "loci.svg"
    assert cli.main(["figure", "--out", str(out), "--samples", "41"]) == 0
    svg = out.read_text()
    assert svg.startswith("<?xml")
    assert "<svg" in svg and "polyline" in svg and "circle" in svg
    rows = _read_figure_rows(tmp_path / "loci.csv")
    series = {r[0] for r in rows}
    assert series == {"unit_circle", "sigma_arc", "locus", "marker"}


def test_figure_markers_sit_on_the_unit_circle(tmp_path):
    out = tmp_path / "fig.svg"
    assert cli.main(["figure", "--out", str(out), "--samples", "21"]) == 0
    rows = _read_figure_rows(tmp_path / "fig.csv")
    markers = [r for r in rows if r[0] == "marker"]
    assert len(markers) == 4
    for _, omega, _, re, im in markers:
        assert omega == -1.0
        assert math.hypot(re, im) == pytest.approx(1.0, abs=1e-14)


def test_figure_loci_approach_the_arc_corners(tmp_path):
    out = tmp_path / "fig.svg"
    assert cli.main(["figure", "--out", str(out), "--samples", "41"]) == 0
    rows = _read_figure_rows(tmp_path / "fig.csv")
    corners = [complex(c) for c in dw.essential_spectrum_arcs(2)]

    def corner_gap(omega):
        pts = [complex(re, im) for s, om, _, re, im in rows
               if s == "locus" and om == omega]
        assert pts, omega
        return max(min(abs(p - c) for c in corners) for p in pts)

    # the sampled loci include a geometric approach omega -> 1 on both sides
    omegas = sorted({r[1] for r in rows if r[0] == "locus"})
    below = [om for om in omegas if 0.9 < om < 1.0]
    above = [om for om in omegas if 1.0 < om < 1.1]
    assert below and above
    assert corner_gap(max(below)) < 0.02
    assert corner_gap(min(above)) < 0.02
    # and the gap shrinks monotonically along the approach
    gaps_below = [corner_gap(om) for om in below]
    assert all(g1 > g2 for g1, g2 in zip(gaps_below, gaps_below[1:]))


def test_figure_rejects_bad_range(tmp_path):
    assert run_cli("figure", "--omega-min", "3", "--omega-max", "-3").returncode == 2
    # the paired CSV path of X.csv is X.csv itself: refuse, write nothing
    out = tmp_path / "fig.csv"
    proc = run_cli("figure", "--out", str(out))
    assert proc.returncode == 2
    assert "error" in proc.stderr
    assert not out.exists()
