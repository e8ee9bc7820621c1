"""Tests of the benchmark itself: python -m pytest bench"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import defectwalk  # noqa: E402
import defectwalk.cli  # noqa: E402
from checks import check  # noqa: E402
from metrics import END_TO_END, PER_LAYER, tail  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_OMEGA_GRID, KNOWN_OVERFLOW, STRESS_OMEGAS, WORKLOADS, Op, make_ops, simulate_op,
)


# --- generator ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    first = make_ops(workload, 11)
    assert first == make_ops(workload, 11)
    assert [op.argv for op in first] != [op.argv for op in make_ops(workload, 12)]


def test_generator_keeps_the_known_failing_inputs():
    ops = make_ops("validate", 3)
    grid = [w for op in ops if op.kind == "validate" for w in op.omegas]
    assert set(DEFAULT_OMEGA_GRID) | set(STRESS_OMEGAS) <= set(grid)
    seeded = [w for w in grid if w not in DEFAULT_OMEGA_GRID + STRESS_OMEGAS]
    assert len(seeded) == len(grid) - len(DEFAULT_OMEGA_GRID) - len(STRESS_OMEGAS)
    assert all(1e-2 <= abs(w) <= 1e2 for w in seeded)
    assert {w > 0 for w in seeded} == {True, False}
    runs = [(op.omegas[0], op.params["steps"], op.params["window"])
            for op in make_ops("dynamics", 3)]
    assert KNOWN_OVERFLOW in runs
    assert {1.0, -1.0} <= {w for w, _, _ in runs}


# --- checker -------------------------------------------------------------------------

def run(op: Op, tmp_path, monkeypatch, capsys) -> tuple[int, str, dict[str, bytes]]:
    monkeypatch.chdir(tmp_path)
    rc = defectwalk.cli.main(list(op.argv))
    out = capsys.readouterr().out
    return rc, out, {name: (tmp_path / name).read_bytes() for name in op.files}


def spectrum_op(omega: float, fmt: str) -> Op:
    return Op("spectrum", ("spectrum", f"--omega={omega!r}", "--format", fmt), (omega,), (),
              {"format": fmt})


def eigvec_op(omega: float, index: int, window: int, fmt: str) -> Op:
    return Op("eigvec", ("eigvec", f"--omega={omega!r}", "--index", str(index),
                         "--window", str(window), "--format", fmt),
              (omega,), (), {"index": index, "window": window, "format": fmt})


def verdict(op: Op, rc: int, out: str, files=None, stderr: bytes = b""):
    return check(op, rc, out.encode(), stderr, files or {})


@pytest.mark.parametrize("op", [
    spectrum_op(2.0, "json"), spectrum_op(-1.0, "csv"), spectrum_op(-0.0316, "json"),
    eigvec_op(2.0, 1, 64, "csv"), eigvec_op(-0.5, 3, 40, "json"),
    simulate_op(2.0, 400, 512), simulate_op(-1.0, 120, 150, "json", "states.csv"),
    Op("figure", ("figure", "--samples", "16", "--out", "f.svg"), (), ("f.svg", "f.csv"),
       {"omega_min": -3.0, "omega_max": 3.0}),
], ids=lambda op: " ".join(op.argv))
def test_checker_accepts_the_program_outputs(op, tmp_path, monkeypatch, capsys):
    rc, out, files = run(op, tmp_path, monkeypatch, capsys)
    outcome = verdict(op, rc, out, files)
    assert not outcome.failures and not outcome.wrong, outcome.failures


def test_checker_flags_a_sign_flipped_eigenvalue(tmp_path, monkeypatch, capsys):
    op = spectrum_op(2.0, "json")
    _, out, _ = run(op, tmp_path, monkeypatch, capsys)
    payload = json.loads(out)
    payload["eigenvalues"][0]["im"] = -payload["eigenvalues"][0]["im"]
    outcome = verdict(op, 0, json.dumps(payload))
    assert outcome.wrong and len(outcome.failures) == 1


@pytest.mark.parametrize("op", [eigvec_op(1.5, 2, 32, "csv"), simulate_op(0.5, 50, 64)],
                         ids=lambda op: op.kind)
def test_checker_flags_a_dropped_row(op, tmp_path, monkeypatch, capsys):
    _, out, _ = run(op, tmp_path, monkeypatch, capsys)
    lines = out.splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if line[:1].isdigit() or line[:1] == "-"]
    del lines[rows[len(rows) // 2]]
    assert verdict(op, 0, "".join(lines)).wrong


@pytest.mark.parametrize("op", [eigvec_op(1.5, 2, 32, "csv"), simulate_op(0.5, 50, 64),
                                simulate_op(2.0, 30, 64, "json")],
                         ids=lambda op: f"{op.kind}-{op.params['format']}")
def test_checker_flags_a_nan(op, tmp_path, monkeypatch, capsys):
    _, out, _ = run(op, tmp_path, monkeypatch, capsys)
    if op.params["format"] == "json":
        payload = json.loads(out)
        payload["rows"][-3]["norm"] = math.nan
        corrupted = json.dumps(payload)
    else:
        lines = out.splitlines(keepends=True)
        row = [i for i, line in enumerate(lines) if line[:1].isdigit() or line[:1] == "-"][-3]
        fields = lines[row].rstrip("\n").split(",")
        fields[1] = "nan"
        lines[row] = ",".join(fields) + "\n"
        corrupted = "".join(lines)
    assert verdict(op, 0, corrupted).wrong


def test_checker_counts_a_crash_as_a_failure_not_a_wrong_answer():
    op = simulate_op(*KNOWN_OVERFLOW)
    outcome = check(op, 2, b"", b"error: math range error\n", {})
    assert outcome.failures == [(3.0, "exit 2: error: math range error")]
    assert not outcome.wrong and outcome.site_steps == 0


def test_checker_lists_failed_validate_checks_by_omega(tmp_path, monkeypatch, capsys):
    grid = [2.0, 100.0]
    op = Op("validate", ("validate", "--suite", "all", "--omega-grid=2.0,100.0"),
            tuple(grid), (), {"grid": grid})
    rc, out, _ = run(op, tmp_path, monkeypatch, capsys)
    outcome = verdict(op, rc, out)
    assert outcome.attempted == 2 and not outcome.wrong
    assert [w for w, _ in outcome.failures] == [100.0]
    assert "roots/found_four" in outcome.failures[0][1]


# --- tracing -------------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("cli.main", "cli", 0, None, 0, 100, attrs={"subcommand": "eigvec"}),
        Span("spectrum.eigenvector", "spectrum", 0, 0, 10, 40),
        Span("spectrum.eigenvalues", "spectrum", 0, 1, 15, 25),
        Span("walk.eigen_residual", "walk", 0, 0, 50, 90),
    ]
    assert self_times(spans) == [30, 20, 10, 40]
    tracer = Tracer()
    tracer.spans = spans
    got = layer_metrics(tracer)
    assert got["cli.self_ms.eigvec"] == pytest.approx(30e-6)
    assert got["cli.self_ms"] == pytest.approx(30e-6)
    assert got["spectrum.self_ms"] == pytest.approx(30e-6)
    assert got["spectrum.eigenvector_ms"] == pytest.approx(30e-6)
    assert got["walk.self_ms"] == pytest.approx(40e-6)


def test_tracer_wraps_every_binding_and_restores_them(tmp_path, monkeypatch, capsys):
    originals = (defectwalk.spectrum.eigenvalues, defectwalk.figure.eigenvalues,
                 defectwalk.walk.apply_U)
    tracer = Tracer()
    tracer.install(defectwalk)
    try:
        assert defectwalk.figure.eigenvalues is defectwalk.spectrum.eigenvalues
        assert defectwalk.figure.eigenvalues is not originals[0]
        monkeypatch.chdir(tmp_path)
        tracer.run_op(0, "simulate", lambda: defectwalk.cli.main(
            ["simulate", "--omega", "2", "--steps", "20", "--window", "32"]))
    finally:
        tracer.uninstall()
    assert (defectwalk.spectrum.eigenvalues, defectwalk.figure.eigenvalues,
            defectwalk.walk.apply_U) == originals
    got = layer_metrics(tracer)
    assert got["walk.apply_U_calls"] == 20
    assert got["walk.useful_step_ratio"] == 1.0
    assert [s.name for s in tracer.spans] == ["cli.main", "walk.evolve"]


# --- metrics -------------------------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(48)]
    assert tail(values) == (37.0, "p79.2 of 48")
    assert tail(values[:20]) == (19.0, "max of 20")


def test_benchmark_json_lists_the_metrics_defined_here():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        k: v[:2] for k, v in PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert not math.isnan(sum(bounds.values()))
