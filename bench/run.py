#!/usr/bin/env python3
"""Benchmark of the defectwalk command line, run from the repository root:

    python3 bench/run.py --workload {validate,dynamics,interactive,all} \
        --seed N --seconds S --trace {0,1}

The client is this process, a closed loop with one client: it runs the CLI
from ``src/`` in a fresh interpreter per call, one call at a time, the way
users run it, and checks every output (see checks.py). With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it replays the same
operations in-process, once plain and once with the layer wrappers of
tracing.py, and reports per-layer times, counts and ratios plus the tracing
overhead. The last line of stdout is the JSON result; the full record
(provenance, failures by omega, output digests) goes to
``.bench_run/results/``.

``failed`` counts loud failures (a non-zero exit other than a validate
verdict, a failed validate check) and wrong outputs; ``correct`` is false
only for a wrong output: one the program reported as a success that fails
its check, or output bytes that change between two runs of one operation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SCRATCH = WORK / f"run-{os.getpid()}"  # outputs of the calls of this run
sys.path.insert(0, str(BENCH))

from checks import Outcome, check  # noqa: E402
from metrics import END_TO_END, PER_LAYER, tail  # noqa: E402
from workloads import WORKLOADS, Op, make_ops  # noqa: E402

SETUP_REPEATS = 11
STARTUP_REPEATS = 5
CALL_TIMEOUT_S = 150.0


@dataclass
class Call:
    rc: int
    wall: float
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]
    rss_kb: int = 0


def child_env() -> dict[str, str]:
    """The caller's environment without DEFECTWALK_TOL, importing src/."""
    env = {k: v for k, v in os.environ.items() if k != "DEFECTWALK_TOL"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], cwd: Path, env: dict[str, str]) -> Call:
    """Run one child to completion; wall time and peak RSS from wait4."""
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(proc.returncode, wall, (cwd / "stdout").read_bytes(),
                (cwd / "stderr").read_bytes(), {}, usage.ru_maxrss)


def read_files(op: Op, cwd: Path) -> dict[str, bytes]:
    return {name: (cwd / name).read_bytes() for name in op.files if (cwd / name).exists()}


def clear_files(op: Op, cwd: Path) -> None:
    for name in op.files:
        (cwd / name).unlink(missing_ok=True)


def digest(call: Call) -> str:
    h = hashlib.sha256(f"rc={call.rc}\n".encode())
    h.update(call.stdout)
    for name in sorted(call.files):
        h.update(f"\0{name}\0".encode())
        h.update(call.files[name])
    return h.hexdigest()


# ---------------------------------------------------------------------------
# provenance


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import mpmath
    import mpmath.libmp
    import numpy

    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "defectwalk_tol_in_caller": "DEFECTWALK_TOL" in os.environ,
        "child_env": "DEFECTWALK_TOL unset, PYTHONPATH=src",
    }


# ---------------------------------------------------------------------------
# untraced run: the CLI in fresh interpreters


def measure_setup(env: dict[str, str]) -> list[float]:
    """Fresh interpreter to a parsed CLI; the first call, which also writes
    the bytecode cache, is not counted."""
    walls = []
    for k in range(SETUP_REPEATS + 1):
        call = spawn([sys.executable, "-m", "defectwalk", "--version"], SCRATCH, env)
        if call.rc != 0 or not call.stdout.startswith(b"defectwalk "):
            raise RuntimeError(f"defectwalk --version failed: {call.stderr.decode()!r}")
        if k:
            walls.append(call.wall)
    return walls


class Ledger:
    """Every execution of every operation, with digests from the first pass."""

    def __init__(self) -> None:
        self.rows: list[tuple[Op, Call, Outcome]] = []
        self.first: dict[int, tuple[str, Outcome]] = {}

    def record(self, index: int, op: Op, call: Call) -> Outcome:
        d = digest(call)
        if index not in self.first:
            outcome = check(op, call.rc, call.stdout, call.stderr, call.files)
            self.first[index] = (d, outcome)
        elif self.first[index][0] == d:
            outcome = self.first[index][1]
        else:
            omega = op.omegas[0] if len(op.omegas) == 1 else None
            outcome = Outcome(attempted=self.first[index][1].attempted,
                              failures=[(omega, "output differs from the first pass")],
                              wrong=True)
        self.rows.append((op, call, outcome))
        return outcome

    def digests(self) -> list[str]:
        return [self.first[i][0] for i in sorted(self.first)]


def run_cli(ops: list[Op], seconds: float, env: dict[str, str]) -> tuple[Ledger, int]:
    """Whole passes over ``ops``; another pass starts only if one more pass
    of the last pass's duration still ends within ``seconds``."""
    ledger = Ledger()
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for index, op in enumerate(ops):
            clear_files(op, SCRATCH)
            call = spawn([sys.executable, "-m", "defectwalk", *op.argv], SCRATCH, env)
            call.files = read_files(op, SCRATCH)
            clear_files(op, SCRATCH)
            ledger.record(index, op, call)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return ledger, passes


def end_to_end(ledger: Ledger, setup: list[float]) -> tuple[dict[str, float], dict]:
    """Every timing is per operation of the list: the median of its wall
    times over the passes, so a burst of machine noise in one pass and the
    number of passes that fit move the result little."""
    n = len(ledger.first)
    walls: dict[int, list[float]] = {}
    for k, (_, call, _) in enumerate(ledger.rows):
        walls.setdefault(k % n, []).append(call.wall)
    latency = [statistics.median(walls[i]) for i in range(n)]
    outcomes = [ledger.first[i][1] for i in range(n)]
    sims = [(latency[i], o.site_steps) for i, o in enumerate(outcomes) if o.site_steps]
    every = [o for _, _, o in ledger.rows]
    tail_s, tail_at = tail(latency)
    values = {
        "setup_s": statistics.median(setup),
        "omega_per_s": statistics.median(
            [o.omega_points / latency[i] for i, o in enumerate(outcomes) if o.omega_points]),
        "site_steps_per_s": sum(s for _, s in sims) / sum(w for w, _ in sims) if sims else 0.0,
        "latency_p50_ms": 1e3 * statistics.median(latency),
        "latency_tail_ms": 1e3 * tail_s,
        "fail_frac": sum(len(o.failures) for o in every) / sum(o.attempted for o in every),
        "peak_rss_mb": max(call.rss_kb for _, call, _ in ledger.rows) / 1024.0,
    }
    passes = len(ledger.rows) // n
    notes = {"setup_s": f"median of {len(setup)} --version calls",
             "latency_p50_ms": f"median of {n} operations x {passes} passes",
             "latency_tail_ms": tail_at,
             "omega_per_s": "median over operations with omega points",
             "site_steps_per_s": f"{len(sims)} completed simulate runs"}
    return values, notes


# ---------------------------------------------------------------------------
# traced run: start-up from -X importtime, layers from an in-process replay


def measure_startup(env: dict[str, str]) -> dict[str, float]:
    """Interpreter start and import self times, median over fresh processes."""
    samples: dict[str, list[float]] = {k: [] for k in (
        "startup.interpreter_ms", "startup.import_numpy_ms",
        "startup.import_mpmath_ms", "startup.import_defectwalk_ms")}
    spawn([sys.executable, "-m", "defectwalk", "--version"], SCRATCH, env)
    for _ in range(STARTUP_REPEATS):
        bare = spawn([sys.executable, "-c", "pass"], SCRATCH, env)
        samples["startup.interpreter_ms"].append(1e3 * bare.wall)
        call = spawn([sys.executable, "-X", "importtime", "-m", "defectwalk", "--version"],
                     SCRATCH, env)
        cumulative: dict[str, int] = {}
        own_us = 0
        for line in call.stderr.decode().splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
            if m:
                cumulative[m.group(3)] = int(m.group(1))
                if len(m.group(2)) == 1 and m.group(3).split(".")[0] == "defectwalk":
                    own_us += int(m.group(1))  # top-level package and cli imports
        numpy_us = cumulative.get("numpy", 0)
        mpmath_us = cumulative.get("mpmath", 0)
        samples["startup.import_numpy_ms"].append(numpy_us / 1e3)
        samples["startup.import_mpmath_ms"].append(mpmath_us / 1e3)
        samples["startup.import_defectwalk_ms"].append((own_us - numpy_us - mpmath_us) / 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}


def import_package():
    sys.path.insert(0, str(SRC))
    import defectwalk
    import defectwalk.cli

    if Path(defectwalk.__file__).resolve().parent != SRC / "defectwalk":
        raise RuntimeError(f"imported defectwalk from {defectwalk.__file__}, not {SRC}")
    return defectwalk


def replay_one(package, index: int, op: Op, tracer=None) -> Call:
    """Run one operation through cli.main in this process."""
    clear_files(op, SCRATCH)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        main = lambda: package.cli.main(list(op.argv))  # noqa: E731
        try:
            rc = tracer.run_op(index, op.kind, main) if tracer else main()
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - start
    call = Call(rc, wall, out.getvalue().encode(), err.getvalue().encode(),
                read_files(op, SCRATCH))
    clear_files(op, SCRATCH)
    return call


def per_layer(ops: list[Op], env: dict[str, str]) -> tuple[dict[str, float], Ledger, list]:
    from tracing import Tracer, layer_metrics

    os.environ.pop("DEFECTWALK_TOL", None)
    values = measure_startup(env)
    package = import_package()
    tracer = Tracer()
    plain, traced = [], []
    cwd = os.getcwd()
    os.chdir(SCRATCH)
    try:
        # plain and traced runs of each operation, alternating which goes
        # first so that first-call costs do not all land on one side
        for index, op in enumerate(ops):
            for traced_run in ((False, True) if index % 2 == 0 else (True, False)):
                if traced_run:
                    tracer.install(package)
                    try:
                        traced.append(replay_one(package, index, op, tracer))
                    finally:
                        tracer.uninstall()
                else:
                    plain.append(replay_one(package, index, op))
    finally:
        os.chdir(cwd)
    ledger = Ledger()
    for index, (op, call, reference) in enumerate(zip(ops, traced, plain)):
        outcome = ledger.record(index, op, call)
        if digest(reference) != digest(call):
            outcome.failures.append((None, "traced and untraced output differ"))
            outcome.wrong = True
    values.update(layer_metrics(tracer))
    values["cli.bytes_out"] = sum(len(c.stdout) + sum(map(len, c.files.values())) for c in traced)
    plain_s = sum(c.wall for c in plain)
    traced_s = sum(c.wall for c in traced)
    values["trace.overhead_ms"] = 1e3 * (traced_s - plain_s)
    values["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    spans = [[s.name, s.op, s.parent, s.start, s.end, s.ok, s.attrs] for s in tracer.spans]
    return values, ledger, spans


# ---------------------------------------------------------------------------


def failures_by_omega(ledger: Ledger) -> list[dict]:
    seen = {}
    for op, _, outcome in ledger.rows:
        for omega, cause in outcome.failures:
            seen.setdefault((op.kind, omega, cause), None)
    return [{"kind": k, "omega": w, "cause": c} for k, w, c in seen]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> None:
    """One run: measure, check, write the record and print the report."""
    SCRATCH.mkdir()
    env = child_env()
    ops = make_ops(workload, seed)
    started = time.perf_counter()
    record: dict = {"workload": workload, "seconds": seconds, "trace": trace,
                    "provenance": provenance(seed), "operations": len(ops)}
    try:
        if trace:
            values, ledger, spans = per_layer(ops, env)
            names = PER_LAYER
            units = {k: v[0] for k, v in PER_LAYER.items()}
            notes = {k: v[2] for k, v in PER_LAYER.items()}
            tag = f"{workload}-seed{seed}"
            (WORK / "results" / f"spans-{tag}.json").write_text(json.dumps(spans))
        else:
            setup = measure_setup(env)
            ledger, passes = run_cli(ops, seconds, env)
            values, notes = end_to_end(ledger, setup)
            names = END_TO_END
            units = {k: v[0] for k, v in END_TO_END.items()}
            record["passes"] = passes
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    outcomes = [o for _, _, o in ledger.rows]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    correct = not any(o.wrong for o in outcomes)
    digests = ledger.digests()
    record.update(
        correct=correct, attempted=attempted, failed=failed,
        wall_s=time.perf_counter() - started,
        metrics={k: {"value": values[k], "unit": units[k], "note": notes.get(k, "")}
                 for k in names},
        failures=failures_by_omega(ledger),
        digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
        op_digests=digests,
        calls=[{"argv": " ".join(op.argv)[:200], "rc": c.rc, "wall_s": c.wall,
                "rss_kb": c.rss_kb, "failures": o.failures} for op, c, o in ledger.rows],
    )
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1))

    print(f"# defectwalk benchmark  workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={trace}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for k in names:
        print(f"{k:34s} {values[k]:>16.6g} {units[k]:6s} {notes.get(k, '')}")
    print(f"# attempted {attempted}, failed {failed}, correct {str(correct).lower()}, "
          f"output digest {record['digest'][:16]}")
    for f in record["failures"]:
        print(f"# failure {f['kind']} omega={f['omega']}: {f['cause']}")
    print(f"# full record: {WORK.relative_to(ROOT)}/results/{name}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in names}}
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="'all' runs the workloads one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "defectwalk" / "__init__.py").is_file():
        print(f"error: no defectwalk sources under {SRC}", file=sys.stderr)
        return 2
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
