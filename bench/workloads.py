"""Seeded operation lists for the three benchmark workloads.

Each workload is a list of CLI invocations (``Op``) built only from the seed.
The benchmark runs the list as one pass and repeats whole passes while they
fit in the run's time budget, so every run of a seed executes the same
operations in the same order.

Random draws use systematic sampling: one seeded offset places one point in
each of n equal strata of the unit interval. Each point is still uniform
over its stratum, so a log-uniform draw stays log-uniform, but how many
points fall into a region (such as the omega ranges where the program
currently fails) varies by at most one per region boundary between seeds,
and the total work of a pass varies little.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("validate", "dynamics", "interactive")

# The CLI's default validate grid (defectwalk.cli.DEFAULT_OMEGA_GRID), passed
# explicitly because --omega-grid replaces it.
DEFAULT_OMEGA_GRID = (-3.0, -2.0, -1.0, -0.5, 0.5, 0.9, 1.5, 2.0, 3.0)
# omega values measured to fail roots/found_four or decay/* before this
# benchmark existed; they stay in the validate grid whatever their outcome.
STRESS_OMEGAS = (-0.01, 0.01, -0.05, 0.05, -100.0, 100.0, 0.999, 1.01)
VALIDATE_SEEDED = 16
VALIDATE_CHUNK = 3  # omega points per validate call

# Acceptance criterion 6: the dynamics witness of the dominant modulus
# (growth where |lambda_1| > 1, norm conservation at omega = +-1).
WITNESS_OMEGAS = (2.0, -2.0, 3.0, -3.0, 1.5, -1.5, 1.0, -1.0)
WITNESS_STEPS = 400
WITNESS_WINDOW = 512

# Dynamics: window ~ steps ("long") and window >> steps ("wide") slots.
DYNAMICS_SLOTS = 8
LONG_WINDOWS = (256, 4096)
WIDE_WINDOWS = (4096, 32768)
SITE_STEP_CAP = 6e7  # keeps one run under ~3 s at ~40 ns per site-step
# A growing run reported to overflow (exit 2, "math range error").
KNOWN_OVERFLOW = (3.0, 2000, 2048)

# Interactive: fixed log ladder of omega for simulate so the same calls
# overflow under every seed; everything else is seeded.
INTERACTIVE_SPECTRUM = 10
INTERACTIVE_EIGVEC = 16
INTERACTIVE_FIGURE = 4
# ladder rungs (|omega| = 0.178 and 1.78) that also export every state
DUMP_RUNGS = (2, 12)
EIGVEC_WINDOWS = (32, 4096)
SIMULATE_LADDER = tuple(
    s * 10 ** (-2.0 + 4.0 * (k + 0.5) / 8) for s in (-1.0, 1.0) for k in range(8)
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv after the program name, the omega points it
    covers, the output files it writes (relative to the working directory)
    and the parameters its checker needs."""

    kind: str
    argv: tuple[str, ...]
    omegas: tuple[float, ...]
    files: tuple[str, ...] = ()
    params: dict = field(default_factory=dict, compare=False)


def fmt_omega(x: float) -> str:
    return repr(float(x))


def systematic(rng: random.Random, n: int, mirror: bool = False) -> list[float]:
    """n points in [0, 1), one per stratum [k/n, (k+1)/n), all at one seeded
    offset. With ``mirror`` the odd strata take the mirrored offset, so sums
    over the points (such as the total work of a pass) barely move between
    seeds."""
    offset = rng.random()
    return [(k + (1.0 - offset if mirror and k % 2 else offset)) / n for k in range(n)]


def log_uniform_omegas(rng: random.Random, n: int, lo_exp: float, hi_exp: float) -> list[float]:
    """n omegas, |omega| log-uniform in [10^lo_exp, 10^hi_exp], half of each
    sign, rounded to 6 significant digits. The puncture omega = 1 is moved
    off by 1e-5 (it is outside the domain, not a failing input)."""
    out = []
    for u in systematic(rng, n):
        sign = -1.0 if u < 0.5 else 1.0
        t = 2.0 * u - (0.0 if u < 0.5 else 1.0)
        w = float(f"{sign * 10 ** (lo_exp + (hi_exp - lo_exp) * t):.6g}")
        out.append(1.00001 if w == 1.0 else w)
    return out


def log_uniform_ints(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [round(lo * (hi / lo) ** u) for u in systematic(rng, n, mirror=True)]


def simulate_op(omega: float, steps: int, window: int, fmt: str = "csv",
                dump: str | None = None) -> Op:
    argv = ["simulate", f"--omega={fmt_omega(omega)}", "--steps", str(steps),
            "--window", str(window), "--format", fmt]
    files: tuple[str, ...] = ()
    if dump is not None:
        argv += ["--dump", dump]
        files = (dump,)
    return Op("simulate", tuple(argv), (omega,), files,
              {"steps": steps, "window": window, "format": fmt, "dump": dump})


def validate_ops(rng: random.Random) -> list[Op]:
    seeded = log_uniform_omegas(rng, VALIDATE_SEEDED, -2.0, 2.0)
    grid = list(DEFAULT_OMEGA_GRID) + list(STRESS_OMEGAS) + seeded
    rng.shuffle(grid)
    ops = []
    for k in range(0, len(grid), VALIDATE_CHUNK):
        chunk = grid[k:k + VALIDATE_CHUNK]
        argv = ("validate", "--suite", "all",
                "--omega-grid=" + ",".join(fmt_omega(w) for w in chunk))
        ops.append(Op("validate", argv, tuple(chunk), (), {"grid": chunk}))
    ops += [simulate_op(w, WITNESS_STEPS, WITNESS_WINDOW) for w in WITNESS_OMEGAS]
    return ops


def dynamics_ops(rng: random.Random) -> list[Op]:
    n = 2 * DYNAMICS_SLOTS
    omegas = log_uniform_omegas(rng, n - 2, -1.0, 1.0) + [1.0, -1.0]
    longs = log_uniform_ints(rng, DYNAMICS_SLOTS, *LONG_WINDOWS)
    wides = log_uniform_ints(rng, DYNAMICS_SLOTS, *WIDE_WINDOWS)
    ratios = systematic(rng, n, mirror=True)
    ops = []
    for k in range(n):
        # fixed interleave: neighbouring omega strata get distant windows
        slot = (5 * k) % n
        if slot % 2 == 0:
            window = longs[slot // 2]
            steps = round(window * (0.5 + 0.5 * ratios[k]))
        else:
            window = wides[slot // 2]
            steps = round(window / (8.0 * 4.0 ** ratios[k]))
        steps = max(100, min(steps, int(SITE_STEP_CAP // (2 * window + 1))))
        ops.append(simulate_op(omegas[k], steps, window))
    ops.append(simulate_op(*KNOWN_OVERFLOW))
    rng.shuffle(ops)
    return ops


def interactive_ops(rng: random.Random) -> list[Op]:
    ops = []
    spec = log_uniform_omegas(rng, INTERACTIVE_SPECTRUM, -2.0, 2.0) + [-1.0, -1.0]
    for k, w in enumerate(spec):
        fmt = ("json", "csv")[k % 2]
        ops.append(Op("spectrum", ("spectrum", f"--omega={fmt_omega(w)}", "--format", fmt),
                      (w,), (), {"format": fmt}))
    omegas = log_uniform_omegas(rng, INTERACTIVE_EIGVEC, -2.0, 2.0)
    windows = log_uniform_ints(rng, INTERACTIVE_EIGVEC, *EIGVEC_WINDOWS)
    rng.shuffle(windows)
    for k, (w, window) in enumerate(zip(omegas, windows)):
        index = 1 + (k + rng.randrange(4)) % 4
        fmt = ("csv", "json")[k % 2]
        ops.append(Op("eigvec", ("eigvec", f"--omega={fmt_omega(w)}", "--index", str(index),
                                 "--window", str(window), "--format", fmt),
                      (w,), (), {"index": index, "window": window, "format": fmt}))
    for k in range(INTERACTIVE_FIGURE):
        lo = round(-2.0 - 2.0 * rng.random(), 3)
        hi = round(2.0 + 2.0 * rng.random(), 3)
        samples = rng.randrange(61, 242)
        out = f"figure{k}.svg"
        ops.append(Op("figure", ("figure", f"--omega-min={lo!r}", f"--omega-max={hi!r}",
                                 "--samples", str(samples), "--out", out),
                      (), (out, f"figure{k}.csv"),
                      {"omega_min": lo, "omega_max": hi, "samples": samples}))
    for k, w in enumerate(SIMULATE_LADDER):
        w = float(f"{w:.6g}")
        fmt = rng.choice(("csv", "json"))
        dump = f"states{k}.csv" if k in DUMP_RUNGS else None
        ops.append(simulate_op(w, WITNESS_STEPS, WITNESS_WINDOW, fmt, dump))
    rng.shuffle(ops)
    return ops


_BUILDERS = {"validate": validate_ops, "dynamics": dynamics_ops, "interactive": interactive_ops}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operation list for ``seed``; same seed, same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
