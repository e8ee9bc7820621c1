"""Metric definitions, shared by the runner, the report and the tests.

BENCHMARK.json lists the same names, units and directions; the tests check
that the two agree. The third field of every per-layer entry records which
end-to-end metric it should move and on which workload, written down before
any optimisation is measured against it.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "omega_per_s": ("1/s", "higher"),
    "site_steps_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "fail_frac": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, what it should move)
PER_LAYER = {
    "startup.interpreter_ms": ("ms", "lower", "setup_s on all workloads; latency_p50_ms on interactive"),
    "startup.import_numpy_ms": ("ms", "lower", "setup_s on all workloads; latency_p50_ms on interactive"),
    "startup.import_mpmath_ms": ("ms", "lower", "setup_s on all workloads; latency_p50_ms on interactive"),
    "startup.import_defectwalk_ms": ("ms", "lower", "setup_s on all workloads; latency_p50_ms on interactive"),
    "oracle.decay_ms": ("ms", "lower", "omega_per_s on validate"),
    "oracle.decay_calls": ("count", "lower", "omega_per_s on validate"),
    "oracle.scan_ms": ("ms", "lower", "omega_per_s on validate"),
    "oracle.scan_seeds_attempted": ("count", "lower", "omega_per_s on validate"),
    "oracle.scan_converged_ratio": ("ratio", "higher", "omega_per_s on validate"),
    "oracle.scan_roots_found": ("count", "higher", "fail_frac and omega_per_s on validate"),
    "oracle.highprec_ms": ("ms", "lower", "omega_per_s on validate"),
    "oracle.self_ms": ("ms", "lower", "omega_per_s on validate"),
    "walk.evolve_ms": ("ms", "lower", "site_steps_per_s on dynamics"),
    "walk.evolve_ns_per_site_step": ("ns", "lower", "site_steps_per_s on dynamics"),
    "walk.apply_U_calls": ("count", "lower", "site_steps_per_s on dynamics"),
    "walk.useful_step_ratio": ("ratio", "higher", "site_steps_per_s and fail_frac on dynamics"),
    "walk.eigen_residual_ms": ("ms", "lower", "omega_per_s on validate; latency_p50_ms on interactive; flat when evolve changes"),
    "walk.self_ms": ("ms", "lower", "site_steps_per_s on dynamics"),
    "spectrum.eigenvalues_calls": ("count", "lower", "latency_p50_ms on interactive"),
    "spectrum.eigenvector_ms": ("ms", "lower", "latency_p50_ms on interactive"),
    "spectrum.eigenvector_sites": ("count", "lower", "latency_p50_ms on interactive"),
    "spectrum.self_ms": ("ms", "lower", "latency_p50_ms on interactive"),
    "sqrtbranch.principal_sqrt_calls": ("count", "lower", "latency_p50_ms on interactive"),
    "cli.self_ms": ("ms", "lower", "latency_p50_ms and latency_tail_ms on interactive; site_steps_per_s on dynamics"),
    "cli.self_ms.spectrum": ("ms", "lower", "latency_p50_ms on interactive"),
    "cli.self_ms.eigvec": ("ms", "lower", "latency_p50_ms and latency_tail_ms on interactive"),
    "cli.self_ms.simulate": ("ms", "lower", "site_steps_per_s on dynamics; latency_tail_ms on interactive"),
    "cli.self_ms.validate": ("ms", "lower", "omega_per_s on validate"),
    "cli.self_ms.figure": ("ms", "lower", "latency_tail_ms on interactive"),
    "cli.bytes_out": ("bytes", "lower", "latency_p50_ms and latency_tail_ms on interactive; byte-identical when writers are unified"),
    "figure.rows_ms": ("ms", "lower", "latency_tail_ms on interactive"),
    "figure.svg_ms": ("ms", "lower", "latency_tail_ms on interactive"),
    "figure.csv_ms": ("ms", "lower", "latency_tail_ms on interactive"),
    "figure.self_ms": ("ms", "lower", "latency_tail_ms on interactive"),
    "trace.overhead_ms": ("ms", "lower", "none: traced minus untraced wall time of the same replay"),
    "trace.overhead_frac": ("ratio", "lower", "none: tracing overhead over untraced wall time"),
}


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    With n samples that is the (n-10)-th smallest value, percentile
    100 (n - 10) / n. Below 21 samples that percentile is not above the
    median, so the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
