"""What the benchmark reports: metric names, units, directions, bounds and why.

``write_meta.py`` renders ``BENCHMARK.json`` and ``bench/meta.json`` from
these tables; ``run.py`` takes the units from here.
"""

from __future__ import annotations

# Seconds of op time measured per run (every run also completes >= 100 ops).
RUN_SECONDS = 20

WORKLOAD_WHY = {
    "structure-random": "structure verb on seeded affine/power/exponential specs, n_max 64-4096: expr, table growth and JSON rendering only",
    "certify-dense": "certify verb at D = 64/256/1024 on catalog and seeded specs: the dense O(D^3) fock certify dominates",
    "states-moments": "coherent (with overlap scan) and moments verbs on catalog specs: the only workload where coherent and moments dominate",
    "radius-hard": "coherent verb on slow or oscillating f around the oracle radius: radius rule and truncation budget, both roadmap defects",
}

# Longer reasons, kept in meta.json.
WORKLOAD_DETAIL = {
    "structure-random": (
        "Each op is the structure verb: phi_recurrence, phi_closed_sequence and the canonical JSON "
        "of the rows.  Per round 5 tables each of 64, 512 and 4096 levels (three of the 4096 exponential), on affine "
        "(real and complex), power and exponential (F, G) pairs whose phi stays in double range.  "
        "fock, coherent and moments do no work here; at 4096 levels rendering costs about as much "
        "as the tabulation."
    ),
    "certify-dense": (
        "Each op is the certify verb: phi_recurrence(D+1), build_rep, certify(1e-10) and the "
        "report.  Per round 6 ops at D = 64, 7 at 256 and 2 at 1024, on harmonic, arik-coon, "
        "biedenharn, pq and seeded complex affine specs; one D = 256 op is certify --inject-fault, "
        "and every reported residual is checked against 50-digit sparse matrices.  The dense certify is O(D^3) and holds "
        "several (D+1)^2 complex matrices, so D = 1024 sets the 90th percentile and peak RSS.  "
        "expr and algebra cost almost nothing: a change to expression evaluation predicts no "
        "change here, a banded Fock representation a large one."
    ),
    "states-moments": (
        "Two op kinds on fresh tables built as the CLI builds them.  coherent: make_state, "
        "build_rep(truncation+1), photon_statistics, eigen_residual, uncertainty_product and an "
        "overlap scan of 5 states; labels on harmonic up to |z| = 40 and on arik-coon from 0.01 R "
        "to 0.97 R plus one outside the disk.  moments: builtin and expression weights, "
        "check_moments at n_max 20 and 40, carleman_diagnostic(1000).  Every op pays the "
        "10^4-level radius probe once; fock is used for mat-vecs, not mat-mats."
    ),
    "radius-hard": (
        "Each op is the coherent verb without scan on specs whose f converges slowly or "
        "oscillates: arik-coon q = 0.99 and 0.999, rotating phase F = exp(i t), G = 1 "
        "(R = 1/(2|sin(t/2)|)) and alternating F = 1 + e(-1)^n (R from the two-cycle).  Labels at "
        "fixed fractions of the oracle R on both sides.  Four of eleven slots hit ROADMAP item 3 at "
        "the seed: they tabulate until the 0.3 s cap (uncapped: 1.5-10 s, up to 10^6 levels, "
        "then NonconvergenceError).  They count in ok_ratio and fail_ratio, and their tabulation "
        "rate is algebra.burn_levels_per_s; the latency figures time the other seven slots.  "
        "certify-dense is the workload that bypasses this mechanism."
    ),
}

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_ms_p50": ("ms", "lower", 0.25),
    "op_ms_p90": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.125),
    "ok_ratio": ("ratio", "higher", 0.0625),
}

END_TO_END_MEANING = {
    "setup_s": "median of 11 samples spread over the run, each the least CPU time (user + system) of 3 back-to-back cold starts: fresh interpreter, import defosc, build the workload's specs and weights",
    "ops_per_s": "timed ops per second of their op time in the untraced loop (>= 100 timed ops, whole rounds); an op that ends in its slot's known defect runs into the cap and is not timed",
    "op_ms_p50": "median latency of the timed ops; sample count = timed ops (attempted minus known defect)",
    "op_ms_p90": "90th-percentile latency of the timed ops (statistics.quantiles, n=10); >= 100 samples, so >= 10 beyond it",
    "peak_rss_mb": "ru_maxrss of the single-threaded worker process that ran the untraced loop",
    "ok_ratio": "ops whose outcome and values match the oracle / ops attempted (known-defect ops included); 1 - ok_ratio is the fail_ratio of the traced run",
}

# name -> (unit, better, end-to-end metrics it should move, workloads where it should,
#          workloads where no change is predicted).  Values are per timed op of the
#          traced loop unless the unit is a ratio or a rate, or the name is a per-call
#          median; ops that end in their slot's known defect are left out of all but
#          algebra.burn_levels_per_s and fail_ratio.
LAYERS = {
    "expr.replay_s": ("s", "lower", "ops_per_s, op_ms_p50", "structure-random, radius-hard", "certify-dense"),
    "expr.us_per_eval": ("us", "lower", "ops_per_s, op_ms_p50", "structure-random, radius-hard", "certify-dense"),
    "expr.share_of_table": ("ratio", "lower", "ops_per_s, op_ms_p50", "structure-random, radius-hard", "certify-dense"),
    "algebra.table_s": ("s", "lower", "ops_per_s, op_ms_p50", "structure-random", "certify-dense"),
    "algebra.levels": ("count", "lower", "ops_per_s, op_ms_p50", "structure-random", "certify-dense"),
    "algebra.us_per_level": ("us", "lower", "ops_per_s, op_ms_p50", "structure-random", "certify-dense"),
    "algebra.closed_form_s": ("s", "lower", "ops_per_s, op_ms_p50", "structure-random", "certify-dense"),
    "algebra.radius_s": ("s", "lower", "op_ms_p50, ok_ratio", "states-moments, radius-hard", "certify-dense"),
    "algebra.radius_levels": ("count", "lower", "op_ms_p50, ok_ratio", "states-moments, radius-hard", "certify-dense"),
    "algebra.radius_undetermined": ("count", "lower", "op_ms_p50, ok_ratio", "states-moments, radius-hard", "certify-dense"),
    "algebra.burn_levels_per_s": ("1/s", "higher", "ok_ratio (once the defect is fixed: ops_per_s)", "radius-hard", "structure-random, certify-dense, states-moments"),
    "fock.build_rep_s": ("s", "lower", "ops_per_s, op_ms_p90, peak_rss_mb", "certify-dense", "structure-random"),
    "fock.certify_s": ("s", "lower", "ops_per_s, op_ms_p90, peak_rss_mb", "certify-dense", "structure-random"),
    "fock.certify_ms.d64": ("ms", "lower", "ops_per_s, op_ms_p90, peak_rss_mb", "certify-dense", "structure-random"),
    "fock.certify_ms.d256": ("ms", "lower", "ops_per_s, op_ms_p90, peak_rss_mb", "certify-dense", "structure-random"),
    "fock.certify_ms.d1024": ("ms", "lower", "ops_per_s, op_ms_p90, peak_rss_mb", "certify-dense", "structure-random"),
    "fock.dim_total": ("count", "lower", "ops_per_s, op_ms_p90, peak_rss_mb", "certify-dense", "structure-random"),
    "coherent.make_state_s": ("s", "lower", "ops_per_s, ok_ratio, peak_rss_mb", "radius-hard, states-moments", "certify-dense"),
    "coherent.truncation_total": ("count", "lower", "ops_per_s, ok_ratio, peak_rss_mb", "radius-hard, states-moments", "certify-dense"),
    "coherent.level_use": ("ratio", "higher", "ops_per_s, ok_ratio, peak_rss_mb", "radius-hard, states-moments", "certify-dense"),
    "coherent.eigen_residual_s": ("s", "lower", "op_ms_p90, peak_rss_mb", "states-moments", "structure-random"),
    "coherent.uncertainty_s": ("s", "lower", "op_ms_p90, peak_rss_mb", "states-moments", "structure-random"),
    "coherent.overlap_s": ("s", "lower", "op_ms_p90, peak_rss_mb", "states-moments", "structure-random"),
    "moments.weight_s": ("s", "lower", "op_ms_p50", "states-moments", "structure-random, certify-dense, radius-hard"),
    "moments.check_s": ("s", "lower", "op_ms_p50", "states-moments", "structure-random, certify-dense, radius-hard"),
    "moments.panels": ("count", "lower", "op_ms_p50", "states-moments", "structure-random, certify-dense, radius-hard"),
    "moments.us_per_panel": ("us", "lower", "op_ms_p50", "states-moments", "structure-random, certify-dense, radius-hard"),
    "moments.nonconverged": ("count", "lower", "op_ms_p50", "states-moments", "structure-random, certify-dense, radius-hard"),
    "moments.carleman_s": ("s", "lower", "op_ms_p50", "states-moments", "structure-random, certify-dense, radius-hard"),
    "cli.render_s": ("s", "lower", "op_ms_p50", "structure-random", "radius-hard"),
    "cli.render_bytes": ("bytes", "lower", "op_ms_p50", "structure-random", "radius-hard"),
    "trace.overhead": ("ratio", "higher", "(none: traced / untraced ops_per_s)", "all", "all"),
    "trace.ops_per_s_traced": ("1/s", "higher", "(base of trace.overhead)", "all", "all"),
    "trace.ops_per_s_untraced": ("1/s", "higher", "(base of trace.overhead)", "all", "all"),
    "fail_ratio": ("ratio", "lower", "ok_ratio", "radius-hard", "structure-random, certify-dense, states-moments"),
}

# ROADMAP re-anchor baseline (single-run perf_counter on a 2-core sandbox),
# kept as the seed reference that later numbers are read against.
ROADMAP_BASELINE = [
    {"workload": "StructureTable(harmonic, 10_000)", "time": "13 ms", "note": "~1.3 us/level, tree-walk eval"},
    {"workload": "first radius() (probe 10 000)", "time": "9 ms", "note": "paid by every coherent/moments run"},
    {"workload": "certify D=256 / D=1024", "time": "9.5 ms / 410 ms", "note": "dense @ on bidiagonals, O(D^3)"},
    {"workload": "CLI certify --dim 2000", "time": "2.8 s, 794 MB RSS", "note": "same; D=4000 would need ~3 GB"},
    {"workload": "make_state harmonic z=40", "time": "11 ms", "note": "truncation 1916"},
    {"workload": "CLI verbs at default sizes", "time": "~0.1 s each", "note": "mostly interpreter + numpy import"},
    {"workload": "make_state(F=exp(2i), G=1, z=0.3)", "time": "8.6 s -> NonconvergenceError", "note": "tabulates 10^6 levels; true R ~ 0.59"},
    {"workload": "make_state(arik-coon q=0.999, z=40)", "time": "1.5 s -> exit 3", "note": "should be domain error (R=1000), exit 4"},
]
