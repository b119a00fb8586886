"""What the traced run wraps, the counters it derives, and the per-layer
metrics it reports.

Layers are translab's modules.  Kernel work (cells, flops, bytes) is
computed from array shapes, not measured; route, point, lift and BadPrime
counts are read from verdict evidence.  Every count here is deterministic
for a given seed and source tree.
"""

from __future__ import annotations

# ------------------------------------------------------------------ hooks


def _batched_rank(counts, args, kwargs, result):
    B, R, C = args[0].shape
    counts["modp.batched_rank_mod_p.matrices"] += B
    counts["modp.batched_rank_mod_p.cells"] += B * R * C


def _mod_matmul(counts, args, kwargs, result):
    (M, K), (_, N) = args[0].shape, args[1].shape
    counts["modp._mod_matmul.flops"] += 2 * M * K * N
    # float64 copies of both operands; float64 product and its rint;
    # int64 cast and remainder; int32 result
    counts["modp._mod_matmul.bytes"] += 8 * M * K + 8 * K * N + 36 * M * N


def _points(name):
    def hook(counts, args, kwargs, result):
        counts[name] += result[-1]
    return hook


def _rref_cells(counts, args, kwargs, result):
    rows = args[0]
    if rows:
        counts["matrices._rref_rows.cells"] += len(rows) * len(rows[0])


_ROUTE_STEPS = (
    ("forced:", "forced"),
    ("pre-annihilator is zero", "zero"),
    ("pencil route", "pencil"),
    ("basis scan hit", "basis_scan"),
    ("exhaustive definitional route", "input_subspaces"),
    ("exhaustive pre-annihilator route", "pre_annihilator"),
    ("numeric witness search", "numeric"),
)
_FF_ROUTES = {"input-subspaces": "input_subspaces",
              "pre-annihilator": "pre_annihilator"}


def _evidence(counts, ev, routes: bool):
    counts["deciders.points_visited"] += ev.get("points", 0)
    if routes:
        for step in ev.get("steps", ()):
            for prefix, route in _ROUTE_STEPS:
                if step.startswith(prefix):
                    counts[f"deciders.route.{route}"] += 1
    for key, info in ev.get("ff", {}).items():
        if key == "certified_primes":
            continue
        counts["deciders.points_visited"] += info.get("points", 0)
        if routes and info.get("route") in _FF_ROUTES:
            counts[f"deciders.route.{_FF_ROUTES[info['route']]}"] += 1
        if str(info.get("skipped", "")).startswith("BadPrime"):
            counts["deciders.badprime_skips"] += 1
        if info.get("low_rank_mod_p") or info.get("violation_mod_p"):
            counts["deciders.lift.attempts"] += 1
        if info.get("lifted"):
            counts["deciders.lift.succeeded"] += 1


def _transitivity(counts, args, kwargs, result):
    _evidence(counts, result.evidence, routes=True)


def _separation(counts, args, kwargs, result):
    _evidence(counts, result.evidence, routes=False)


def _flags(counts, args, kwargs, result):
    counts["deciders._separation_scan_ff.flags"] += 1


def _restarts(counts, args, kwargs, result):
    space, k = args[0], args[1]
    if space.dim and k >= 1:
        counts["lowrank.numeric_low_rank_coefficients.restarts"] += \
            kwargs.get("restarts", 10)
    counts["lowrank.numeric_low_rank_coefficients.converged"] += len(result)


def _found(name):
    def hook(counts, args, kwargs, result):
        counts[name] += result is not None
    return hook


# (module, attribute path, span name, hook)
TARGETS = [
    ("translab.modp", "batched_rank_mod_p", "modp.batched_rank_mod_p",
     _batched_rank),
    ("translab.modp", "_mod_matmul", "modp._mod_matmul", _mod_matmul),
    ("translab.modp", "surjectivity_scan", "modp.surjectivity_scan",
     _points("modp.surjectivity_scan.points")),
    ("translab.modp", "min_rank_scan", "modp.min_rank_scan",
     _points("modp.min_rank_scan.points")),
    ("translab.modp", "rank_extremes_scan", "modp.rank_extremes_scan", None),
    ("translab.deciders", "check_k_transitive", "deciders.check_k_transitive",
     _transitivity),
    ("translab.deciders", "check_k_separating", "deciders.check_k_separating",
     _separation),
    ("translab.deciders", "_separation_scan_ff", "deciders._separation_scan_ff",
     None),
    ("translab.deciders", "_flag_violation", None, _flags),
    ("translab.deciders", "_ff_low_rank_threshold",
     "deciders._ff_low_rank_threshold", None),
    ("translab.deciders", "rank_extremes_ff", "deciders.rank_extremes_ff", None),
    ("translab.deciders", "min_rank_ff_exhaustive",
     "deciders.min_rank_ff_exhaustive", None),
    ("translab.deciders", "pencil_min_rank_exact",
     "deciders.pencil_min_rank_exact", None),
    ("translab.deciders", "RankWitness.verify", "deciders.RankWitness.verify",
     None),
    ("translab.matrices", "_rref_rows", "matrices._rref_rows", _rref_cells),
    ("translab.matrices", "Mat.__init__", "matrices.Mat.__init__", None),
    ("translab.matrices", "Mat.__matmul__", "matrices.Mat.__matmul__", None),
    ("translab.matrices", "Mat.det", "matrices.Mat.det", None),
] + [
    ("translab.subspace", f"MatrixSubspace.{m}", f"subspace.{m}", None)
    for m in ("from_generators", "preannihilator", "reduce_mod", "tensor",
              "product_span", "element", "contains")
] + [
    ("translab.lowrank", "numeric_low_rank_coefficients",
     "lowrank.numeric_low_rank_coefficients", _restarts),
    ("translab.lowrank", "search_low_rank_element",
     "lowrank.search_low_rank_element",
     _found("lowrank.search_low_rank_element.hits")),
    ("translab.lowrank", "verify_low_rank_candidate",
     "lowrank.verify_low_rank_candidate",
     _found("lowrank.verify_low_rank_candidate.accepted")),
    ("translab.polynomials", "BinaryForm.gcd", "polynomials.BinaryForm.gcd",
     None),
    ("translab.polynomials", "charpoly", "polynomials.charpoly", None),
    ("translab.polynomials", "factor_over_rationals",
     "polynomials.factor_over_rationals", None),
    ("translab.families", "build_family", "families.build_family", None),
    ("translab.families", "phi_block_space", "families.phi_block_space", None),
    ("translab.families", "counterexample_certificate",
     "families.counterexample_certificate", None),
    ("translab.report", "report_rows", "report.report_rows", None),
    ("translab.serialize", "dumps", "serialize.dumps", None),
]

_SUBSPACE = [f"subspace.{m}.{s}" for m in (
    "from_generators", "preannihilator", "reduce_mod", "tensor",
    "product_span", "element", "contains") for s in ("calls", "self_s")]

# per-layer metric -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "modp.batched_rank_mod_p.calls": "count",
    "modp.batched_rank_mod_p.self_s": "s",
    "modp.batched_rank_mod_p.matrices": "count",
    "modp.batched_rank_mod_p.cells": "count",
    "modp._mod_matmul.calls": "count",
    "modp._mod_matmul.self_s": "s",
    "modp._mod_matmul.flops": "flop",
    "modp._mod_matmul.bytes": "B",
    "modp.surjectivity_scan.self_s": "s",
    "modp.surjectivity_scan.points": "count",
    "modp.min_rank_scan.self_s": "s",
    "modp.min_rank_scan.points": "count",
    "modp.rank_extremes_scan.self_s": "s",
    "deciders.check_k_transitive.calls": "count",
    "deciders.check_k_transitive.self_s": "s",
    "deciders.check_k_separating.calls": "count",
    "deciders.check_k_separating.self_s": "s",
    "deciders._separation_scan_ff.calls": "count",
    "deciders._separation_scan_ff.self_s": "s",
    "deciders._separation_scan_ff.flags": "count",
    "deciders._ff_low_rank_threshold.self_s": "s",
    "deciders.rank_extremes_ff.self_s": "s",
    "deciders.min_rank_ff_exhaustive.self_s": "s",
    "deciders.pencil_min_rank_exact.self_s": "s",
    **{f"deciders.route.{r}": "count" for r in (
        "forced", "zero", "pencil", "basis_scan", "input_subspaces",
        "pre_annihilator", "numeric")},
    "deciders.points_visited": "count",
    "deciders.badprime_skips": "count",
    "deciders.lift.attempts": "count",
    "deciders.lift.succeeded": "count",
    "deciders.RankWitness.verify.calls": "count",
    "deciders.RankWitness.verify.self_s": "s",
    "matrices._rref_rows.calls": "count",
    "matrices._rref_rows.self_s": "s",
    "matrices._rref_rows.cells": "count",
    "matrices.Mat.__init__.calls": "count",
    "matrices.Mat.__init__.self_s": "s",
    "matrices.Mat.__matmul__.self_s": "s",
    "matrices.Mat.det.self_s": "s",
    **{name: ("s" if name.endswith("self_s") else "count")
       for name in _SUBSPACE},
    "lowrank.numeric_low_rank_coefficients.self_s": "s",
    "lowrank.numeric_low_rank_coefficients.restarts": "count",
    "lowrank.numeric_low_rank_coefficients.converged": "count",
    "lowrank.search_low_rank_element.calls": "count",
    "lowrank.search_low_rank_element.hits": "count",
    "lowrank.hit_rate": "ratio",
    "lowrank.verify_low_rank_candidate.calls": "count",
    "lowrank.verify_low_rank_candidate.accepted": "count",
    "polynomials.BinaryForm.gcd.self_s": "s",
    "polynomials.charpoly.self_s": "s",
    "polynomials.factor_over_rationals.self_s": "s",
    "families.build_family.self_s": "s",
    "families.phi_block_space.self_s": "s",
    "families.counterexample_certificate.self_s": "s",
    "report.report_rows.self_s": "s",
    "serialize.dumps.self_s": "s",
    "trace_overhead_s": "s",
}

_MODP_KERNELS = [
    "modp.batched_rank_mod_p.calls", "modp.batched_rank_mod_p.self_s",
    "modp.batched_rank_mod_p.matrices", "modp.batched_rank_mod_p.cells",
    "modp._mod_matmul.calls", "modp._mod_matmul.self_s",
    "modp._mod_matmul.flops", "modp._mod_matmul.bytes",
]
_EXACT = [
    "matrices._rref_rows.calls", "matrices._rref_rows.self_s",
    "matrices._rref_rows.cells", "matrices.Mat.__init__.calls",
    "matrices.Mat.__init__.self_s", "matrices.Mat.__matmul__.self_s",
    "matrices.Mat.det.self_s",
]

# per-layer metrics that must be nonzero on each workload: the layers the
# workload was chosen to exercise
EXPECTED_NONZERO = {
    "report-paper": _MODP_KERNELS + _EXACT + _SUBSPACE + [
        "modp.surjectivity_scan.self_s", "modp.min_rank_scan.self_s",
        "deciders.RankWitness.verify.calls",
        "deciders.pencil_min_rank_exact.self_s",
        "polynomials.charpoly.self_s",
        "polynomials.factor_over_rationals.self_s",
        "families.build_family.self_s", "families.phi_block_space.self_s",
        "families.counterexample_certificate.self_s",
        "report.report_rows.self_s", "serialize.dumps.self_s",
    ],
    "certify-scan": _MODP_KERNELS + [
        "modp.surjectivity_scan.self_s", "modp.surjectivity_scan.points",
        "modp.min_rank_scan.self_s", "modp.min_rank_scan.points",
        "deciders.route.forced", "deciders.route.pencil",
        "deciders.route.basis_scan", "deciders.route.input_subspaces",
        "deciders.route.pre_annihilator", "deciders.route.numeric",
        "deciders.points_visited", "deciders.lift.attempts",
        "deciders.RankWitness.verify.calls",
        "deciders.pencil_min_rank_exact.self_s",
        "polynomials.BinaryForm.gcd.self_s",
        "lowrank.numeric_low_rank_coefficients.self_s",
        "lowrank.numeric_low_rank_coefficients.restarts",
        "lowrank.numeric_low_rank_coefficients.converged",
        "lowrank.search_low_rank_element.calls",
        "lowrank.search_low_rank_element.hits", "lowrank.hit_rate",
        "lowrank.verify_low_rank_candidate.calls",
        "lowrank.verify_low_rank_candidate.accepted",
    ],
    "small-ff": [
        "modp.batched_rank_mod_p.calls", "modp.rank_extremes_scan.self_s",
        "deciders.check_k_transitive.calls",
        "deciders.check_k_transitive.self_s",
        "deciders.check_k_separating.calls",
        "deciders.check_k_separating.self_s",
        "deciders._separation_scan_ff.calls",
        "deciders._separation_scan_ff.self_s",
        "deciders._separation_scan_ff.flags",
        "deciders._ff_low_rank_threshold.self_s",
        "deciders.rank_extremes_ff.self_s",
        "deciders.min_rank_ff_exhaustive.self_s",
        "deciders.route.input_subspaces", "deciders.route.pre_annihilator",
        "deciders.RankWitness.verify.calls",
    ],
}


def layer_metrics(calls: dict, self_s: dict, counts: dict) -> dict:
    """Every per-layer metric except trace_overhead_s, from one traced pass."""
    out = {}
    for name in METRICS:
        if name == "trace_overhead_s":
            continue
        if name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            out[name] = counts.get(name, 0)
    searches = out["lowrank.search_low_rank_element.calls"]
    out["lowrank.hit_rate"] = (
        out["lowrank.search_low_rank_element.hits"] / searches
        if searches else 0.0)
    return out

# which end-to-end metric each group of per-layer metrics should move, and
# on which workload: (metric prefixes, end-to-end metrics, workloads)
MOVES = [
    (["modp.batched_rank_mod_p."], ["wall_s", "cpu_s", "decision_p50_ms"],
     ["report-paper", "certify-scan", "small-ff"]),
    (["modp._mod_matmul."], ["wall_s", "peak_rss_mb"],
     ["report-paper", "certify-scan"]),
    (["modp.surjectivity_scan.", "modp.min_rank_scan."], ["wall_s"],
     ["certify-scan"]),
    (["modp.rank_extremes_scan."], ["wall_s"], ["small-ff"]),
    (["deciders.check_k_transitive.", "deciders.check_k_separating."],
     ["decision_p50_ms"], ["small-ff"]),
    (["deciders._separation_scan_ff."], ["decision_tail_ms", "wall_s"],
     ["small-ff"]),
    (["deciders._ff_low_rank_threshold.", "deciders.rank_extremes_ff.",
      "deciders.min_rank_ff_exhaustive."], ["wall_s"], ["small-ff"]),
    (["deciders.pencil_min_rank_exact."], ["wall_s"],
     ["certify-scan", "report-paper"]),
    (["deciders.route.", "deciders.points_visited", "deciders.badprime_skips",
      "deciders.lift."], ["wall_s", "decided_share"], ["certify-scan"]),
    (["deciders.RankWitness.verify."], ["wall_s"],
     ["report-paper", "certify-scan", "small-ff"]),
    (["matrices.", "subspace."], ["wall_s"], ["report-paper", "small-ff"]),
    (["lowrank."], ["wall_s", "decided_share"], ["certify-scan"]),
    (["polynomials."], ["wall_s"], ["report-paper", "certify-scan"]),
    (["families."], ["wall_s"], ["report-paper"]),
    (["report.", "serialize."], ["wall_s"], ["report-paper"]),
]
