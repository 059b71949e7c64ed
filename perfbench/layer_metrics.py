"""Per-layer metrics of a traced run, by the names BENCHMARK.json lists.

Span names are `<layer>.<function>` or `<layer>.<Class>.<method>`; a class
name alone is its constructor.  Self times and call counts cover the ops
of the traced pass; `family.*` also covers set-up, where the family is
built.
"""

from __future__ import annotations

from spans import LAYERS

REWRITES = ("graphs.add_leaf", "graphs.split_edge",
            "graphs.shrink_vertex_weight", "graphs.split_vertex")

# metric name -> (span names, statistic, unit); statistic is "calls" or
# "self_s" from the span summary, or a key of the tracer's counters.
SPAN_METRICS = {
    "intlinalg.smith_normal_form.calls": (("intlinalg.smith_normal_form",), "calls", "count"),
    "intlinalg.smith_normal_form.self_s": (("intlinalg.smith_normal_form",), "self_s", "s"),
    "intlinalg.det.self_s": (("intlinalg.det",), "self_s", "s"),
    "intlinalg.solve.self_s": (("intlinalg.solve",), "self_s", "s"),
    "intlinalg.lattice_quotient_invariants.self_s": (
        ("intlinalg.lattice_quotient_invariants",), "self_s", "s"),
    "divisors.LaplacianSystem.calls": (("divisors.LaplacianSystem",), "calls", "count"),
    "divisors.LaplacianSystem.class_key.calls": (
        ("divisors.LaplacianSystem.class_key",), "calls", "count"),
    "divisors.LaplacianSystem.class_key.self_s": (
        ("divisors.LaplacianSystem.class_key",), "self_s", "s"),
    "divisors.LaplacianSystem.solve_potential.self_s": (
        ("divisors.LaplacianSystem.solve_potential",), "self_s", "s"),
    "trees.enumerate_forests.calls": (("trees.enumerate_forests",), "calls", "count"),
    "trees.enumerate_forests.self_s": (("trees.enumerate_forests",), "self_s", "s"),
    "trees.is_maximal_forest.calls": (("trees.is_maximal_forest",), "calls", "count"),
    "trees.is_maximal_forest.self_s": (("trees.is_maximal_forest",), "self_s", "s"),
    "picard.pic0_structure.self_s": (("picard.pic0_structure",), "self_s", "s"),
    "picard.picb0_structure.self_s": (("picard.picb0_structure",), "self_s", "s"),
    "picard.count_pic0.self_s": (("picard.count_pic0",), "self_s", "s"),
    "picard.enumerate_coset_representatives_bruteforce.self_s": (
        ("picard.enumerate_coset_representatives_bruteforce",), "self_s", "s"),
    "bernardi.BernardiReducer.calls": (("bernardi.BernardiReducer",), "calls", "count"),
    "bernardi.BernardiReducer.self_s": (("bernardi.BernardiReducer",), "self_s", "s"),
    "bernardi.tour_forest.calls": (("bernardi.tour_forest",), "calls", "count"),
    "bernardi.tour_forest.self_s": (("bernardi.tour_forest",), "self_s", "s"),
    "bernardi.tree_divisor.calls": (("bernardi.tree_divisor",), "calls", "count"),
    "bernardi.tree_divisor.self_s": (("bernardi.tree_divisor",), "self_s", "s"),
    "bernardi.enumerate_subweightings.self_s": (
        ("bernardi.enumerate_subweightings",), "self_s", "s"),
    "bernardi.hat_tree_to_pair.self_s": (("bernardi.hat_tree_to_pair",), "self_s", "s"),
    "graphs.expand_hat.self_s": (("graphs.expand_hat",), "self_s", "s"),
    "graphs.laplacian_matrix.calls": (
        ("graphs.WeightedMultigraph.laplacian_matrix",), "calls", "count"),
    "graphs.rewrites.self_s": (REWRITES, "self_s", "s"),
    "fibers.check_base_change_injectivity.self_s": (
        ("fibers.check_base_change_injectivity",), "self_s", "s"),
    "fibers.component_group.self_s": (("fibers.component_group",), "self_s", "s"),
    "cli.main.self_s": (("cli.main",), "self_s", "s"),
    "selfcheck.sweep_family.self_s": (("selfcheck.sweep_family",), "self_s", "s"),
}

COUNTERS = {
    "trees.enumerate_forests.forests": "trees.enumerate_forests.forests",
    "picard.enumerate_coset_representatives_bruteforce.reps":
        "picard.enumerate_coset_representatives_bruteforce.reps",
    "bernardi.BernardiReducer.table_entries": "bernardi.BernardiReducer.table_entries",
}

DISTINCT = {
    "intlinalg.smith_normal_form.distinct_ratio": "intlinalg.smith_normal_form",
    "bernardi.tour_forest.distinct_ratio": "bernardi.tour_forest",
}


def compute(tracer, ops, overhead_ratio):
    ops_summary = tracer.summary(ops_only=True)
    all_summary = tracer.summary(ops_only=False)

    def stat(names, key, summary=ops_summary):
        return sum(summary.get(n, {}).get(key, 0) for n in names)

    out = {}
    for metric, (names, key, unit) in SPAN_METRICS.items():
        out[metric] = {"value": stat(names, key), "unit": unit}
    for metric, counter in COUNTERS.items():
        out[metric] = {"value": tracer.counts.get(counter, 0), "unit": "count"}
    for metric, name in DISTINCT.items():
        calls = stat((name,), "calls", all_summary)
        out[metric] = {"value": len(tracer.distinct[name]) / calls if calls else 0.0,
                       "unit": "ratio"}
    out["intlinalg.smith_normal_form.max_entry_bits"] = {
        "value": tracer.maxima.get("intlinalg.smith_normal_form.max_entry_bits", 0),
        "unit": "bit"}
    out["family.pleasant_family.self_s"] = {
        "value": stat(("family.pleasant_family",), "self_s", all_summary), "unit": "s"}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = {
            "value": sum(row["self_s"] for name, row in
                         (all_summary if layer == "family" else ops_summary).items()
                         if name.startswith(layer + ".")),
            "unit": "s"}
    out["trace.ops"] = {"value": ops, "unit": "count"}
    out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return out
