//! End-to-end benchmark of the GECCO pipeline: XES in, abstracted XES
//! out, on four workloads, with a traced run that splits the time and the
//! work by layer. See `README.md` in this directory for the metrics, the
//! workloads and how to run it.

pub mod digest;
pub mod pass;
pub mod workload;

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Reported by the untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("e2e_s", "s"),
    m("setup_s", "s"),
    m("solve_s", "s"),
    m("peak_rss_mb", "MB"),
    m("distance", "dist"),
    m("feasible_share", "ratio"),
    m("proven_share", "ratio"),
    m("ok_share", "ratio"),
];

/// Reported by the traced runs (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("xes.parse_s", "s"),
    m("xes.parse_mb_per_s", "MB/s"),
    m("store.write_s", "s"),
    m("store.load_s", "s"),
    m("store.index_s", "s"),
    m("store.bytes_ratio", "ratio"),
    m("index.build_s", "s"),
    m("constraints.compile_s", "s"),
    m("candidates.s", "s"),
    m("candidates.checked", "count"),
    m("candidates.satisfied", "count"),
    m("candidates.yield", "ratio"),
    m("candidates.pruned_non_occurring", "count"),
    m("candidates.pruned_by_sketch", "count"),
    m("candidates.pool", "count"),
    m("candidates.exclusive", "count"),
    m("candidates.budget_exhausted_share", "ratio"),
    m("cache.instance_hit_ratio", "ratio"),
    m("cache.verdict_hit_ratio", "ratio"),
    m("distance.evaluations", "count"),
    m("selection.distance_s", "s"),
    m("selection.solve_s", "s"),
    m("presolve.fixed_sets", "count"),
    m("presolve.removed_duplicates", "count"),
    m("presolve.removed_dominated", "count"),
    m("presolve.components", "count"),
    m("colgen.lp_solves", "count"),
    m("colgen.master_pivots", "count"),
    m("colgen.pricing_calls", "count"),
    m("colgen.columns_generated", "count"),
    m("colgen.ip_solves", "count"),
    m("colgen.artificial_rounds", "count"),
    m("colgen.mispricings", "count"),
    m("colgen.gap", "ratio"),
    m("pricing.groups_examined", "count"),
    m("pricing.sketch_pruned", "count"),
    m("pricing.constraint_pruned", "count"),
    m("pricing.bound_pruned_subtrees", "count"),
    m("pricing.columns_emitted", "count"),
    m("pricing.emit_ratio", "ratio"),
    m("abstraction.s", "s"),
    m("abstraction.events_out", "count"),
    m("write.s", "s"),
    m("write.mb_per_s", "MB/s"),
    m("trace.overhead_s", "s"),
];

/// The per-layer metrics that count work rather than time it: they must
/// repeat exactly across runs and between serial and parallel runs.
pub fn is_counter(name: &str) -> bool {
    ["candidates.", "distance.", "presolve.", "colgen.", "pricing.", "cache."]
        .iter()
        .any(|prefix| name.starts_with(prefix))
        && name != "candidates.s"
}
