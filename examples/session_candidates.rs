//! Session-based candidates next to DFG candidates, composed from the
//! public step functions.
//!
//! DFG-derived candidates (Algorithm 2) are unioned with session-based
//! candidates (inactivity-gap segmentation), Algorithm 3 merges exclusive
//! alternatives, one selection weighs all of them together, and the result
//! is either abstracted or explained by an infeasibility report. A
//! three-way `run_fanout` then compares alternative constraint
//! formulations over the same log.
//!
//! Run with `cargo run --example session_candidates`.

use gecco::constraints::{CompiledConstraintSet, Diagnostics};
use gecco::core::abstraction::{abstract_log, activity_names};
use gecco::core::candidates::dfg::{dfg_candidates, NoObserver};
use gecco::core::candidates::exclusive::extend_with_exclusive_candidates;
use gecco::core::candidates::session::session_candidates;
use gecco::core::selection::{select_optimal, SelectionOptions};
use gecco::core::{AbstractionStrategy, Budget, DistanceOracle};
use gecco::eventlog::{EvalContext, LogIndex, Segmenter};
use gecco::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let log = gecco::datagen::loan_log(60, 4);
    let index = LogIndex::build(&log);
    let ctx = EvalContext::new(&log, &index);
    println!("Input: {} classes, {} traces", log.num_classes(), log.traces().len());

    let constraints = ConstraintSet::parse("size(g) <= 4; distinct(instance, \"org:role\") <= 1;")?;
    let compiled = CompiledConstraintSet::compile(&constraints, &log)?;

    // Step 1: two candidate sources. Sessions: a burst of events separated
    // by ≥ 30 minutes of inactivity is offered as one candidate group.
    let mut candidates = dfg_candidates(&ctx, &compiled, None, Budget::UNLIMITED, &mut NoObserver);
    candidates.union_with(&session_candidates(
        &ctx,
        &compiled,
        &SessionConfig::gap(30 * 60 * 1000),
    ));
    println!("Union of DFG + session candidates: {} groups", candidates.len());
    extend_with_exclusive_candidates(&ctx, &compiled, &mut candidates);

    // Step 2: optimal selection over the merged pool.
    let oracle = DistanceOracle::new(&ctx, Segmenter::RepeatSplit);
    let selected = select_optimal(
        &log,
        candidates.groups(),
        &oracle,
        compiled.group_count_bounds(),
        SelectionOptions::default(),
    );

    // Step 3, or the report of possible causes when nothing is feasible.
    match selected {
        Some(selection) => {
            let names = activity_names(&log, &selection.grouping, Some("org:role"));
            let (abstracted, _) = abstract_log(
                &ctx,
                &selection.grouping,
                &names,
                AbstractionStrategy::Completion,
                Segmenter::RepeatSplit,
            );
            println!(
                "Abstracted to {} activities (dist = {:.2}, optimal: {}):",
                selection.grouping.len(),
                selection.distance,
                selection.proven_optimal
            );
            for (group, name) in selection.grouping.iter().zip(&names) {
                println!("  {:<12} ← {}", name, log.format_group(group));
            }
            println!(
                "First abstracted trace: {}",
                abstracted.format_trace(&abstracted.traces()[0])
            );
        }
        None => {
            let diagnostics = Diagnostics::probe(&compiled, &ctx);
            println!("Infeasible:\n{}", diagnostics.render(&log));
        }
    }

    // ── Fan-out: three formulations over the same log ───────────────────
    // Under `--features rayon` the branches run on separate cores,
    // bit-identical to serial execution.
    let scenarios = vec![
        constraints,
        ConstraintSet::parse("size(g) <= 2;")?,
        ConstraintSet::parse("size(g) >= 6; groups >= 4;")?, // infeasible
    ];
    let branches = gecco::core::run_fanout(&log, &scenarios, |g| {
        g.candidates(CandidateStrategy::DfgUnbounded).label_by("org:role")
    })?;
    println!("\nFan-out over {} constraint formulations:", branches.len());
    for branch in &branches {
        let r = branch.report();
        if r.feasible {
            println!(
                "  scenario {}: {} groups, dist = {:.2}, {} classes after abstraction",
                r.pass,
                r.groups,
                r.distance,
                branch.log().num_classes()
            );
        } else {
            println!("  scenario {}: infeasible — log passes through unchanged", r.pass);
        }
    }
    Ok(())
}
