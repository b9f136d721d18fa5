//! Workspace wiring smoke test: touches every facade re-export so a broken
//! crate manifest or a dropped `pub use` fails loudly here, not in a
//! downstream consumer.

use gecco::prelude::*;

#[test]
fn facade_eventlog() {
    let mut b = gecco::eventlog::LogBuilder::new();
    b.trace("t").event("a").unwrap().event("b").unwrap().done();
    let log: EventLog = b.build();
    assert_eq!(log.traces().len(), 1);
    assert_eq!(log.num_events(), 2);
    let dfg = Dfg::from_log(&log);
    let a = log.class_by_name("a").unwrap();
    let b_cls = log.class_by_name("b").unwrap();
    assert!(dfg.successors(a).any(|c| c == b_cls), "a→b edge must exist in ⟨a,b⟩");
    let stats = LogStats::from_log(&log);
    assert_eq!(stats.num_classes, 2);
    let set: ClassSet = [a, b_cls].into_iter().collect();
    assert_eq!(set.len(), 2);
    let _id: ClassId = a;
}

#[test]
fn facade_constraints() {
    let cs: ConstraintSet = ConstraintSet::parse("size(g) <= 3;").unwrap();
    assert_eq!(cs.len(), 1);
    let _c: &Constraint = &cs.constraints()[0];
}

#[test]
fn facade_solver() {
    use gecco::solver::SetPartitionProblem;
    let mut p = SetPartitionProblem::new(2);
    p.add_set(vec![0], 1.0);
    p.add_set(vec![1], 1.0);
    p.add_set(vec![0, 1], 1.5);
    let s = p.solve().expect("feasible");
    assert!((s.cost - 1.5).abs() < 1e-9);
}

#[test]
fn facade_core_pipeline() {
    let log = gecco::datagen::running_example();
    let outcome = Gecco::new(&log)
        .constraints(ConstraintSet::parse("size(g) <= 3;").unwrap())
        .candidates(CandidateStrategy::DfgBeam { k: BeamWidth::PerClass(5) })
        .run()
        .unwrap();
    match outcome {
        Outcome::Abstracted(result) => {
            let grouping: &Grouping = result.grouping();
            assert!(grouping.is_exact_cover(&log));
        }
        Outcome::Infeasible(report) => panic!("unexpectedly infeasible: {}", report.summary),
    }
}

#[test]
fn facade_discovery_and_metrics() {
    let log = gecco::datagen::running_example();
    let options = gecco::discovery::DiscoveryOptions::default();
    let model = gecco::discovery::discover(&log, options);
    assert!(gecco::discovery::ModelComplexity::of(&model).size > 0, "the model has nodes");
    let complexity = gecco::metrics::complexity_reduction(&log, &log, options);
    assert!(complexity.abs() < 1e-9, "identical logs reduce nothing");
    let size = gecco::metrics::size_reduction(4, 8);
    assert!((size - 0.5).abs() < 1e-9);
}

#[test]
fn facade_baselines() {
    let log = gecco::datagen::running_example();
    let compiled = gecco::constraints::CompiledConstraintSet::compile(
        &ConstraintSet::parse("size(g) <= 3;").unwrap(),
        &log,
    )
    .unwrap();
    let index = gecco::eventlog::LogIndex::build(&log);
    let ctx = gecco::eventlog::EvalContext::new(&log, &index);
    let (grouping, _distance) =
        gecco::baselines::greedy_grouping(&ctx, &compiled).expect("feasible");
    assert!(!grouping.is_empty());
}

#[test]
fn facade_datagen() {
    let log = gecco::datagen::loan_log(5, 1);
    assert_eq!(log.traces().len(), 5);
}

#[test]
fn facade_core_parallel_toggle() {
    // Present with and without the `rayon` feature (no-op without).
    let before = gecco::core::parallel_enabled();
    gecco::core::set_parallel(false);
    assert!(!gecco::core::parallel_enabled());
    gecco::core::set_parallel(before);
}
