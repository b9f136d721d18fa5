//! Property-based bit-identity of the pipeline entry points.
//!
//! `Gecco::run` is one straight chain of step functions; `run_multipass`
//! and `run_fanout` compose such runs. This suite holds them
//! **bit-identical** on arbitrary logs — groupings, `f64` distance bits,
//! activity names, rewritten traces, the spliced index, candidate
//! statistics, infeasibility summaries and per-pass reports:
//!
//! * a whole run with parallelism off equals one with it on (CI runs this
//!   suite with `--features rayon`; without it both runs are serial);
//! * `run_multipass` equals `Gecco::run` calls chained by hand, each over
//!   a freshly built index;
//! * every `run_fanout` branch equals an independent `Gecco::run`, and a
//!   parallel fan-out equals a serial one.

use gecco_constraints::ConstraintSet;
use gecco_core::{
    run_fanout, run_multipass, set_parallel, CandidateStrategy, Gecco, GeccoError, Outcome,
};
use gecco_eventlog::{EventLog, LogBuilder, LogIndex};
use proptest::prelude::*;

/// Random small logs: up to 5 classes, up to 8 traces of length ≤ 10, with
/// deterministic `v`/`time:timestamp`/`org:role` attributes so aggregate
/// and distinct constraints have data to work on.
fn arb_log() -> impl Strategy<Value = EventLog> {
    let trace = proptest::collection::vec(0usize..5, 0..=10);
    proptest::collection::vec(trace, 1..=8).prop_map(|traces| {
        let mut b = LogBuilder::new();
        for (i, t) in traces.iter().enumerate() {
            let mut tb = b.trace(&format!("case-{i}"));
            for (j, &cls) in t.iter().enumerate() {
                let role = if cls % 2 == 0 { "even" } else { "odd" };
                tb = tb
                    .event_with(&format!("c{cls}"), |e| {
                        e.str("org:role", role)
                            .timestamp("time:timestamp", (i as i64) * 10_000 + (j as i64) * 100)
                            .int("v", ((i * 31 + j * 7 + cls) % 100) as i64);
                    })
                    .expect("small logs stay within class limits");
            }
            tb.done();
        }
        b.build()
    })
}

/// Constraint formulations to drive the runs through: feasible ones,
/// aggregate ones, and structurally infeasible ones (to exercise the
/// diagnostics report).
const CONSTRAINT_SETS: &[&str] = &[
    "size(g) <= 2;",
    "count(instance) >= 1;",
    "sum(\"v\") <= 120;",
    "distinct(instance, \"org:role\") <= 1;",
    "size(g) >= 4; groups >= 3;",
];

/// Renders every trace — the strictest cheap fingerprint of a log.
fn formatted(log: &EventLog) -> Vec<String> {
    log.traces().iter().map(|t| log.format_trace(t)).collect()
}

/// Asserts two outcomes are bit-identical (including the infeasible arm's
/// rendered summary, byte for byte).
fn assert_outcomes_identical(a: &Outcome, b: &Outcome) {
    match (a, b) {
        (Outcome::Abstracted(a), Outcome::Abstracted(b)) => {
            prop_assert_eq!(a.grouping(), b.grouping());
            prop_assert_eq!(a.distance().to_bits(), b.distance().to_bits());
            prop_assert_eq!(a.proven_optimal(), b.proven_optimal());
            prop_assert_eq!(a.activity_names(), b.activity_names());
            prop_assert_eq!(formatted(a.log()), formatted(b.log()));
            prop_assert_eq!(a.index(), b.index());
            prop_assert_eq!(a.candidate_stats(), b.candidate_stats());
        }
        (Outcome::Infeasible(a), Outcome::Infeasible(b)) => {
            prop_assert_eq!(&a.summary, &b.summary);
            prop_assert_eq!(&a.candidate_stats, &b.candidate_stats);
        }
        _ => prop_assert!(false, "runs disagree on feasibility"),
    }
}

/// The reference for `run_multipass`: `Gecco::run` chained by hand, each
/// pass over a freshly built index of the previous pass's log. Returns
/// `(pass, feasible, groups, distance bits)` per pass and the final log.
fn chained_runs(
    log: &EventLog,
    sets: &[ConstraintSet],
) -> (Vec<(usize, bool, usize, u64)>, EventLog) {
    let mut current = log.clone();
    let mut reports = Vec::new();
    for (pass, constraints) in sets.iter().enumerate() {
        let outcome = Gecco::new(&current)
            .constraints(constraints.clone())
            .label_by("org:role")
            .run()
            .unwrap();
        match outcome {
            Outcome::Abstracted(r) => {
                reports.push((pass, true, r.grouping().len(), r.distance().to_bits()));
                current = r.into_log_and_index().0;
            }
            Outcome::Infeasible(_) => reports.push((pass, false, 0, 0.0f64.to_bits())),
        }
    }
    (reports, current)
}

/// Serializes tests that flip the process-wide parallelism toggle.
static TOGGLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` serially and in parallel and returns both results. Without the
/// `rayon` feature `set_parallel` is a no-op and both runs are serial (the
/// comparison then holds trivially).
fn both<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = TOGGLE_LOCK.lock().unwrap();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    set_parallel(false);
    let serial = f();
    set_parallel(true);
    let parallel = f();
    set_parallel(false);
    (serial, parallel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_run_matches_serial(log in arb_log()) {
        for dsl in CONSTRAINT_SETS {
            for strategy in [CandidateStrategy::Exhaustive, CandidateStrategy::DfgUnbounded] {
                let run = || {
                    Gecco::new(&log)
                        .constraints(ConstraintSet::parse(dsl).unwrap())
                        .candidates(strategy)
                        .label_by("org:role")
                        .run()
                };
                match both(run) {
                    (Ok(serial), Ok(parallel)) => assert_outcomes_identical(&serial, &parallel),
                    (Err(GeccoError::Compile(s)), Err(GeccoError::Compile(p))) => {
                        // Attribute never occurs in this log: both runs
                        // must reject compilation identically.
                        prop_assert_eq!(s.to_string(), p.to_string());
                    }
                    (s, p) => prop_assert!(false, "runs diverge: {:?} vs {:?}", s, p),
                }
            }
        }
    }

    #[test]
    fn multipass_matches_chained_runs(log in arb_log()) {
        let sets: Vec<ConstraintSet> = [
            "size(g) >= 4; groups >= 3;", // often infeasible: exercises pass-through
            "size(g) <= 2;",
            "count(instance) >= 1;",
        ]
        .iter()
        .map(|d| ConstraintSet::parse(d).unwrap())
        .collect();
        let multipass = run_multipass(&log, &sets, |g| g.label_by("org:role")).unwrap();
        let (reports, chained) = chained_runs(&log, &sets);
        let got: Vec<_> = multipass
            .reports()
            .iter()
            .map(|r| (r.pass, r.feasible, r.groups, r.distance.to_bits()))
            .collect();
        prop_assert_eq!(got, reports);
        prop_assert_eq!(formatted(multipass.log()), formatted(&chained));
        prop_assert_eq!(multipass.index(), &LogIndex::build(&chained));
    }

    #[test]
    fn fanout_matches_independent_passes(log in arb_log()) {
        let sets: Vec<ConstraintSet> = ["size(g) <= 2;", "size(g) >= 4; groups >= 3;"]
            .iter()
            .map(|d| ConstraintSet::parse(d).unwrap())
            .collect();
        let branches = run_fanout(&log, &sets, |g| g.label_by("org:role")).unwrap();
        prop_assert_eq!(branches.len(), sets.len());
        for (i, branch) in branches.iter().enumerate() {
            let single = chained_runs(&log, &sets[i..i + 1]);
            prop_assert_eq!(branch.report().pass, i);
            let (_, feasible, groups, distance) = single.0[0];
            prop_assert_eq!(branch.report().feasible, feasible);
            prop_assert_eq!(branch.report().groups, groups);
            prop_assert_eq!(branch.report().distance.to_bits(), distance);
            prop_assert_eq!(formatted(branch.log()), formatted(&single.1));
            prop_assert_eq!(branch.index(), &LogIndex::build(&single.1));
        }
    }

    #[test]
    fn parallel_branches_match_serial(log in arb_log()) {
        // A multi-branch fan-out run with parallelism on and off must be
        // bit-identical.
        let sets: Vec<ConstraintSet> =
            ["size(g) <= 2;", "count(instance) >= 1;", "size(g) >= 4; groups >= 3;"]
                .iter()
                .map(|d| ConstraintSet::parse(d).unwrap())
                .collect();
        let (serial, parallel) = both(|| run_fanout(&log, &sets, |g| g).unwrap());
        prop_assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert_eq!(s.report().pass, p.report().pass);
            prop_assert_eq!(s.report().feasible, p.report().feasible);
            prop_assert_eq!(s.report().distance.to_bits(), p.report().distance.to_bits());
            prop_assert_eq!(formatted(s.log()), formatted(p.log()));
            prop_assert_eq!(s.index(), p.index());
        }
    }
}
