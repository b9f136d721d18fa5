//! The GECCO approach (§V): candidate-group computation, optimal selection
//! and log abstraction.
//!
//! The pipeline mirrors Figure 4 of the paper:
//!
//! 1. **Candidate computation** — either [`candidates::exhaustive`]
//!    (Algorithm 1, complete but exponential) or [`candidates::dfg`]
//!    (Algorithm 2, DFG-guided beam search), both exploiting constraint
//!    monotonicity and group co-occurrence pruning, followed by
//!    [`candidates::exclusive`] (Algorithm 3) which merges behavioral
//!    alternatives with identical DFG pre-/postsets.
//! 2. **Optimal grouping** — [`selection`] formulates the exact-cover MIP
//!    of §V-C over the bipartite candidate/class graph and solves it with
//!    the engines of [`gecco_solver`].
//! 3. **Abstraction** — [`abstraction`] rewrites every trace, replacing
//!    events by high-level activity instances (completion-only or
//!    start+complete strategies, §V-D).
//!
//! [`pipeline::Gecco`] runs the steps in that order behind a builder API;
//! [`run_multipass`] chains runs and [`run_fanout`] compares constraint
//! sets side by side. Other compositions — e.g. session-based candidates
//! ([`candidates::session`]) unioned with DFG candidates — are written as
//! plain calls to the public step functions.

pub mod abstraction;
pub mod candidates;
pub mod distance;
pub mod grouping;
pub mod parallel;
pub mod pipeline;
pub mod selection;

pub use abstraction::AbstractionStrategy;
pub use candidates::session::{SessionBoundary, SessionConfig};
pub use candidates::{BeamWidth, Budget, CandidateSet, CandidateStats, CandidateStrategy};
pub use distance::{group_distance, group_distance_scan, grouping_distance, DistanceOracle};
pub use grouping::Grouping;
pub use parallel::{parallel_enabled, set_parallel};
pub use pipeline::{
    run_fanout, run_multipass, AbstractionResult, BranchOutcome, Gecco, GeccoError,
    InfeasibilityReport, MultiPassResult, Outcome, PassReport,
};
pub use selection::{
    select_optimal, select_optimal_colgen, solve_set_partition, solve_set_partition_stats,
    use_column_generation, ColGenMode, LazyPricingStats, Selection, SelectionOptions,
};
