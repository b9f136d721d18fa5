//! Exact optimization substrate for GECCO's Step 2 (§V-C).
//!
//! The paper formulates optimal group selection as a mixed-integer program
//! and solves it with Gurobi. Gurobi is closed source, so this crate
//! provides exact replacements built from scratch:
//!
//! * [`simplex`] — a two-phase dense primal simplex for linear programs
//!   with Bland's anti-cycling rule;
//! * [`branch_bound`] — branch-and-bound over the LP relaxation for binary
//!   programs (a small but genuine MIP solver, kept as the reference
//!   engine);
//! * [`dlx`] — an Algorithm-X / dancing-links exact-cover engine with
//!   cost-based branch-and-bound and cardinality side constraints, which is
//!   the natural specialized solver for the weighted set-partitioning
//!   structure of GECCO's selection problem and the production engine;
//! * [`setpart`] — the set-partitioning problem type, with the production
//!   solve and the reference solves it is cross-validated against;
//! * [`mod@presolve`] — exact reductions (duplicate dedup, element dominance,
//!   mandatory fixing) and connected-component decomposition, plus greedy
//!   warm starts and LP/share lower bounds threaded into the DLX search;
//! * [`revised`] — a sparse revised simplex (CSC columns, LU + eta-file
//!   basis) whose incremental `revised::RevisedMaster` warm-starts the
//!   column-generation master in [`colgen`] instead of rebuilding the
//!   tableau every round.
//!
//! Step 2 has one production route,
//! [`SetPartitionProblem::solve_presolved`]: presolve, decompose, then DLX
//! per component. Slow reference solves stay as test oracles: the
//! un-presolved DLX solve ([`SetPartitionProblem::solve`]), simplex
//! branch-and-bound ([`SetPartitionProblem::solve_bnb`]) and, for column
//! generation, the dense master ([`MasterEngine::Dense`]). All of them are
//! exact: on feasible instances they return provably optimal solutions, and
//! the test suite cross-validates them against each other and against brute
//! force.

pub mod branch_bound;
pub mod colgen;
pub mod dlx;
pub mod model;
pub mod presolve;
pub mod revised;
pub mod setpart;
pub mod simplex;

pub use branch_bound::{solve_binary_program, BnbOptions, BnbResult};
pub use colgen::{
    solve_column_generation, ColGenOptions, ColGenSolution, ColGenStats, ColumnSource, DualPrices,
    EnumeratedColumnSource, MasterEngine, PricingRequest,
};
pub use dlx::{CoverOutcome, ExactCover, SolveParams};
pub use model::{LinearConstraint, Model, Sense};
pub use presolve::{
    presolve, Component, DecompositionStatus, FrontierOutcome, PresolveOutcome, PresolveStats,
    ReducedProblem,
};
pub use revised::solve_lp_with_duals_revised;
pub use setpart::{SetPartitionProblem, SetPartitionSolution};
pub use simplex::{solve_lp, solve_lp_with_duals, LpDualResult, LpResult, LpSolution};
