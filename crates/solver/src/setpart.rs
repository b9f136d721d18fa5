//! Weighted set partitioning: the shared problem type for GECCO's Step 2.
//!
//! §V-C formalizes group selection as a MIP over a bipartite
//! candidate/class graph: minimize `Σ dist(gᵢ)·selected_{gᵢ}` subject to
//! every class being covered by exactly one selected candidate (Eqs. 3–4),
//! optionally bounding the number of selected groups (Eq. 5). The
//! production route is [`SetPartitionProblem::solve_presolved`]; the
//! un-presolved [`SetPartitionProblem::solve`] and the simplex
//! branch-and-bound [`SetPartitionProblem::solve_bnb`] are the reference
//! solves it is cross-validated against.

use crate::branch_bound::{solve_binary_program, BnbOptions, BnbResult};
use crate::dlx::{CoverOutcome, ExactCover, SolveParams};
use crate::model::{Model, Sense};
use crate::presolve::{presolve, PresolveOutcome};

/// A weighted set-partitioning instance.
#[derive(Debug, Clone, Default)]
pub struct SetPartitionProblem {
    /// Number of elements that must each be covered exactly once.
    pub num_elements: usize,
    /// Candidate sets: `(member elements, cost)`.
    pub sets: Vec<(Vec<usize>, f64)>,
    /// Minimum number of selected sets (Eq. 5, `≥ y`).
    pub min_sets: Option<usize>,
    /// Maximum number of selected sets (Eq. 5, `≤ x`).
    pub max_sets: Option<usize>,
    /// Search budget (nodes); `0` means the default of 5 million.
    pub max_nodes: usize,
}

/// A solution to a [`SetPartitionProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct SetPartitionSolution {
    /// Indexes of selected sets (ascending).
    pub selected: Vec<usize>,
    /// Total cost of the selection.
    pub cost: f64,
    /// Whether optimality was proven (false when the node budget ran out).
    pub proven_optimal: bool,
}

impl SetPartitionProblem {
    /// Creates an instance over `num_elements` elements.
    pub fn new(num_elements: usize) -> Self {
        SetPartitionProblem { num_elements, ..Default::default() }
    }

    /// Adds a candidate set; returns its index. Members are normalized to
    /// sorted unique order — a set either covers an element or it does
    /// not, and the engines (the exact-cover links in particular) rely on
    /// each element appearing once per set.
    pub fn add_set(&mut self, mut members: Vec<usize>, cost: f64) -> usize {
        members.sort_unstable();
        members.dedup();
        self.sets.push((members, cost));
        self.sets.len() - 1
    }

    fn budget(&self) -> usize {
        if self.max_nodes == 0 {
            5_000_000
        } else {
            self.max_nodes
        }
    }

    /// Solves the instance as given with the DLX engine, without presolve:
    /// the differential-testing oracle for [`Self::solve_presolved`].
    /// `None` means infeasible (or budget exhausted without any cover
    /// found).
    pub fn solve(&self) -> Option<SetPartitionSolution> {
        self.solve_dlx_outcome(None, None).0
    }

    /// Solves through the presolve → decompose → per-component pipeline:
    /// duplicate sets collapse to the cheapest, dominated sets and
    /// redundant elements disappear, elements covered by a single set are
    /// fixed, and the residual element/set graph splits into connected
    /// components solved independently by DLX (each with a greedy warm
    /// start and an LP/share lower bound). Cost-equivalent to
    /// [`Self::solve`].
    pub fn solve_presolved(&self) -> Option<SetPartitionSolution> {
        match presolve(self) {
            PresolveOutcome::Infeasible => None,
            PresolveOutcome::Solved(solution, _) => Some(solution),
            PresolveOutcome::Reduced(reduced) => reduced.solve(),
        }
    }

    /// The binary program of Eqs. 3–5 (set variables, exactly-one rows,
    /// optional cardinality rows); shared by [`Self::solve_bnb`] and the
    /// presolve LP bound.
    pub(crate) fn binary_model(&self) -> Model {
        let mut model = Model::new();
        let vars: Vec<usize> = self.sets.iter().map(|(_, cost)| model.add_var(*cost)).collect();
        // Eq. 3/4 combined: each element covered by exactly one selected
        // set. Single pass over the sets building per-element term lists
        // (the sets already know their members; scanning every set per
        // element would be O(sets × elements)).
        let mut terms: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.num_elements];
        for (i, (members, _)) in self.sets.iter().enumerate() {
            for &element in members {
                terms[element].push((vars[i], 1.0));
            }
        }
        for element_terms in terms {
            model.add_constraint(element_terms, Sense::Eq, 1.0);
        }
        // Eq. 5: cardinality bounds.
        if let Some(max) = self.max_sets {
            model.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Sense::Le, max as f64);
        }
        if let Some(min) = self.min_sets {
            model.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Sense::Ge, min as f64);
        }
        model
    }

    /// DLX with an optional warm start and external lower bound; also
    /// reports whether the answer is *conclusive* — `(None, true)` is
    /// proven infeasibility while `(None, false)` means the node budget ran
    /// out undecided. The
    /// cardinality frontier DP in [`crate::presolve`] needs that
    /// distinction to keep its optimality proofs honest.
    pub(crate) fn solve_dlx_outcome(
        &self,
        warm_start: Option<(Vec<usize>, f64)>,
        lower_bound: Option<f64>,
    ) -> (Option<SetPartitionSolution>, bool) {
        let mut ec = ExactCover::new(self.num_elements);
        for (members, cost) in &self.sets {
            ec.add_row(members.clone(), *cost);
        }
        let params = SolveParams {
            min_rows: self.min_sets,
            max_rows: self.max_sets,
            max_nodes: self.budget(),
            warm_start,
            lower_bound,
        };
        match ec.solve_params(&params) {
            CoverOutcome::Optimal { mut rows, cost } => {
                rows.sort_unstable();
                (Some(SetPartitionSolution { selected: rows, cost, proven_optimal: true }), true)
            }
            CoverOutcome::Feasible { mut rows, cost } => {
                rows.sort_unstable();
                (Some(SetPartitionSolution { selected: rows, cost, proven_optimal: false }), false)
            }
            CoverOutcome::Infeasible => (None, true),
            CoverOutcome::Unknown => (None, false),
        }
    }

    /// Solves the binary program of Eqs. 3–5 by simplex branch-and-bound,
    /// without presolve: the reference engine DLX is cross-validated
    /// against. On node-budget exhaustion it returns its incumbent with
    /// `proven_optimal: false`, like DLX.
    pub fn solve_bnb(&self) -> Option<SetPartitionSolution> {
        let options = BnbOptions { max_nodes: self.budget(), ..Default::default() };
        let (values, cost, proven_optimal) =
            match solve_binary_program(&self.binary_model(), options) {
                BnbResult::Optimal { values, objective } => (values, objective, true),
                BnbResult::Feasible { values, objective } => (values, objective, false),
                BnbResult::Infeasible | BnbResult::NodeLimit => return None,
            };
        let selected = (0..self.sets.len()).filter(|&i| values[i] > 0.5).collect();
        Some(SetPartitionSolution { selected, cost, proven_optimal })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint odd 3-cycles with singletons: both blocks have
    /// fractional LP relaxations, so the simplex engine must branch in
    /// both before finishing — the first incumbent appears well before
    /// the search tree is exhausted.
    fn double_odd_cycle() -> SetPartitionProblem {
        let mut p = SetPartitionProblem::new(6);
        for block in 0..2usize {
            let base = 3 * block;
            for (a, b) in [(0, 1), (1, 2), (0, 2)] {
                p.add_set(vec![base + a, base + b], 1.0);
            }
            for e in 0..3 {
                p.add_set(vec![base + e], 0.55 + 0.01 * (base + e) as f64);
            }
        }
        p
    }

    #[test]
    fn bnb_engine_returns_incumbent_on_node_budget() {
        // Regression: on node-budget exhaustion the DLX engine returns
        // its incumbent with `proven_optimal: false`, but the simplex
        // engine mapped `BnbResult::NodeLimit` to `None`, discarding its
        // incumbent. Both engines must degrade the same way.
        let mut p = double_odd_cycle();
        let optimum = p.solve_bnb().unwrap();
        assert!(optimum.proven_optimal);
        let mut saw_incumbent = false;
        for budget in 1..=200 {
            p.max_nodes = budget;
            if let Some(s) = p.solve_bnb() {
                if !s.proven_optimal {
                    // The budget ran out after an incumbent was found: it
                    // must be a valid cover, no worse than nothing.
                    let mut covered = vec![0u8; p.num_elements];
                    for &i in &s.selected {
                        for &m in &p.sets[i].0 {
                            covered[m] += 1;
                        }
                    }
                    assert!(covered.iter().all(|&c| c == 1));
                    assert!(s.cost >= optimum.cost - 1e-9);
                    saw_incumbent = true;
                    break;
                }
                assert!((s.cost - optimum.cost).abs() < 1e-9);
                break;
            }
        }
        assert!(saw_incumbent, "some budget must exhaust with an incumbent");
    }

    #[test]
    fn engines_agree_on_small_instances() {
        let mut p = SetPartitionProblem::new(4);
        p.add_set(vec![0, 1], 1.0);
        p.add_set(vec![2, 3], 1.0);
        p.add_set(vec![0, 1, 2, 3], 1.8);
        p.add_set(vec![0], 0.4);
        p.add_set(vec![1], 0.4);
        let dlx = p.solve().unwrap();
        let bnb = p.solve_bnb().unwrap();
        assert!((dlx.cost - bnb.cost).abs() < 1e-9);
        assert!((dlx.cost - 1.8).abs() < 1e-9);
        assert!(dlx.proven_optimal);
    }
}
