//! Branch-and-bound for binary programs over the simplex LP relaxation.
//!
//! A deliberately small but complete MIP solver: depth-first
//! branch-and-bound, branching on the most fractional variable, pruning by
//! the LP bound against the incumbent. Variable fixings are encoded as
//! equality rows added to the relaxation — adequate for the few hundred
//! variables the cross-validation and ablation workloads use. Production
//! GECCO runs use the [`crate::dlx`] engine instead.

use crate::model::{Model, Sense};
use crate::simplex::{solve_lp_box, LpResult};

/// Options for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct BnbOptions {
    /// Maximum number of explored nodes before giving up.
    pub max_nodes: usize,
    /// Integrality tolerance.
    pub tolerance: f64,
}

impl Default for BnbOptions {
    fn default() -> Self {
        BnbOptions { max_nodes: 200_000, tolerance: 1e-6 }
    }
}

/// Result of a binary-program solve.
#[derive(Debug, Clone, PartialEq)]
pub enum BnbResult {
    /// Proven optimal 0/1 assignment.
    Optimal {
        /// The assignment (each entry 0.0 or 1.0).
        values: Vec<f64>,
        /// Objective value.
        objective: f64,
    },
    /// Node budget exhausted; best incumbent found so far (not proven
    /// optimal).
    Feasible {
        /// The assignment (each entry 0.0 or 1.0).
        values: Vec<f64>,
        /// Objective value.
        objective: f64,
    },
    /// No 0/1 assignment satisfies the constraints.
    Infeasible,
    /// Node budget exhausted before any feasible assignment was found.
    NodeLimit,
}

struct Search {
    best: Option<(Vec<f64>, f64)>,
    nodes: usize,
    max_nodes: usize,
    tolerance: f64,
    exhausted: bool,
}

/// Solves `min c'x`, `Ax {≤,≥,=} b`, `x ∈ {0,1}ⁿ`.
pub fn solve_binary_program(model: &Model, options: BnbOptions) -> BnbResult {
    let mut search = Search {
        best: None,
        nodes: 0,
        max_nodes: options.max_nodes,
        tolerance: options.tolerance,
        exhausted: false,
    };
    let mut fixed: Vec<Option<bool>> = vec![None; model.num_vars()];
    search.recurse(model, &mut fixed);
    match search.best {
        Some((values, objective)) => {
            if search.exhausted {
                BnbResult::Feasible { values, objective }
            } else {
                BnbResult::Optimal { values, objective }
            }
        }
        None => {
            if search.exhausted {
                BnbResult::NodeLimit
            } else {
                BnbResult::Infeasible
            }
        }
    }
}

impl Search {
    fn recurse(&mut self, model: &Model, fixed: &mut Vec<Option<bool>>) {
        if self.exhausted {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.exhausted = true;
            return;
        }
        // Relaxation with fixings as equality rows.
        let mut relaxed = model.clone();
        for (i, f) in fixed.iter().enumerate() {
            if let Some(v) = f {
                relaxed.add_constraint(vec![(i, 1.0)], Sense::Eq, if *v { 1.0 } else { 0.0 });
            }
        }
        let solution = match solve_lp_box(&relaxed) {
            LpResult::Optimal(s) => s,
            LpResult::Infeasible => return,
            // With box constraints the relaxation cannot be unbounded.
            LpResult::Unbounded => return,
        };
        if let Some((_, best_obj)) = &self.best {
            if solution.objective >= *best_obj - 1e-9 {
                return; // bound
            }
        }
        // Most fractional variable.
        let tol = self.tolerance;
        let frac = solution
            .values
            .iter()
            .enumerate()
            .filter(|(i, _)| fixed[*i].is_none())
            .map(|(i, &v)| (i, (v - v.round()).abs()))
            .filter(|&(_, f)| f > tol)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match frac {
            None => {
                // Integral: new incumbent.
                let values: Vec<f64> = solution.values.iter().map(|v| v.round()).collect();
                if model.is_feasible(&values, 1e-6) {
                    let obj = model.objective(&values);
                    if self.best.as_ref().is_none_or(|(_, b)| obj < *b - 1e-12) {
                        self.best = Some((values, obj));
                    }
                }
            }
            Some((var, _)) => {
                // Branch: try the rounding suggested by the LP first.
                let first = solution.values[var] >= 0.5;
                for v in [first, !first] {
                    fixed[var] = Some(v);
                    self.recurse(model, fixed);
                    fixed[var] = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimal(r: BnbResult) -> (Vec<f64>, f64) {
        match r {
            BnbResult::Optimal { values, objective } => (values, objective),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn integral_lp_needs_no_branching() {
        let mut m = Model::new();
        let x = m.add_var(1.0);
        let y = m.add_var(2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Eq, 1.0);
        let (v, obj) = optimal(solve_binary_program(&m, BnbOptions::default()));
        assert_eq!(v, vec![1.0, 0.0]);
        assert!((obj - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_relaxation_forces_branching() {
        // The odd-cycle set-partitioning instance: LP optimum 1.5 is
        // fractional; the only integral covers pick one doubleton and one
        // singleton — but no singletons exist, so it is infeasible.
        let mut m = Model::new();
        let s01 = m.add_var(1.0);
        let s12 = m.add_var(1.0);
        let s02 = m.add_var(1.0);
        m.add_constraint(vec![(s01, 1.0), (s02, 1.0)], Sense::Eq, 1.0);
        m.add_constraint(vec![(s01, 1.0), (s12, 1.0)], Sense::Eq, 1.0);
        m.add_constraint(vec![(s12, 1.0), (s02, 1.0)], Sense::Eq, 1.0);
        assert_eq!(solve_binary_program(&m, BnbOptions::default()), BnbResult::Infeasible);
    }

    #[test]
    fn knapsack_style() {
        // min -3a -4b -5c s.t. 2a + 3b + 4c <= 6 → best is a + c (obj -8).
        let mut m = Model::new();
        let a = m.add_var(-3.0);
        let b = m.add_var(-4.0);
        let c = m.add_var(-5.0);
        m.add_constraint(vec![(a, 2.0), (b, 3.0), (c, 4.0)], Sense::Le, 6.0);
        let (v, obj) = optimal(solve_binary_program(&m, BnbOptions::default()));
        assert_eq!(v, vec![1.0, 0.0, 1.0]);
        assert!((obj + 8.0).abs() < 1e-9);
    }

    #[test]
    fn cardinality_side_constraints() {
        // Pick exactly 2 of 4 items minimizing cost.
        let mut m = Model::new();
        let vars: Vec<usize> = [5.0, 1.0, 3.0, 2.0].iter().map(|&c| m.add_var(c)).collect();
        m.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Sense::Eq, 2.0);
        let (v, obj) = optimal(solve_binary_program(&m, BnbOptions::default()));
        assert_eq!(v, vec![0.0, 1.0, 0.0, 1.0]);
        assert!((obj - 3.0).abs() < 1e-9);
    }

    #[test]
    fn node_limit_reported() {
        // Odd-cycle vertex cover: the root relaxation is fractional (all
        // 0.5, objective 1.5), so a budget of one node cannot finish.
        let mut m = Model::new();
        let vars: Vec<usize> = (0..3).map(|_| m.add_var(1.0)).collect();
        for i in 0..3 {
            m.add_constraint(vec![(vars[i], 1.0), (vars[(i + 1) % 3], 1.0)], Sense::Ge, 1.0);
        }
        let r = solve_binary_program(&m, BnbOptions { max_nodes: 1, ..Default::default() });
        assert_eq!(r, BnbResult::NodeLimit);
        // With a real budget the optimum (two vertices) is proven.
        let r = solve_binary_program(&m, BnbOptions::default());
        match r {
            BnbResult::Optimal { objective, .. } => assert!((objective - 2.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Set partitioning over two disjoint odd 3-cycles: elements `{0,1,2}`
    /// and `{3,4,5}`, each with its three overlapping pairs plus
    /// singletons. Both cycle relaxations are fractional (pairs at 0.5),
    /// so the search must branch in both blocks before it can complete —
    /// the first incumbent appears well before the tree is exhausted.
    fn double_odd_cycle() -> Model {
        let mut m = Model::new();
        let mut vars = Vec::new();
        for block in 0..2 {
            let base = 3 * block;
            for (a, b) in [(0, 1), (1, 2), (0, 2)] {
                vars.push((vec![base + a, base + b], 1.0));
            }
            for e in 0..3 {
                // Distinct costs keep the optimum unique.
                vars.push((vec![base + e], 0.55 + 0.01 * (base + e) as f64));
            }
        }
        let ids: Vec<usize> = vars.iter().map(|(_, c)| m.add_var(*c)).collect();
        for e in 0..6 {
            let terms: Vec<(usize, f64)> = vars
                .iter()
                .enumerate()
                .filter(|(_, (members, _))| members.contains(&e))
                .map(|(i, _)| (ids[i], 1.0))
                .collect();
            m.add_constraint(terms, Sense::Eq, 1.0);
        }
        m
    }

    #[test]
    fn node_limit_keeps_incumbent() {
        let m = double_odd_cycle();
        // Unlimited: proven optimal (pair + cheapest singleton per cycle).
        let full_optimum = match solve_binary_program(&m, BnbOptions::default()) {
            BnbResult::Optimal { objective, .. } => objective,
            other => panic!("unexpected {other:?}"),
        };
        assert!((full_optimum - (1.0 + 0.55 + 1.0 + 0.58)).abs() < 1e-9);
        // Find the node count at which the first incumbent appears, then
        // stop the search right there: the incumbent must come back as
        // `Feasible` instead of being discarded (the seed bug returned
        // `NodeLimit`, losing it).
        let mut saw_feasible = false;
        for budget in 1.. {
            match solve_binary_program(&m, BnbOptions { max_nodes: budget, ..Default::default() }) {
                BnbResult::NodeLimit => continue,
                BnbResult::Feasible { values, objective } => {
                    assert!(m.is_feasible(&values, 1e-6));
                    assert!((m.objective(&values) - objective).abs() < 1e-9);
                    assert!(objective >= full_optimum - 1e-9);
                    saw_feasible = true;
                    break;
                }
                BnbResult::Optimal { .. } => {
                    panic!("search of a fractional double cycle finished in {budget} nodes")
                }
                BnbResult::Infeasible => panic!("instance is feasible"),
            }
        }
        assert!(saw_feasible, "some budget must exhaust with an incumbent");
    }

    #[test]
    fn infeasible_binary_program() {
        let mut m = Model::new();
        let x = m.add_var(1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0);
        assert_eq!(solve_binary_program(&m, BnbOptions::default()), BnbResult::Infeasible);
    }
}
