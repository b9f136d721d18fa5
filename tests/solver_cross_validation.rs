//! Property-based cross-validation of the production Step-2 route
//! (presolve, then DLX) and its two un-presolved oracles (DLX and simplex
//! branch-and-bound) against each other and against brute force — the
//! evidence that replacing Gurobi with in-repo solvers preserves
//! optimality.

use gecco::solver::SetPartitionProblem;
use proptest::prelude::*;

/// Brute-force optimum by enumerating all 2^k subsets.
fn brute_force(p: &SetPartitionProblem) -> Option<f64> {
    let k = p.sets.len();
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << k) {
        let mut covered = vec![0u8; p.num_elements];
        let mut cost = 0.0;
        let mut count = 0;
        for (i, (members, c)) in p.sets.iter().enumerate() {
            if mask & (1 << i) != 0 {
                count += 1;
                cost += c;
                for &m in members {
                    covered[m] += 1;
                }
            }
        }
        let exact = covered.iter().all(|&c| c == 1);
        let card_ok =
            p.min_sets.is_none_or(|m| count >= m) && p.max_sets.is_none_or(|m| count <= m);
        if exact && card_ok && best.is_none_or(|b| cost < b) {
            best = Some(cost);
        }
    }
    best
}

fn arb_problem() -> impl Strategy<Value = SetPartitionProblem> {
    // Up to 7 elements, up to 12 candidate sets, optional cardinality bounds.
    (2usize..=7, 1usize..=12).prop_flat_map(|(elements, num_sets)| {
        let sets = proptest::collection::vec(
            (proptest::collection::btree_set(0..elements, 1..=elements), 0.1f64..10.0),
            num_sets,
        );
        (Just(elements), sets, proptest::option::of(0usize..3), proptest::option::of(1usize..5))
            .prop_map(|(elements, sets, min, max)| {
                let mut p = SetPartitionProblem::new(elements);
                for (members, cost) in sets {
                    p.add_set(members.into_iter().collect(), cost);
                }
                p.min_sets = min;
                p.max_sets = max;
                p
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dlx_matches_brute_force(p in arb_problem()) {
        let brute = brute_force(&p);
        let dlx = p.solve();
        match (brute, &dlx) {
            (None, None) => {}
            (Some(b), Some(s)) => {
                prop_assert!(s.proven_optimal);
                prop_assert!((s.cost - b).abs() < 1e-9, "dlx {} vs brute {}", s.cost, b);
            }
            (b, s) => prop_assert!(false, "feasibility disagreement: brute {b:?} vs dlx {s:?}"),
        }
    }

    #[test]
    fn simplex_bnb_matches_dlx(p in arb_problem()) {
        let dlx = p.solve();
        let bnb = p.solve_bnb();
        match (&dlx, &bnb) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a.cost - b.cost).abs() < 1e-9),
            _ => prop_assert!(false, "engines disagree on feasibility: {dlx:?} vs {bnb:?}"),
        }
    }

    #[test]
    fn presolved_route_matches_brute_force(p in arb_problem()) {
        let brute = brute_force(&p);
        let presolved = p.solve_presolved();
        match (brute, &presolved) {
            (None, None) => {}
            (Some(b), Some(s)) => {
                prop_assert!(s.proven_optimal);
                prop_assert!((s.cost - b).abs() < 1e-9, "presolved {} vs brute {}", s.cost, b);
                // The reported cost matches the reported selection.
                let recomputed: f64 = s.selected.iter().map(|&i| p.sets[i].1).sum();
                prop_assert!((s.cost - recomputed).abs() < 1e-9);
                let mut covered = vec![0u8; p.num_elements];
                for &i in &s.selected {
                    for &m in &p.sets[i].0 {
                        covered[m] += 1;
                    }
                }
                prop_assert!(covered.iter().all(|&c| c == 1));
                if let Some(min) = p.min_sets {
                    prop_assert!(s.selected.len() >= min);
                }
                if let Some(max) = p.max_sets {
                    prop_assert!(s.selected.len() <= max);
                }
            }
            (b, s) => prop_assert!(
                false,
                "feasibility disagreement: brute {b:?} vs presolved {s:?}"
            ),
        }
    }

    #[test]
    fn solutions_are_exact_covers(p in arb_problem()) {
        if let Some(s) = p.solve() {
            let mut covered = vec![0u8; p.num_elements];
            for &i in &s.selected {
                for &m in &p.sets[i].0 {
                    covered[m] += 1;
                }
            }
            prop_assert!(covered.iter().all(|&c| c == 1));
            if let Some(min) = p.min_sets {
                prop_assert!(s.selected.len() >= min);
            }
            if let Some(max) = p.max_sets {
                prop_assert!(s.selected.len() <= max);
            }
        }
    }
}
