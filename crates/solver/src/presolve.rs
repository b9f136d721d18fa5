//! Presolve and decomposition for weighted set partitioning.
//!
//! GECCO's Step-2 instances (§V-C) are highly redundant: candidate pools
//! contain duplicate groups, classes covered by a single candidate force
//! that candidate into every solution, and the candidate/class bipartite
//! graph usually splits into independent blocks. Presolving shrinks the
//! instance *before* the exponential search runs:
//!
//! 1. **Duplicate-set dedup** — sets with identical members collapse to
//!    the cheapest (lowest index on ties); only one of them can ever be
//!    selected, so keeping the rest only widens the search.
//! 2. **Mandatory-set fixing** — an element covered by exactly one set
//!    forces that set into the solution; its elements leave the universe
//!    and every other set touching them becomes unselectable. Runs to a
//!    fixpoint (fixing cascades).
//! 3. **Element dominance** — if every set covering element `a` also
//!    covers element `b` (`cover(a) ⊆ cover(b)`), the chosen set for `a`
//!    already covers `b`, so sets in `cover(b) \ cover(a)` can never be
//!    selected; once the covers coincide, `b`'s exactly-one row is
//!    implied by `a`'s and `b` leaves the universe.
//! 4. **Connected-component decomposition** — the residual element/set
//!    graph splits into connected components that share no elements;
//!    each solves independently and the solutions concatenate. When
//!    residual cardinality bounds couple the components, decomposition
//!    still applies through the **cardinality frontier DP**: every
//!    component is solved once per admissible set count `k` (its
//!    `(cost, k)` frontier) and a dynamic program picks one frontier
//!    entry per component so the total count lands inside the bounds at
//!    minimum cost. [`PresolveStats::decomposition`] records which of
//!    these paths ran.
//!
//! Every reduction is exact: the reduced instance has the same optimal
//! cost as the original, and solutions map back through the recorded
//! fixings. Per component, a greedy warm-start incumbent and a lower
//! bound (the admissible per-element cost share, tightened by the LP
//! relaxation on large components) are threaded into the DLX search, so
//! its branch-and-bound prunes instead of searching cold.

use crate::setpart::{SetPartitionProblem, SetPartitionSolution};
use crate::simplex::{solve_lp_box, LpResult};
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// Component sizes (in sets) that compute the LP-relaxation lower bound
/// before the DLX search. Below the window, the dancing-links search with
/// its built-in per-column share bound finishes faster than one dense LP
/// solve (measured on the `bench_selection` instances, the crossover sits
/// near 256 sets); above it, the dense tableau grows quadratically and the
/// LP costs more than the pruning it buys. The LP only tightens a lower
/// bound, so selections are identical on both sides of the window.
const LP_BOUND_SETS: RangeInclusive<usize> = 257..=512;

/// How the residual instance was (or was not) decomposed — surfaced so
/// callers can see *why* a solve went monolithic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DecompositionStatus {
    /// Presolve solved or refuted the instance outright; no residual was
    /// left to decompose.
    #[default]
    NoResidual,
    /// The residual split into two or more independent components.
    Decomposed,
    /// Residual cardinality bounds couple the components; they were still
    /// split and recombined through the cardinality frontier DP.
    CoupledDp,
    /// The residual element/set graph is a single connected block.
    SingleComponent,
}

/// What presolve removed, for logging and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Sets fixed into the solution (sole cover of some element).
    pub fixed_sets: usize,
    /// Duplicate sets collapsed onto a cheaper twin.
    pub removed_duplicates: usize,
    /// Sets removed by element dominance.
    pub removed_dominated: usize,
    /// Elements whose exactly-one row became redundant.
    pub merged_elements: usize,
    /// Connected components of the residual instance (0 when solved or
    /// infeasible outright).
    pub components: usize,
    /// How (or why not) the residual decomposed.
    pub decomposition: DecompositionStatus,
}

/// Outcome of presolving an instance.
#[derive(Debug)]
pub enum PresolveOutcome<'a> {
    /// Presolve proved that no exact cover satisfies the bounds.
    Infeasible,
    /// Presolve solved the instance outright (everything was forced).
    Solved(SetPartitionSolution, PresolveStats),
    /// A reduced instance remains; solve its components and assemble.
    Reduced(ReducedProblem<'a>),
}

/// One independent block of the reduced instance: a dense local
/// subproblem plus the mapping back to original set indices.
#[derive(Debug)]
pub struct Component {
    problem: SetPartitionProblem,
    set_map: Vec<usize>,
}

impl Component {
    /// The local subproblem (dense element ids, local set indices).
    pub fn problem(&self) -> &SetPartitionProblem {
        &self.problem
    }

    /// Maps a local set index back to the original instance.
    pub fn original_set(&self, local: usize) -> usize {
        self.set_map[local]
    }

    /// Maps a local solution back to original set indices (ascending).
    fn to_original(&self, local: SetPartitionSolution) -> SetPartitionSolution {
        let mut selected: Vec<usize> = local.selected.iter().map(|&i| self.set_map[i]).collect();
        selected.sort_unstable();
        SetPartitionSolution { selected, ..local }
    }
}

/// The reduced instance: forced sets plus independent components.
///
/// Components are ordered by their smallest element id and are fully
/// independent, so callers may solve them in any order — or in parallel —
/// and [`ReducedProblem::assemble`] the per-component solutions; the
/// result is identical either way.
#[derive(Debug)]
pub struct ReducedProblem<'a> {
    problem: &'a SetPartitionProblem,
    stats: PresolveStats,
    /// Sets forced into every solution (ascending original indices).
    fixed: Vec<usize>,
    components: Vec<Component>,
    /// Residual cardinality bounds after the forced selections. `None`
    /// entries mean unbounded; when [`Self::is_coupled`] the component
    /// problems carry no local bounds and these drive the frontier DP.
    residual_min: Option<usize>,
    residual_max: Option<usize>,
    /// Per-component admissible `#sets` ranges `(lo, hi)`; nonempty only
    /// when coupled.
    ranges: Vec<(usize, usize)>,
}

/// One entry of a component's cardinality frontier: the outcome of
/// solving the component with exactly `k` selected sets.
#[derive(Debug, Clone)]
pub enum FrontierOutcome {
    /// The optimal cover with exactly that many sets (original indices).
    Solution(SetPartitionSolution),
    /// No cover with exactly that many sets exists.
    Infeasible,
    /// The node budget ran out undecided; an unproven incumbent may be
    /// carried along (it keeps the assembly feasible but the assembled
    /// solution loses its optimality proof).
    Exhausted(Option<SetPartitionSolution>),
}

impl ReducedProblem<'_> {
    /// The independent subproblems.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Sets presolve forced into every solution.
    pub fn fixed_sets(&self) -> &[usize] {
        &self.fixed
    }

    /// What presolve removed.
    pub fn stats(&self) -> PresolveStats {
        self.stats
    }

    /// Whether residual cardinality bounds couple the components, i.e.
    /// solving goes through [`Self::frontier_tasks`] /
    /// [`Self::assemble_frontier`] instead of
    /// [`Self::solve_component`] / [`Self::assemble`].
    pub fn is_coupled(&self) -> bool {
        !self.ranges.is_empty()
    }

    /// Solves component `idx` with DLX, seeded with a greedy warm start
    /// and a share lower bound (tightened by the LP relaxation when the
    /// component's set count lies in the LP-bound window). Returns the
    /// selected sets as **original** indices, or `None` if the component
    /// is infeasible.
    pub fn solve_component(&self, idx: usize) -> Option<SetPartitionSolution> {
        let component = &self.components[idx];
        let problem = &component.problem;
        let mut lower_bound = share_bound(problem);
        if LP_BOUND_SETS.contains(&problem.sets.len()) {
            match solve_lp_box(&problem.binary_model()) {
                LpResult::Optimal(lp) => lower_bound = lower_bound.max(lp.objective),
                // The LP relaxation is infeasible, so the component is.
                LpResult::Infeasible => return None,
                LpResult::Unbounded => {}
            }
        }
        let local = problem.solve_dlx_outcome(greedy_cover(problem), Some(lower_bound)).0?;
        Some(component.to_original(local))
    }

    /// Concatenates per-component solutions (in component order, as
    /// produced by [`ReducedProblem::solve_component`]) with the fixed
    /// sets into a solution of the original instance. `None` if any
    /// component was infeasible. The cost is recomputed canonically —
    /// original costs summed in ascending set order — so serial and
    /// parallel component solves assemble bit-identical results.
    pub fn assemble(
        &self,
        solutions: impl IntoIterator<Item = Option<SetPartitionSolution>>,
    ) -> Option<SetPartitionSolution> {
        let mut selected = self.fixed.clone();
        let mut proven_optimal = true;
        for solution in solutions {
            let solution = solution?;
            proven_optimal &= solution.proven_optimal;
            selected.extend(solution.selected);
        }
        selected.sort_unstable();
        let cost = selected.iter().map(|&i| self.problem.sets[i].1).sum();
        Some(SetPartitionSolution { selected, cost, proven_optimal })
    }

    /// Solves every component serially and assembles the result.
    pub fn solve(&self) -> Option<SetPartitionSolution> {
        if self.is_coupled() {
            let tasks = self.frontier_tasks();
            let outcomes: Vec<FrontierOutcome> =
                tasks.iter().map(|&(c, k)| self.solve_frontier_task(c, k)).collect();
            return self.assemble_frontier(outcomes);
        }
        let solutions: Vec<Option<SetPartitionSolution>> =
            (0..self.components.len()).map(|i| self.solve_component(i)).collect();
        self.assemble(solutions)
    }

    /// The `(component, k)` pairs the cardinality frontier DP needs, in a
    /// fixed order. The tasks are fully independent — callers may solve
    /// them in any order or in parallel and feed the outcomes back to
    /// [`Self::assemble_frontier`] *in this order*; the assembled result
    /// is identical either way. Empty unless [`Self::is_coupled`].
    pub fn frontier_tasks(&self) -> Vec<(usize, usize)> {
        self.ranges
            .iter()
            .enumerate()
            .flat_map(|(c, &(lo, hi))| (lo..=hi).map(move |k| (c, k)))
            .collect()
    }

    /// Solves component `idx` with exactly `k` selected sets (one
    /// frontier entry), seeded with a greedy warm start (when it happens
    /// to hit `k`) and the share lower bound.
    pub fn solve_frontier_task(&self, idx: usize, k: usize) -> FrontierOutcome {
        let component = &self.components[idx];
        let mut problem = component.problem.clone();
        problem.min_sets = Some(k);
        problem.max_sets = Some(k);
        let (local, conclusive) =
            problem.solve_dlx_outcome(greedy_cover(&problem), Some(share_bound(&problem)));
        match (local.map(|local| component.to_original(local)), conclusive) {
            (Some(solution), true) => FrontierOutcome::Solution(solution),
            (None, true) => FrontierOutcome::Infeasible,
            (incumbent, false) => FrontierOutcome::Exhausted(incumbent),
        }
    }

    /// Combines per-component cardinality frontiers into the cheapest
    /// selection whose total set count satisfies the residual bounds.
    /// `outcomes` must match [`Self::frontier_tasks`] order. `None` when
    /// no admissible combination exists. The DP is deterministic (strict
    /// improvement, smallest total on cost ties), so serial and parallel
    /// task solves assemble bit-identical results.
    pub fn assemble_frontier(
        &self,
        outcomes: impl IntoIterator<Item = FrontierOutcome>,
    ) -> Option<SetPartitionSolution> {
        // Regroup the flat task list into per-component frontiers.
        let mut frontiers: Vec<Vec<(usize, SetPartitionSolution)>> =
            vec![Vec::new(); self.components.len()];
        let mut exhausted = false;
        for (&(c, k), outcome) in self.frontier_tasks().iter().zip(outcomes) {
            match outcome {
                FrontierOutcome::Solution(s) => frontiers[c].push((k, s)),
                FrontierOutcome::Infeasible => {}
                FrontierOutcome::Exhausted(incumbent) => {
                    exhausted = true;
                    if let Some(s) = incumbent {
                        frontiers[c].push((k, s));
                    }
                }
            }
        }
        if frontiers.iter().any(Vec::is_empty) {
            return None;
        }
        let cap = self.residual_max.unwrap_or_else(|| self.ranges.iter().map(|&(_, hi)| hi).sum());
        // dp[t] = min cost with exactly `t` sets over the components seen
        // so far; `choice[c][t]` records which frontier entry of
        // component `c` achieved it.
        let mut dp = vec![f64::INFINITY; cap + 1];
        dp[0] = 0.0;
        let mut choice: Vec<Vec<Option<usize>>> = Vec::with_capacity(self.components.len());
        for frontier in &frontiers {
            let mut next = vec![f64::INFINITY; cap + 1];
            let mut chosen = vec![None; cap + 1];
            for (t, &base) in dp.iter().enumerate() {
                if !base.is_finite() {
                    continue;
                }
                for (entry, (k, solution)) in frontier.iter().enumerate() {
                    let total = t + k;
                    if total > cap {
                        continue;
                    }
                    let cost = base + solution.cost;
                    if cost < next[total] {
                        next[total] = cost;
                        chosen[total] = Some(entry);
                    }
                }
            }
            dp = next;
            choice.push(chosen);
        }
        let lo = self.residual_min.unwrap_or(0);
        let best_total = (lo..=cap)
            .filter(|&t| dp[t].is_finite())
            .min_by(|&a, &b| dp[a].total_cmp(&dp[b]).then(a.cmp(&b)))?;
        // Walk the choices backwards to collect the selection.
        let mut selected = self.fixed.clone();
        let mut proven_optimal = !exhausted;
        let mut total = best_total;
        for (c, frontier) in frontiers.iter().enumerate().rev() {
            let entry = choice[c][total].expect("dp reached this total through component c");
            let (k, solution) = &frontier[entry];
            proven_optimal &= solution.proven_optimal;
            selected.extend_from_slice(&solution.selected);
            total -= k;
        }
        debug_assert_eq!(total, 0);
        selected.sort_unstable();
        let cost = selected.iter().map(|&i| self.problem.sets[i].1).sum();
        Some(SetPartitionSolution { selected, cost, proven_optimal })
    }
}

/// Admissible lower bound: every element costs at least the cheapest
/// per-element share `cost/|set|` among the sets covering it.
fn share_bound(problem: &SetPartitionProblem) -> f64 {
    let mut min_share = vec![f64::INFINITY; problem.num_elements];
    for (members, cost) in &problem.sets {
        let share = cost / members.len() as f64;
        for &element in members {
            if share < min_share[element] {
                min_share[element] = share;
            }
        }
    }
    min_share.iter().sum()
}

/// Greedy feasible cover: take sets by ascending cost share, skipping any
/// that overlap what is already covered. `None` when the greedy pass does
/// not reach a full cover within the cardinality bounds.
fn greedy_cover(problem: &SetPartitionProblem) -> Option<(Vec<usize>, f64)> {
    let mut order: Vec<usize> = (0..problem.sets.len()).collect();
    order.sort_by(|&a, &b| {
        let share_a = problem.sets[a].1 / problem.sets[a].0.len() as f64;
        let share_b = problem.sets[b].1 / problem.sets[b].0.len() as f64;
        share_a.total_cmp(&share_b).then(a.cmp(&b))
    });
    let mut covered = vec![false; problem.num_elements];
    let mut remaining = problem.num_elements;
    let mut chosen = Vec::new();
    for set in order {
        let members = &problem.sets[set].0;
        if members.iter().any(|&m| covered[m]) {
            continue;
        }
        for &m in members {
            covered[m] = true;
        }
        remaining -= members.len();
        chosen.push(set);
        if remaining == 0 {
            break;
        }
    }
    if remaining != 0 {
        return None;
    }
    if problem.min_sets.is_some_and(|min| chosen.len() < min)
        || problem.max_sets.is_some_and(|max| chosen.len() > max)
    {
        return None;
    }
    chosen.sort_unstable();
    let cost = chosen.iter().map(|&i| problem.sets[i].1).sum();
    Some((chosen, cost))
}

/// Working state of the reduction fixpoint.
struct Reducer<'a> {
    problem: &'a SetPartitionProblem,
    /// Member lists filtered to alive elements (shrink as elements merge).
    members: Vec<Vec<usize>>,
    alive_set: Vec<bool>,
    alive_elem: Vec<bool>,
    fixed: Vec<usize>,
    stats: PresolveStats,
}

impl<'a> Reducer<'a> {
    fn new(problem: &'a SetPartitionProblem) -> Reducer<'a> {
        let members: Vec<Vec<usize>> = problem
            .sets
            .iter()
            .map(|(m, _)| {
                let mut m = m.clone();
                m.sort_unstable();
                m.dedup();
                debug_assert!(m.iter().all(|&e| e < problem.num_elements));
                m
            })
            .collect();
        let alive_set: Vec<bool> = members.iter().map(|m| !m.is_empty()).collect();
        Reducer {
            problem,
            members,
            alive_set,
            alive_elem: vec![true; problem.num_elements],
            fixed: Vec::new(),
            stats: PresolveStats::default(),
        }
    }

    /// Sorted list of alive sets covering each element (empty for dead
    /// elements).
    fn covers(&self) -> Vec<Vec<usize>> {
        let mut covers = vec![Vec::new(); self.problem.num_elements];
        for (set, members) in self.members.iter().enumerate() {
            if !self.alive_set[set] {
                continue;
            }
            for &element in members {
                covers[element].push(set);
            }
        }
        covers
    }

    /// Fixes `set` into the solution: its elements leave the universe and
    /// every other set touching them dies.
    fn fix(&mut self, set: usize) {
        self.fixed.push(set);
        self.stats.fixed_sets += 1;
        let elements = std::mem::take(&mut self.members[set]);
        self.alive_set[set] = false;
        for &e in &elements {
            self.alive_elem[e] = false;
        }
        // Alive sets only contain alive elements (the invariant every
        // reduction maintains), so a member that just died pinpoints an
        // overlap with the fixed set — no per-member containment scan.
        for (other, members) in self.members.iter().enumerate() {
            if self.alive_set[other] && members.iter().any(|&m| !self.alive_elem[m]) {
                self.alive_set[other] = false;
            }
        }
    }

    /// One pass of mandatory fixing; `Err(())` on a newly uncoverable
    /// element, `Ok(changed)` otherwise. Each `covers()` rebuild fixes
    /// *every* currently forced element (skipping ones a previous fix in
    /// the batch already covered or orphaned), so a cascade of `F`
    /// fixings costs a handful of rebuilds, not `F` of them.
    fn fix_mandatory_pass(&mut self) -> Result<bool, ()> {
        let mut changed = false;
        loop {
            let covers = self.covers();
            let mut batch_fixed = false;
            for (element, cover) in covers.iter().enumerate() {
                if !self.alive_elem[element] {
                    continue;
                }
                match cover.len() {
                    0 => return Err(()),
                    1 => {
                        let set = cover[0];
                        if !self.alive_set[set] {
                            // Its sole cover died earlier in this batch:
                            // uncoverable.
                            return Err(());
                        }
                        self.fix(set);
                        batch_fixed = true;
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !batch_fixed {
                return Ok(changed);
            }
        }
    }

    /// Collapses duplicate member lists onto the cheapest set.
    fn dedup_pass(&mut self) -> bool {
        let mut best: HashMap<&[usize], usize> = HashMap::new();
        let mut losers = Vec::new();
        for (set, members) in self.members.iter().enumerate() {
            if !self.alive_set[set] {
                continue;
            }
            match best.entry(members.as_slice()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(set);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let held = *e.get();
                    // Strictly cheaper wins; ties keep the lower index
                    // (the held one, since we scan ascending).
                    if self.problem.sets[set].1 < self.problem.sets[held].1 - 1e-12 {
                        losers.push(held);
                        e.insert(set);
                    } else {
                        losers.push(set);
                    }
                }
            }
        }
        let changed = !losers.is_empty();
        for set in losers {
            self.alive_set[set] = false;
            self.stats.removed_duplicates += 1;
        }
        changed
    }

    /// One pass of element dominance; returns whether anything changed.
    fn dominance_pass(&mut self) -> bool {
        let covers = self.covers();
        let alive: Vec<usize> =
            (0..self.problem.num_elements).filter(|&e| self.alive_elem[e]).collect();
        let mut changed = false;
        for (i, &a) in alive.iter().enumerate() {
            if !self.alive_elem[a] || covers[a].is_empty() {
                continue;
            }
            for &b in &alive[i + 1..] {
                if !self.alive_elem[a] || !self.alive_elem[b] {
                    continue;
                }
                // Orient so `small`'s cover is the (candidate) subset.
                let (small, large) =
                    if covers[a].len() <= covers[b].len() { (a, b) } else { (b, a) };
                if covers[small].is_empty() || !is_subset(&covers[small], &covers[large]) {
                    continue;
                }
                // Sets covering `large` but not `small` can never be
                // selected; after removing them the covers coincide and
                // `large`'s row is redundant.
                for &set in &covers[large] {
                    if self.alive_set[set] && covers[small].binary_search(&set).is_err() {
                        self.alive_set[set] = false;
                        self.stats.removed_dominated += 1;
                    }
                }
                self.alive_elem[large] = false;
                self.stats.merged_elements += 1;
                for &set in &covers[small] {
                    if self.alive_set[set] {
                        self.members[set].retain(|&e| e != large);
                    }
                }
                changed = true;
            }
        }
        changed
    }
}

fn is_subset(small: &[usize], large: &[usize]) -> bool {
    let mut it = large.iter();
    'outer: for s in small {
        for l in it.by_ref() {
            match l.cmp(s) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Presolves `problem`: applies the reductions of the module docs to a
/// fixpoint, then decomposes the residual into connected components.
pub fn presolve(problem: &SetPartitionProblem) -> PresolveOutcome<'_> {
    let mut reducer = Reducer::new(problem);
    loop {
        let mut changed = match reducer.fix_mandatory_pass() {
            Ok(changed) => changed,
            Err(()) => return PresolveOutcome::Infeasible,
        };
        changed |= reducer.dedup_pass();
        changed |= reducer.dominance_pass();
        if !changed {
            break;
        }
    }

    let mut stats = reducer.stats;
    let fixed_count = reducer.fixed.len();
    // Residual cardinality bounds after the forced selections.
    if problem.max_sets.is_some_and(|max| fixed_count > max) {
        return PresolveOutcome::Infeasible;
    }
    let residual_min = problem.min_sets.map(|min| min.saturating_sub(fixed_count));
    let residual_max = problem.max_sets.map(|max| max - fixed_count);
    let mut fixed = std::mem::take(&mut reducer.fixed);
    fixed.sort_unstable();

    let alive_elements: Vec<usize> =
        (0..problem.num_elements).filter(|&e| reducer.alive_elem[e]).collect();
    if alive_elements.is_empty() {
        // Everything was forced: no sets remain selectable (any survivor
        // would overlap a fixed set), so the minimum bound must already
        // hold (the maximum was checked against the fixed count above).
        if residual_min.unwrap_or(0) > 0 {
            return PresolveOutcome::Infeasible;
        }
        let cost = fixed.iter().map(|&i| problem.sets[i].1).sum();
        return PresolveOutcome::Solved(
            SetPartitionSolution { selected: fixed, cost, proven_optimal: true },
            stats,
        );
    }

    // A maximum at or above the residual element count can never bind
    // (selected sets are disjoint and nonempty), so only a real minimum
    // or a binding maximum couples the components.
    let binding_max = residual_max.filter(|&max| max < alive_elements.len());
    let bounded = residual_min.unwrap_or(0) > 0 || binding_max.is_some();
    let element_groups = connected_components(&reducer, &alive_elements);
    // The frontier DP only earns its keep with ≥ 2 components; a single
    // block solves directly with the bounds attached.
    let coupled = bounded && element_groups.len() > 1;
    stats.decomposition = if coupled {
        DecompositionStatus::CoupledDp
    } else if element_groups.len() > 1 {
        DecompositionStatus::Decomposed
    } else {
        DecompositionStatus::SingleComponent
    };

    let mut components = Vec::with_capacity(element_groups.len());
    for elements in element_groups {
        let mut local_id = HashMap::with_capacity(elements.len());
        for (local, &element) in elements.iter().enumerate() {
            local_id.insert(element, local);
        }
        let mut local = SetPartitionProblem::new(elements.len());
        if !coupled {
            local.min_sets = residual_min.filter(|&m| m > 0);
            local.max_sets = residual_max;
        }
        local.max_nodes = problem.max_nodes;
        let mut set_map = Vec::new();
        for (set, members) in reducer.members.iter().enumerate() {
            if !reducer.alive_set[set] || !local_id.contains_key(&members[0]) {
                continue;
            }
            let local_members: Vec<usize> = members.iter().map(|m| local_id[m]).collect();
            local.add_set(local_members, problem.sets[set].1);
            set_map.push(set);
        }
        components.push(Component { problem: local, set_map });
    }
    stats.components = components.len();
    let ranges = if coupled {
        match frontier_ranges(&components, residual_min, residual_max) {
            Some(ranges) => ranges,
            // The k-ranges cannot meet the bounds no matter the costs.
            None => return PresolveOutcome::Infeasible,
        }
    } else {
        Vec::new()
    };
    PresolveOutcome::Reduced(ReducedProblem {
        problem,
        stats,
        fixed,
        components,
        residual_min: residual_min.filter(|&m| m > 0),
        residual_max,
        ranges,
    })
}

/// Per-component admissible set-count ranges `(lo, hi)` under the global
/// residual bounds: `lo` from the pigeonhole bound `⌈|elements| / max set
/// size⌉`, `hi` from the element count, both tightened to a fixpoint
/// against what the *other* components must at least / can at most
/// contribute. `None` when some range empties — the coupled instance is
/// infeasible regardless of costs.
fn frontier_ranges(
    components: &[Component],
    residual_min: Option<usize>,
    residual_max: Option<usize>,
) -> Option<Vec<(usize, usize)>> {
    let mut ranges: Vec<(usize, usize)> = components
        .iter()
        .map(|c| {
            let elements = c.problem.num_elements;
            let largest = c.problem.sets.iter().map(|(m, _)| m.len()).max().unwrap_or(1);
            (elements.div_ceil(largest), elements)
        })
        .collect();
    loop {
        let lo_sum: usize = ranges.iter().map(|&(lo, _)| lo).sum();
        let hi_sum: usize = ranges.iter().map(|&(_, hi)| hi).sum();
        let mut changed = false;
        for range in &mut ranges {
            let (lo, hi) = *range;
            if let Some(max) = residual_max {
                // The others need at least `lo_sum - lo` sets.
                let budget = max.checked_sub(lo_sum - lo)?;
                if budget < hi {
                    range.1 = budget;
                    changed = true;
                }
            }
            if let Some(min) = residual_min {
                // The others can contribute at most `hi_sum - hi` sets.
                let need = min.saturating_sub(hi_sum - hi);
                if need > lo {
                    range.0 = need;
                    changed = true;
                }
            }
            if range.0 > range.1 {
                return None;
            }
        }
        if !changed {
            return Some(ranges);
        }
    }
}

/// Groups alive elements into connected components of the element/set
/// graph (union-find), ordered by smallest element id.
fn connected_components(reducer: &Reducer<'_>, alive_elements: &[usize]) -> Vec<Vec<usize>> {
    let n = reducer.problem.num_elements;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (set, members) in reducer.members.iter().enumerate() {
        if !reducer.alive_set[set] {
            continue;
        }
        let root = find(&mut parent, members[0]);
        for &m in &members[1..] {
            let r = find(&mut parent, m);
            parent[r] = root;
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of_root: HashMap<usize, usize> = HashMap::new();
    for &element in alive_elements {
        let root = find(&mut parent, element);
        match group_of_root.entry(root) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(groups.len());
                groups.push(vec![element]);
            }
            std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(element),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(n: usize, sets: &[(&[usize], f64)]) -> SetPartitionProblem {
        let mut p = SetPartitionProblem::new(n);
        for (members, cost) in sets {
            p.add_set(members.to_vec(), *cost);
        }
        p
    }

    fn reduced(p: &SetPartitionProblem) -> ReducedProblem<'_> {
        match presolve(p) {
            PresolveOutcome::Reduced(r) => r,
            other => panic!("expected Reduced, got {other:?}"),
        }
    }

    #[test]
    fn duplicates_collapse_to_the_cheapest() {
        let p =
            problem(2, &[(&[0, 1], 3.0), (&[0, 1], 1.0), (&[0, 1], 2.0), (&[0], 0.4), (&[1], 0.4)]);
        let r = reduced(&p);
        assert_eq!(r.stats().removed_duplicates, 2);
        let s = r.solve().unwrap();
        assert_eq!(s.selected, vec![3, 4]);
        assert!((s.cost - 0.8).abs() < 1e-12);
        // Flip the pricing: the kept duplicate is the 1.0 one.
        let p = problem(2, &[(&[0, 1], 3.0), (&[0, 1], 1.0), (&[0], 0.9), (&[1], 0.9)]);
        let s = p.solve_presolved().unwrap();
        assert_eq!(s.selected, vec![1]);
        assert!((s.cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mandatory_fixing_cascades() {
        // Element 0 only covered by {0,1}; fixing it kills {1,2}, which
        // makes {2} mandatory for element 2.
        let p = problem(3, &[(&[0, 1], 1.0), (&[1, 2], 1.0), (&[2], 0.5)]);
        match presolve(&p) {
            PresolveOutcome::Solved(s, stats) => {
                assert_eq!(s.selected, vec![0, 2]);
                assert!((s.cost - 1.5).abs() < 1e-12);
                assert!(s.proven_optimal);
                assert_eq!(stats.decomposition, DecompositionStatus::NoResidual);
            }
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    #[test]
    fn fixing_detects_conflicts() {
        // Both pairs are mandatory (sole covers of elements 0 and 2) but
        // overlap on element 1.
        let p = problem(3, &[(&[0, 1], 1.0), (&[1, 2], 1.0)]);
        assert!(matches!(presolve(&p), PresolveOutcome::Infeasible));
        assert!(p.solve().is_none(), "oracle agrees");
    }

    #[test]
    fn uncoverable_element_is_infeasible() {
        let p = problem(2, &[(&[0], 1.0)]);
        assert!(matches!(presolve(&p), PresolveOutcome::Infeasible));
    }

    #[test]
    fn dominance_removes_double_cover_sets() {
        // cover(0) = {s0, s1} ⊂ cover(1) = {s0, s1, s2}: s2 = {1} can
        // never be selected (element 1 is always covered via element 0's
        // set), and element 1's row becomes redundant.
        let p = problem(3, &[(&[0, 1], 1.0), (&[0, 1, 2], 1.4), (&[1], 0.2), (&[2], 0.3)]);
        let r = reduced(&p);
        assert!(r.stats().removed_dominated >= 1);
        assert!(r.stats().merged_elements >= 1);
        let s = r.solve().unwrap();
        let oracle = p.solve().unwrap();
        assert!((s.cost - oracle.cost).abs() < 1e-9);
        assert_eq!(s.selected, vec![0, 3]);
    }

    #[test]
    fn components_split_and_concatenate() {
        // Two independent blocks: {0,1} and {2,3}.
        let p = problem(
            4,
            &[(&[0, 1], 1.0), (&[0], 0.7), (&[1], 0.7), (&[2, 3], 2.0), (&[2], 0.6), (&[3], 0.6)],
        );
        let r = reduced(&p);
        assert_eq!(r.components().len(), 2);
        assert_eq!(r.stats().components, 2);
        let s = r.solve().unwrap();
        assert_eq!(s.selected, vec![0, 4, 5]);
        assert!((s.cost - 2.2).abs() < 1e-12);
        assert!(s.proven_optimal);
        // Component solutions assemble in any order the caller produces
        // them (they arrive indexed, so order is the component order).
        let sols: Vec<_> = (0..2).map(|i| r.solve_component(i)).collect();
        let s2 = r.assemble(sols).unwrap();
        assert_eq!(s2.selected, s.selected);
        assert!((s2.cost - s.cost).abs() < 1e-12);
    }

    #[test]
    fn cardinality_bounds_decompose_through_the_frontier_dp() {
        let mut p = problem(
            4,
            &[(&[0, 1], 1.0), (&[0], 0.7), (&[1], 0.7), (&[2, 3], 2.0), (&[2], 0.6), (&[3], 0.6)],
        );
        p.max_sets = Some(2);
        let r = reduced(&p);
        assert_eq!(r.components().len(), 2, "the DP keeps the blocks separate");
        assert!(r.is_coupled());
        assert_eq!(r.stats().decomposition, DecompositionStatus::CoupledDp);
        let s = r.solve().unwrap();
        let oracle = p.solve().unwrap();
        assert_eq!(s.selected, vec![0, 3]);
        assert!((s.cost - oracle.cost).abs() < 1e-9);
        assert!(s.proven_optimal);
    }

    #[test]
    fn min_bounds_decompose_through_the_frontier_dp() {
        // A minimum forces the expensive singletons in the cheapest way
        // across both blocks; the DP must pick the global split (1 + 2 or
        // 2 + 1), not a per-component guess.
        let mut p = problem(
            4,
            &[(&[0, 1], 1.0), (&[0], 0.7), (&[1], 0.8), (&[2, 3], 1.0), (&[2], 0.6), (&[3], 0.85)],
        );
        p.min_sets = Some(3);
        let r = reduced(&p);
        assert!(r.is_coupled());
        let s = r.solve().unwrap();
        assert!(s.proven_optimal);
        for (name, oracle) in [("dlx", p.solve().unwrap()), ("bnb", p.solve_bnb().unwrap())] {
            assert!((s.cost - oracle.cost).abs() < 1e-9, "{name}");
            assert_eq!(s.selected, oracle.selected, "{name}");
        }
    }

    #[test]
    fn frontier_dp_detects_infeasible_ranges() {
        // Two blocks {0,1} and {2,3}, each coverable by one pair or two
        // singletons: any cover needs at least 2 sets, but max_sets = 1.
        // Nothing is fixed or dominated, so only the k-ranges refute it.
        let mut p = problem(
            4,
            &[(&[0, 1], 1.0), (&[0], 0.5), (&[1], 0.5), (&[2, 3], 1.0), (&[2], 0.5), (&[3], 0.5)],
        );
        p.max_sets = Some(1);
        assert!(matches!(presolve(&p), PresolveOutcome::Infeasible));
        assert!(p.solve().is_none(), "oracle agrees");
    }

    #[test]
    fn lp_bound_window_is_selection_invariant() {
        // The LP bound is a pruning aid, never a correctness lever: a
        // component inside `LP_BOUND_SETS` (LP computed) and one below it
        // (LP skipped) must both return the un-presolved oracle's
        // selection. Both instances build on a 9-element odd cycle of
        // pairs and singletons, so the LP relaxation is fractional and
        // actually differs from the IP.
        let mut small = SetPartitionProblem::new(9);
        for i in 0..9usize {
            small.add_set(vec![i, (i + 1) % 9], 1.0 + 0.01 * i as f64);
            small.add_set(vec![i], 0.61 + 0.005 * i as f64);
        }
        // The same cycle plus every 3- to 5-element subset at a cost share
        // no cover can afford: 18 + 84 + 126 + 126 sets, one component.
        let mut large = small.clone();
        for mask in 0u32..1 << 9 {
            let members: Vec<usize> = (0..9).filter(|&e| mask & (1 << e) != 0).collect();
            if (3..=5).contains(&members.len()) {
                let cost = 0.9 * members.len() as f64 + 0.001 * mask as f64;
                large.add_set(members, cost);
            }
        }
        for (p, lp) in [(&small, false), (&large, true)] {
            let r = reduced(p);
            assert_eq!(r.components().len(), 1);
            let sets = r.components()[0].problem().sets.len();
            assert_eq!(LP_BOUND_SETS.contains(&sets), lp, "{sets} sets");
            let presolved = r.solve().unwrap();
            let oracle = p.solve().unwrap();
            assert_eq!(presolved.selected, oracle.selected, "{sets} sets");
            assert!((presolved.cost - oracle.cost).abs() < 1e-9, "{sets} sets");
            assert!(presolved.proven_optimal && oracle.proven_optimal);
        }
    }

    #[test]
    fn loose_max_bound_does_not_couple() {
        // max_sets ≥ residual element count can never bind, so plain
        // decomposition applies and no frontier ranges are computed.
        let mut p = problem(
            4,
            &[(&[0, 1], 1.0), (&[0], 0.7), (&[1], 0.7), (&[2, 3], 2.0), (&[2], 0.6), (&[3], 0.6)],
        );
        p.max_sets = Some(4);
        let r = reduced(&p);
        assert_eq!(r.components().len(), 2);
        assert!(!r.is_coupled());
        assert_eq!(r.stats().decomposition, DecompositionStatus::Decomposed);
        let s = r.solve().unwrap();
        let oracle = p.solve().unwrap();
        assert!((s.cost - oracle.cost).abs() < 1e-9);
    }

    #[test]
    fn fixing_adjusts_cardinality_bounds() {
        // {0,1} is mandatory; with max_sets = 1 nothing more fits, so the
        // remaining block {2,3} is uncoverable.
        let mut p = problem(4, &[(&[0, 1], 1.0), (&[2, 3], 1.0), (&[2], 0.4), (&[3], 0.4)]);
        p.max_sets = Some(1);
        assert!(
            matches!(presolve(&p), PresolveOutcome::Infeasible) || p.solve_presolved().is_none()
        );
        assert!(p.solve().is_none(), "oracle agrees");
    }

    #[test]
    fn greedy_warm_start_is_feasible_when_found() {
        let p = problem(3, &[(&[0, 1, 2], 2.0), (&[0], 1.0), (&[1], 1.0), (&[2], 1.0)]);
        let (rows, cost) = greedy_cover(&p).unwrap();
        let mut covered = [false; 3];
        for &r in &rows {
            for &m in &p.sets[r].0 {
                assert!(!covered[m]);
                covered[m] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        assert!((cost - rows.iter().map(|&r| p.sets[r].1).sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn share_bound_is_admissible() {
        let p = problem(3, &[(&[0, 1], 1.0), (&[2], 0.5), (&[0], 0.8), (&[1], 0.9)]);
        let lb = share_bound(&p);
        let opt = p.solve().unwrap().cost;
        assert!(lb <= opt + 1e-12);
    }

    #[test]
    fn solve_presolved_matches_oracle_on_a_mixed_instance() {
        // Duplicates + a mandatory singleton + two components at once.
        let p = problem(
            5,
            &[
                (&[0, 1], 1.0),
                (&[0, 1], 2.0), // duplicate, more expensive
                (&[0], 0.8),
                (&[1], 0.8),
                (&[2], 0.3), // sole cover of 2 → fixed
                (&[3, 4], 1.1),
                (&[3], 0.5),
                (&[4], 0.5),
            ],
        );
        let presolved = p.solve_presolved().unwrap();
        assert!(presolved.proven_optimal);
        for (name, oracle) in [("dlx", p.solve().unwrap()), ("bnb", p.solve_bnb().unwrap())] {
            assert!((presolved.cost - oracle.cost).abs() < 1e-9, "{name}");
            // Unique optimum here → identical selections too.
            assert_eq!(presolved.selected, oracle.selected, "{name}");
        }
    }

    #[test]
    fn is_subset_merge_walk() {
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[1, 2]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2], &[2]));
    }
}
