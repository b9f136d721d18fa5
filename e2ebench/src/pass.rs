//! One pass over a workload: ingest every input log, solve every problem,
//! write every abstracted log, then check every output.
//!
//! The untraced pass is the user path through `Gecco::run`. The traced
//! pass calls each layer's public entry point itself, in the order
//! `Gecco::run` wires them, and times each call from outside. Both end in
//! the same digests, which the runner compares.

use crate::digest::{log_digest, Fnv};
use crate::workload::{InputFile, RunSpec, Scale, Workload, STORE_BATCH_TRACES};
use gecco_constraints::{CompiledConstraintSet, ConstraintSet, Diagnostics};
use gecco_core::abstraction::{abstract_log, activity_names};
use gecco_core::candidates::dfg::{dfg_candidates, NoObserver};
use gecco_core::candidates::exclusive::extend_with_exclusive_candidates;
use gecco_core::candidates::exhaustive::exhaustive_candidates;
use gecco_core::{
    group_distance_scan, select_optimal, select_optimal_colgen, use_column_generation,
    AbstractionStrategy, CandidateSet, CandidateStrategy, DistanceOracle, Gecco, Grouping, Outcome,
    Selection,
};
use gecco_eventlog::{
    ingest_to_store, xes, CacheStats, ClassSet, EvalContext, EventLog, IngestOptions,
    InstanceCache, LogIndex, Segmenter,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

const SEGMENTER: Segmenter = Segmenter::RepeatSplit;

/// What one pass reports to the runner.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Raw measurements and counters, by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Digest of every ingested input log, in input order.
    pub log_digest: u64,
    /// Digest of every problem's outcome: grouping, names, distance and
    /// the abstracted log.
    pub abstraction_digest: u64,
    pub attempted: usize,
    pub feasible: usize,
    pub proven: usize,
    /// Problems that panicked, errored or failed an output check.
    pub failed: usize,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl PassOutput {
    /// Line format the child process prints and the runner parses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric {name} {value:?}\n"));
        }
        out.push_str(&format!(
            "digest {:016x} {:016x}\n",
            self.log_digest, self.abstraction_digest
        ));
        out.push_str(&format!(
            "count {} {} {} {}\n",
            self.attempted, self.feasible, self.proven, self.failed
        ));
        for failure in &self.failures {
            out.push_str(&format!("failure {}\n", failure.replace('\n', " ")));
        }
        out
    }

    pub fn parse(text: &str) -> Result<PassOutput, String> {
        let mut out = PassOutput::default();
        let mut seen_count = false;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let bad = || format!("malformed pass line {line:?}");
            match tag {
                "metric" => {
                    let [name, value] = fields[..] else { return Err(bad()) };
                    let value: f64 = value.parse().map_err(|_| bad())?;
                    out.metrics.insert(name.to_string(), value);
                }
                "digest" => {
                    let [log, abstraction] = fields[..] else { return Err(bad()) };
                    out.log_digest = u64::from_str_radix(log, 16).map_err(|_| bad())?;
                    out.abstraction_digest =
                        u64::from_str_radix(abstraction, 16).map_err(|_| bad())?;
                }
                "count" => {
                    let counts: Vec<usize> = fields
                        .iter()
                        .map(|f| f.parse().map_err(|_| bad()))
                        .collect::<Result<_, _>>()?;
                    let [attempted, feasible, proven, failed] = counts[..] else {
                        return Err(bad());
                    };
                    (out.attempted, out.feasible, out.proven, out.failed) =
                        (attempted, feasible, proven, failed);
                    seen_count = true;
                }
                "failure" => out.failures.push(rest.to_string()),
                _ => {}
            }
        }
        if !seen_count {
            return Err("pass printed no counts".to_string());
        }
        Ok(out)
    }
}

/// One problem's outcome.
// A pass holds at most a few dozen outcomes; boxing the feasible one would
// only add noise.
#[allow(clippy::large_enum_variant)]
enum Solved {
    Feasible { grouping: Grouping, names: Vec<String>, distance: f64, proven: bool, log: EventLog },
    Infeasible,
    Failed(String),
}

/// An ingested input log with its problems.
struct Loaded {
    stem: String,
    log: EventLog,
    index: LogIndex,
    cache: InstanceCache,
    problems: Vec<(String, Result<ConstraintSet, String>)>,
}

/// A problem's outcome, with the log and constraints it was posed on.
struct Problem<'a> {
    loaded: &'a Loaded,
    label: &'a str,
    constraints: &'a Result<ConstraintSet, String>,
    solved: Solved,
}

fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

fn guarded(f: impl FnOnce() -> Solved) -> Solved {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Solved::Failed(format!("panicked: {}", panic_message(&*payload))))
}

/// Peak resident set size of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
        })
        .unwrap_or(0)
}

/// Flushes every file under `dir` to disk, so that writeback of one
/// pass's files does not run inside the next pass's timed region.
pub fn sync_tree(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            sync_tree(&path);
        } else if let Ok(file) = File::open(&path) {
            let _ = file.sync_all();
        }
    }
}

fn parse_problems(
    workload: Workload,
    log: &EventLog,
) -> Vec<(String, Result<ConstraintSet, String>)> {
    workload
        .problems(log)
        .into_iter()
        .map(|(label, dsl)| (label, ConstraintSet::parse(&dsl).map_err(|e| e.to_string())))
        .collect()
}

fn store_ingest(input: &Path, dir: &Path) -> Result<gecco_eventlog::TraceStore, String> {
    let file = File::open(input).map_err(|e| format!("cannot open {}: {e}", input.display()))?;
    let options = IngestOptions { batch_traces: STORE_BATCH_TRACES, ..IngestOptions::default() };
    ingest_to_store(BufReader::new(file), dir, &options).map_err(|e| format!("store ingest: {e}"))
}

/// Ingests one input on the workload's route.
fn ingest(
    input: &InputFile,
    store_route: bool,
    store_dir: &Path,
) -> Result<(EventLog, LogIndex), String> {
    if store_route {
        let store = store_ingest(&input.path, store_dir)?;
        let log = store.load_log().map_err(|e| format!("store load: {e}"))?;
        let index = store.build_index().map_err(|e| format!("store index: {e}"))?;
        Ok((log, index))
    } else {
        let log = xes::parse_file(&input.path).map_err(|e| format!("parse: {e}"))?;
        let index = LogIndex::build(&log);
        Ok((log, index))
    }
}

/// The untraced user path: `Gecco::run` per problem.
pub fn run_untraced(
    workload: Workload,
    scale: Scale,
    inputs: &[InputFile],
    work: &Path,
) -> PassOutput {
    let spec = workload.spec(scale);
    let start = Instant::now();
    let loaded: Vec<Loaded> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let (log, index) = ingest(input, spec.store_route, &work.join(format!("store-{i}")))
                .unwrap_or_else(|e| panic!("ingesting {}: {e}", input.path.display()));
            let problems = parse_problems(workload, &log);
            Loaded { stem: stem(input), log, index, cache: InstanceCache::new(), problems }
        })
        .collect();
    let setup_s = start.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    for l in &loaded {
        for (label, constraints) in &l.problems {
            let solved = match constraints {
                Err(e) => Solved::Failed(format!("constraints: {e}")),
                Ok(constraints) => guarded(|| solve_user_path(l, constraints, &spec)),
            };
            problems.push(Problem { loaded: l, label, constraints, solved });
        }
    }
    let solved_at = start.elapsed().as_secs_f64();
    write_outputs(&mut problems, work);
    let e2e_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let (mut out, distance) = finish(&loaded, problems);
    sync_tree(work);
    out.metrics = BTreeMap::from([
        ("e2e_s".to_string(), e2e_s),
        ("setup_s".to_string(), setup_s),
        ("solve_s".to_string(), solved_at - setup_s),
        ("write_s".to_string(), e2e_s - solved_at),
        ("peak_rss_mb".to_string(), rss),
        ("distance".to_string(), distance),
    ]);
    out
}

fn stem(input: &InputFile) -> String {
    input.path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
}

fn solve_user_path(l: &Loaded, constraints: &ConstraintSet, spec: &RunSpec) -> Solved {
    let mut gecco = Gecco::new(&l.log)
        .constraints(constraints.clone())
        .candidates(spec.strategy)
        .budget(spec.budget)
        .selection(spec.selection)
        .with_index(&l.index);
    if spec.shared_cache {
        gecco = gecco.instance_cache(&l.cache);
    }
    match gecco.run() {
        Ok(Outcome::Abstracted(result)) => Solved::Feasible {
            grouping: result.grouping().clone(),
            names: result.activity_names().to_vec(),
            distance: result.distance(),
            proven: result.proven_optimal(),
            log: result.into_log_and_index().0,
        },
        Ok(Outcome::Infeasible(_)) => Solved::Infeasible,
        Err(e) => Solved::Failed(e.to_string()),
    }
}

/// Writes every abstracted log; returns the bytes written.
fn write_outputs(problems: &mut [Problem<'_>], work: &Path) -> u64 {
    let mut bytes = 0;
    for p in problems.iter_mut() {
        if let Solved::Feasible { log, .. } = &p.solved {
            let path = work.join(format!("out-{}-{}.xes", p.loaded.stem, p.label));
            match xes::write_file(log, &path) {
                Ok(()) => bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
                Err(e) => p.solved = Solved::Failed(format!("write: {e}")),
            }
        }
    }
    bytes
}

/// Runs the output checks and folds every outcome into the pass output;
/// also returns the summed distance of the feasible problems.
fn finish(loaded: &[Loaded], problems: Vec<Problem<'_>>) -> (PassOutput, f64) {
    let mut out = PassOutput::default();
    let mut logs = Fnv::default();
    for l in loaded {
        logs.u64(log_digest(&l.log));
    }
    out.log_digest = logs.finish();
    let mut outcomes = Fnv::default();
    let mut distance = 0.0;
    for p in problems {
        out.attempted += 1;
        let name = format!("{}/{}", p.loaded.stem, p.label);
        match p.solved {
            Solved::Feasible { grouping, names, distance: d, proven, log } => {
                let check = match p.constraints {
                    Ok(c) => check_feasible(&p.loaded.log, c, &grouping, d),
                    Err(e) => Err(e.clone()),
                };
                if let Err(e) = check {
                    out.failed += 1;
                    out.failures.push(format!("{name}: {e}"));
                    outcomes.u64(2);
                    continue;
                }
                out.feasible += 1;
                out.proven += usize::from(proven);
                distance += d;
                outcomes.u64(1);
                outcomes.u64(grouping.len() as u64);
                for g in grouping.iter() {
                    outcomes.u64(g.len() as u64);
                    for c in g.iter() {
                        outcomes.u64(c.index() as u64);
                    }
                }
                for n in &names {
                    outcomes.str(n);
                }
                outcomes.u64(d.to_bits());
                outcomes.u64(u64::from(proven));
                outcomes.u64(log_digest(&log));
            }
            Solved::Infeasible => outcomes.u64(0),
            Solved::Failed(e) => {
                out.failed += 1;
                out.failures.push(format!("{name}: {e}"));
                outcomes.u64(2);
            }
        }
    }
    out.abstraction_digest = outcomes.finish();
    (out, distance)
}

/// The output checks on a feasible outcome. None depends on a pinned
/// value, so they hold for any seed.
fn check_feasible(
    log: &EventLog,
    constraints: &ConstraintSet,
    grouping: &Grouping,
    distance: f64,
) -> Result<(), String> {
    let compiled = CompiledConstraintSet::compile_with(constraints, log, SEGMENTER)
        .map_err(|e| format!("recompile: {e}"))?;
    if !grouping.is_exact_cover(log) {
        return Err("grouping is not an exact cover".to_string());
    }
    if let Some(g) = grouping.iter().find(|g| !compiled.holds_scan(g, log)) {
        return Err(format!("group {} violates the constraints", log.format_group(g)));
    }
    let k = grouping.len();
    let (min, max) = compiled.group_count_bounds();
    if min.is_some_and(|m| k < m as usize) || max.is_some_and(|m| k > m as usize) {
        return Err(format!("{k} groups outside the bounds {min:?}..{max:?}"));
    }
    // The selection sums its group costs in `ClassSet` order; so does this.
    let mut groups: Vec<ClassSet> = grouping.groups().to_vec();
    groups.sort();
    let scan: f64 = groups.iter().map(|g| group_distance_scan(log, g, SEGMENTER)).sum();
    if scan.to_bits() != distance.to_bits() {
        return Err(format!("reported distance {distance:?} != scanned distance {scan:?}"));
    }
    Ok(())
}

/// Per-layer accumulators of the traced pass.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn cache_delta(after: CacheStats, before: CacheStats) -> [usize; 4] {
    [
        after.instance_hits - before.instance_hits,
        after.instance_misses - before.instance_misses,
        after.verdict_hits - before.verdict_hits,
        after.verdict_misses - before.verdict_misses,
    ]
}

fn same_selection(a: &Option<Selection>, b: &Option<Selection>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.grouping.groups() == b.grouping.groups()
                && a.distance.to_bits() == b.distance.to_bits()
                && a.proven_optimal == b.proven_optimal
        }
        _ => false,
    }
}

/// The traced pass: every layer called directly and timed from outside.
pub fn run_traced(
    workload: Workload,
    scale: Scale,
    inputs: &[InputFile],
    work: &Path,
) -> PassOutput {
    let spec = workload.spec(scale);
    let mut t = Layers::default();
    let mut loaded = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        t.add("xes.bytes", input.bytes as f64);
        let (log, index) = if spec.store_route {
            let store_dir = work.join(format!("store-{i}"));
            let (store, write_s) = seconds(|| store_ingest(&input.path, &store_dir));
            let store = store.unwrap_or_else(|e| panic!("{e}"));
            t.add("store.write_s", write_s);
            t.add("store.bytes", dir_bytes(&store_dir) as f64);
            let (log, load_s) = seconds(|| store.load_log());
            let log = log.unwrap_or_else(|e| panic!("store load: {e}"));
            let (index, index_s) = seconds(|| store.build_index());
            let index = index.unwrap_or_else(|e| panic!("store index: {e}"));
            t.add("store.load_s", load_s);
            t.add("store.index_s", index_s);
            t.add("trace.path_s", write_s + load_s + index_s);
            (log, index)
        } else {
            let (log, parse_s) = seconds(|| xes::parse_file(&input.path));
            let log = log.unwrap_or_else(|e| panic!("parsing {}: {e}", input.path.display()));
            let (index, index_s) = seconds(|| LogIndex::build(&log));
            t.add("xes.parse_s", parse_s);
            t.add("index.build_s", index_s);
            t.add("trace.path_s", parse_s + index_s);
            (log, index)
        };
        let (problems, dsl_s) = seconds(|| parse_problems(workload, &log));
        t.add("trace.path_s", dsl_s);
        loaded.push(Loaded {
            stem: stem(input),
            log,
            index,
            cache: InstanceCache::new(),
            problems,
        });
    }

    let mut problems = Vec::new();
    let mut cache = [0usize; 4];
    let mut max_gap: f64 = 0.0;
    for l in &loaded {
        let before = l.cache.stats();
        let mut warm_cache = [0usize; 4];
        for (label, constraints) in &l.problems {
            let solved = match constraints {
                Err(e) => Solved::Failed(format!("constraints: {e}")),
                Ok(constraints) => guarded(|| {
                    traced_problem(l, constraints, &spec, &mut t, &mut warm_cache, &mut max_gap)
                }),
            };
            problems.push(Problem { loaded: l, label, constraints, solved });
        }
        let total = cache_delta(l.cache.stats(), before);
        for k in 0..4 {
            cache[k] += total[k] - warm_cache[k];
        }
    }

    let (written, write_s) = seconds(|| write_outputs(&mut problems, work));
    t.add("write.s", write_s);
    t.add("trace.path_s", write_s);

    let (mut out, _) = finish(&loaded, problems);
    sync_tree(work);
    let m = &mut out.metrics;
    let problems_run = out.attempted.max(1) as f64;
    for name in [
        "xes.parse_s",
        "index.build_s",
        "store.write_s",
        "store.load_s",
        "store.index_s",
        "constraints.compile_s",
        "candidates.s",
        "candidates.checked",
        "candidates.satisfied",
        "candidates.pruned_non_occurring",
        "candidates.pruned_by_sketch",
        "candidates.pool",
        "candidates.exclusive",
        "distance.evaluations",
        "selection.solve_s",
        "selection.distance_s",
        "presolve.fixed_sets",
        "presolve.removed_duplicates",
        "presolve.removed_dominated",
        "presolve.components",
        "colgen.lp_solves",
        "colgen.master_pivots",
        "colgen.pricing_calls",
        "colgen.columns_generated",
        "colgen.ip_solves",
        "colgen.artificial_rounds",
        "colgen.mispricings",
        "pricing.groups_examined",
        "pricing.sketch_pruned",
        "pricing.constraint_pruned",
        "pricing.bound_pruned_subtrees",
        "pricing.columns_emitted",
        "abstraction.s",
        "abstraction.events_out",
        "write.s",
        "trace.path_s",
    ] {
        m.insert(name.to_string(), t.get(name));
    }
    m.insert("xes.parse_mb_per_s".into(), ratio(t.get("xes.bytes") / 1e6, t.get("xes.parse_s")));
    m.insert("store.bytes_ratio".into(), ratio(t.get("store.bytes"), t.get("xes.bytes")));
    m.insert(
        "candidates.yield".into(),
        ratio(t.get("candidates.satisfied"), t.get("candidates.checked")),
    );
    m.insert(
        "candidates.budget_exhausted_share".into(),
        t.get("candidates.exhausted") / problems_run,
    );
    m.insert(
        "cache.instance_hit_ratio".into(),
        ratio(cache[0] as f64, (cache[0] + cache[1]) as f64),
    );
    m.insert(
        "cache.verdict_hit_ratio".into(),
        ratio(cache[2] as f64, (cache[2] + cache[3]) as f64),
    );
    m.insert("colgen.gap".into(), max_gap);
    m.insert(
        "pricing.emit_ratio".into(),
        ratio(t.get("pricing.columns_emitted"), t.get("pricing.groups_examined")),
    );
    m.insert("write.mb_per_s".into(), ratio(written as f64 / 1e6, t.get("write.s")));
    out
}

/// One problem through the layers `Gecco::run` wires: compile, Step 1
/// (candidates + exclusive merge), Step 2 cold and then warm, Step 3 or
/// the infeasibility diagnostics.
fn traced_problem(
    l: &Loaded,
    constraints: &ConstraintSet,
    spec: &RunSpec,
    t: &mut Layers,
    warm_cache: &mut [usize; 4],
    max_gap: &mut f64,
) -> Solved {
    let (compiled, compile_s) =
        seconds(|| CompiledConstraintSet::compile_with(constraints, &l.log, SEGMENTER));
    t.add("constraints.compile_s", compile_s);
    t.add("trace.path_s", compile_s);
    let compiled = match compiled {
        Ok(c) => c,
        Err(e) => return Solved::Failed(format!("compile: {e}")),
    };
    let ctx = if spec.shared_cache {
        EvalContext::with_cache(&l.log, &l.index, &l.cache)
    } else {
        EvalContext::new(&l.log, &l.index)
    };

    let (candidates, candidates_s) = seconds(|| {
        let mut c: CandidateSet = match spec.strategy {
            CandidateStrategy::Exhaustive => exhaustive_candidates(&ctx, &compiled, spec.budget),
            CandidateStrategy::DfgUnbounded => {
                dfg_candidates(&ctx, &compiled, None, spec.budget, &mut NoObserver)
            }
            CandidateStrategy::DfgBeam { k } => {
                dfg_candidates(&ctx, &compiled, Some(k), spec.budget, &mut NoObserver)
            }
        };
        extend_with_exclusive_candidates(&ctx, &compiled, &mut c);
        c
    });
    t.add("candidates.s", candidates_s);
    t.add("trace.path_s", candidates_s);
    let stats = &candidates.stats;
    t.add("candidates.checked", stats.checked as f64);
    t.add("candidates.satisfied", stats.satisfied as f64);
    t.add("candidates.pruned_non_occurring", stats.pruned_non_occurring as f64);
    t.add("candidates.pruned_by_sketch", stats.pruned_by_sketch as f64);
    t.add("candidates.exclusive", stats.exclusive_candidates as f64);
    t.add("candidates.exhausted", f64::from(u8::from(stats.budget_exhausted)));
    t.add("candidates.pool", candidates.len() as f64);

    // Step 2 twice over one oracle: the cold call pays for distance
    // evaluation, the warm call finds every distance memoized.
    let oracle = DistanceOracle::new(&ctx, SEGMENTER);
    let bounds = compiled.group_count_bounds();
    let select = || {
        if use_column_generation(&spec.selection, &l.log, &l.index) {
            select_optimal_colgen(&l.log, &compiled, &oracle, bounds, spec.selection)
        } else {
            select_optimal(&l.log, candidates.groups(), &oracle, bounds, spec.selection)
        }
    };
    let (cold, cold_s) = seconds(select);
    t.add("trace.path_s", cold_s);
    t.add("distance.evaluations", oracle.evaluations() as f64);
    let before = l.cache.stats();
    let (warm, warm_s) = seconds(select);
    let delta = cache_delta(l.cache.stats(), before);
    for k in 0..4 {
        warm_cache[k] += delta[k];
    }
    t.add("selection.solve_s", warm_s);
    t.add("selection.distance_s", cold_s - warm_s);
    if !same_selection(&cold, &warm) {
        return Solved::Failed("warm Step 2 selected differently from the cold one".to_string());
    }

    let Some(selection) = cold else {
        let (_, probe_s) = seconds(|| Diagnostics::probe(&compiled, &ctx));
        t.add("trace.path_s", probe_s);
        return Solved::Infeasible;
    };
    if let Some(p) = &selection.presolve {
        t.add("presolve.fixed_sets", p.fixed_sets as f64);
        t.add("presolve.removed_duplicates", p.removed_duplicates as f64);
        t.add("presolve.removed_dominated", p.removed_dominated as f64);
        t.add("presolve.components", p.components as f64);
    }
    if let Some(c) = &selection.colgen {
        t.add("colgen.lp_solves", c.lp_solves as f64);
        t.add("colgen.master_pivots", c.master_pivots as f64);
        t.add("colgen.pricing_calls", c.pricing_calls as f64);
        t.add("colgen.columns_generated", c.columns_generated as f64);
        t.add("colgen.ip_solves", c.ip_solves as f64);
        t.add("colgen.artificial_rounds", c.artificial_rounds as f64);
        t.add("colgen.mispricings", c.mispricings as f64);
        // An unproven LP bound bounds nothing: report the full gap.
        let gap = if c.lp_bound.is_finite() {
            ratio(selection.distance - c.lp_bound, selection.distance)
        } else {
            1.0
        };
        *max_gap = max_gap.max(gap);
    }
    if let Some(p) = &selection.pricing {
        t.add("pricing.groups_examined", p.groups_examined as f64);
        t.add("pricing.sketch_pruned", p.sketch_pruned as f64);
        t.add("pricing.constraint_pruned", p.constraint_pruned as f64);
        t.add("pricing.bound_pruned_subtrees", p.bound_pruned_subtrees as f64);
        t.add("pricing.columns_emitted", p.columns_emitted as f64);
    }

    let ((names, abstracted), abstraction_s) = seconds(|| {
        let names = activity_names(&l.log, &selection.grouping, None);
        let (log, _index) = abstract_log(
            &ctx,
            &selection.grouping,
            &names,
            AbstractionStrategy::Completion,
            SEGMENTER,
        );
        (names, log)
    });
    t.add("abstraction.s", abstraction_s);
    t.add("trace.path_s", abstraction_s);
    t.add("abstraction.events_out", abstracted.num_events() as f64);
    Solved::Feasible {
        grouping: selection.grouping,
        names,
        distance: selection.distance,
        proven: selection.proven_optimal,
        log: abstracted,
    }
}
