//! Benchmark runner.
//!
//! ```text
//! gecco-e2ebench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's input logs from the seed, then runs passes
//! until `S` seconds have been measured. Every pass runs in its own child
//! process (this binary with `--child`) under a watchdog: peak RSS is the
//! child's own `VmHWM`, and a panic, a non-zero exit or a timeout counts
//! the pass's problems as failed instead of stalling the run. The last
//! line of stdout is the result as one JSON object; the line before it
//! holds the run metadata, which is also written, with every pass, to
//! `results/` in this directory.

use gecco_e2ebench::pass::{run_traced, run_untraced, sync_tree, PassOutput};
use gecco_e2ebench::workload::{InputFile, Scale, Workload};
use gecco_e2ebench::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Whole-run limit: no pass starts, and no child lives, past it.
const RUN_LIMIT: Duration = Duration::from_secs(165);
/// No new pass starts once this much of the run is gone.
const START_LIMIT: Duration = Duration::from_secs(120);
/// Untraced passes per run at least (traced passes in a traced run), so
/// every reported figure is a median of several, however long a pass.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Child mode: `--child untraced|traced WORKLOAD WORKDIR INPUT...`.
fn child(args: &[String]) -> ExitCode {
    let [mode, workload, work, inputs @ ..] = args else {
        eprintln!("--child needs a mode, a workload, a work directory and inputs");
        return ExitCode::FAILURE;
    };
    let Some(workload) = Workload::parse(workload) else {
        eprintln!("unknown workload {workload:?}");
        return ExitCode::FAILURE;
    };
    let inputs: Vec<InputFile> = inputs
        .iter()
        .map(|p| InputFile {
            path: PathBuf::from(p),
            traces: 0,
            events: 0,
            bytes: std::fs::metadata(p).map(|m| m.len()).unwrap_or(0),
        })
        .collect();
    let work = Path::new(work);
    let out = match mode.as_str() {
        "untraced" => run_untraced(workload, Scale::Full, &inputs, work),
        "traced" => run_traced(workload, Scale::Full, &inputs, work),
        _ => {
            eprintln!("unknown child mode {mode:?}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", out.render());
    ExitCode::SUCCESS
}

/// Runs one pass in a child process, killed at `deadline`. The pass
/// writes its stores and outputs into a new directory `work`: on a file
/// system mounted with `discard`, truncating the previous pass's files
/// made each pass of a run slower than the one before.
fn run_pass(
    traced: bool,
    workload: Workload,
    work: &Path,
    inputs: &[InputFile],
    threads: usize,
    deadline: Instant,
) -> Result<PassOutput, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--child")
        .arg(if traced { "traced" } else { "untraced" })
        .arg(workload.name())
        .arg(work)
        .args(inputs.iter().map(|i| &i.path))
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader.join().map_err(|_| "stdout reader panicked")?;
    match status {
        None => Err("timed out".to_string()),
        Some(s) if !s.success() => Err(format!("child {s}")),
        Some(_) => PassOutput::parse(&text),
    }
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 { values[n / 2] } else { (values[n / 2 - 1] + values[n / 2]) / 2.0 })
}

fn metric_median(passes: &[&PassOutput], name: &str) -> f64 {
    median(passes.iter().filter_map(|p| p.metrics.get(name).copied()).collect()).unwrap_or(0.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One pass's record: which kind it was and what it returned.
struct Sample {
    traced: bool,
    seconds: f64,
    result: Result<PassOutput, String>,
}

fn run(args: Args) -> Result<(), String> {
    let started = Instant::now();
    let run_deadline = started + RUN_LIMIT;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = root.join("work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _cleanup = RemoveOnDrop(work.clone());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One rayon thread: the vendored rayon stand-in spawns OS threads on
    // every parallel call, and with two threads the same colgen input
    // took 4.1 s to 5.1 s on a 2-vCPU VM (2.9 s to 3.2 s with one).
    let threads = 1;

    let gen_start = Instant::now();
    let inputs = args
        .workload
        .generate(args.seed, Scale::Full, &work.join("inputs"))
        .map_err(|e| format!("generating inputs: {e}"))?;
    sync_tree(&work);
    let gen_s = gen_start.elapsed().as_secs_f64();

    // The store route must reproduce the memory route's digests: take
    // them once, from a memory-route pass over the same inputs.
    let reference = (args.workload == Workload::StoreLean).then(|| {
        run_pass(
            false,
            Workload::IngestLean,
            &work.join("reference"),
            &inputs,
            threads,
            run_deadline,
        )
        .map(|r| (r.log_digest, r.abstraction_digest))
    });

    let mut samples: Vec<Sample> = Vec::new();
    let mut measured = 0.0;
    loop {
        let untraced = samples.iter().filter(|s| !s.traced).count();
        let traced = samples.len() - untraced;
        // A traced run alternates, untraced first: the untraced passes
        // give the digest and timing the traced ones are compared with.
        let next_traced = args.trace && untraced > traced;
        let enough =
            if args.trace { untraced >= 1 && traced >= MIN_PASSES } else { untraced >= MIN_PASSES };
        // Once enough passes ran, stop before a pass that would end past
        // the measuring time, so a run measures at most `--seconds`.
        let same_kind: Vec<f64> =
            samples.iter().filter(|s| s.traced == next_traced).map(|s| s.seconds).collect();
        let expected = same_kind.iter().sum::<f64>() / same_kind.len().max(1) as f64;
        if (enough && measured + expected > args.seconds) || started.elapsed() >= START_LIMIT {
            break;
        }
        let t = Instant::now();
        let pass_dir = work.join(format!("pass-{}", samples.len()));
        let result =
            run_pass(next_traced, args.workload, &pass_dir, &inputs, threads, run_deadline);
        let seconds = t.elapsed().as_secs_f64();
        measured += seconds;
        samples.push(Sample { traced: next_traced, seconds, result });
    }

    // Problems per pass, for passes that died before reporting.
    let per_pass = samples
        .iter()
        .find_map(|s| s.result.as_ref().ok().map(|p| p.attempted))
        .unwrap_or(inputs.len());
    // Every pass must reproduce the reference digests: the memory route's
    // on `store-lean`, else the first untraced pass's. A pass with no
    // reference to compare with cannot be verified and counts as failed.
    let mut failures = Vec::new();
    let expected = match reference {
        Some(Ok(digests)) => Some(digests),
        Some(Err(e)) => {
            failures.push(format!("memory-route reference pass: {e}"));
            None
        }
        None => samples.iter().find_map(|s| {
            s.result
                .as_ref()
                .ok()
                .filter(|_| !s.traced)
                .map(|p| (p.log_digest, p.abstraction_digest))
        }),
    };
    // Problem counts over all passes, and over the untraced ones alone
    // (the shares are end-to-end metrics, so they come from those).
    let (mut attempted, mut failed) = (0, 0);
    let (mut u_attempted, mut u_failed, mut feasible, mut proven) = (0, 0, 0, 0);
    let mut untraced: Vec<&PassOutput> = Vec::new();
    let mut traced: Vec<&PassOutput> = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let (pass_attempted, pass_failed) = match &s.result {
            Err(e) => {
                failures.push(format!("pass {i}: {e}"));
                (per_pass, per_pass)
            }
            Ok(p) => {
                failures.extend(p.failures.iter().map(|f| format!("pass {i}: {f}")));
                if expected != Some((p.log_digest, p.abstraction_digest)) {
                    failures.push(format!("pass {i}: digests differ from the reference pass"));
                    (p.attempted, p.attempted)
                } else {
                    if s.traced {
                        traced.push(p);
                    } else {
                        feasible += p.feasible;
                        proven += p.proven;
                        untraced.push(p);
                    }
                    (p.attempted, p.failed)
                }
            }
        };
        attempted += pass_attempted;
        failed += pass_failed;
        if !s.traced {
            u_attempted += pass_attempted;
            u_failed += pass_failed;
        }
    }

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        for m in PER_LAYER {
            let value = if m.name == "trace.overhead_s" {
                metric_median(&traced, "trace.path_s") - metric_median(&untraced, "e2e_s")
            } else {
                metric_median(&traced, m.name)
            };
            metrics.push((m.name, m.unit, value));
        }
    } else {
        let share = |num: usize, den: usize| if den > 0 { num as f64 / den as f64 } else { 0.0 };
        for m in END_TO_END {
            let value = match m.name {
                "feasible_share" => share(feasible, u_attempted),
                "proven_share" => share(proven, feasible),
                "ok_share" => share(u_attempted - u_failed, u_attempted),
                name => metric_median(&untraced, name),
            };
            metrics.push((m.name, m.unit, value));
        }
    }
    let correct = failed == 0 && !samples.is_empty();

    let mut meta = BTreeMap::new();
    meta.insert("workload", json_str(args.workload.name()));
    meta.insert("seed", args.seed.to_string());
    meta.insert("trace", u8::from(args.trace).to_string());
    meta.insert("seconds", json_num(args.seconds));
    meta.insert("commit", json_str(&commit()));
    meta.insert("nproc", nproc.to_string());
    meta.insert("rayon_threads", threads.to_string());
    meta.insert("untraced_samples", untraced.len().to_string());
    meta.insert("traced_samples", traced.len().to_string());
    meta.insert("inputs_gen_s", json_num(gen_s));
    meta.insert(
        "inputs",
        format!(
            "[{}]",
            inputs
                .iter()
                .map(|i| format!(
                    "{{\"file\": {}, \"traces\": {}, \"events\": {}, \"bytes\": {}}}",
                    json_str(&i.path.file_name().unwrap_or_default().to_string_lossy()),
                    i.traces,
                    i.events,
                    i.bytes
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    meta.insert(
        "failures",
        format!("[{}]", failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", ")),
    );
    let meta_json = format!(
        "{{{}}}",
        meta.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect::<Vec<_>>().join(", ")
    );
    let passes_json = samples
        .iter()
        .map(|s| {
            let body = match &s.result {
                Ok(p) => format!(
                    "\"metrics\": {{{}}}",
                    p.metrics
                        .iter()
                        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                Err(e) => format!("\"error\": {}", json_str(e)),
            };
            format!("{{\"traced\": {}, \"wall_s\": {}, {body}}}", s.traced, json_num(s.seconds))
        })
        .collect::<Vec<_>>()
        .join(", ");
    let result_json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics
            .iter()
            .map(|(name, unit, v)| format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let results_dir = root.join("results");
    let record = format!(
        "{{\"meta\": {meta_json}, \"passes\": [{passes_json}], \"result\": {result_json}}}\n"
    );
    let record_path = results_dir.join(format!(
        "{}-seed{}-trace{}-{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&results_dir)
        .and_then(|()| std::fs::write(&record_path, record))
        .map_err(|e| format!("writing {}: {e}", record_path.display()))?;
    for f in &failures {
        eprintln!("failure: {f}");
    }
    println!("{{\"meta\": {meta_json}}}");
    println!("{result_json}");
    Ok(())
}

/// Removes the run's work directory (inputs, stores, outputs) on exit,
/// and commits the removal before the process ends, so the freed blocks
/// are not discarded during the next run.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::File::open(parent).and_then(|dir| dir.sync_all());
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--child") {
        return child(&args[1..]);
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gecco-e2ebench: {e}");
            eprintln!("usage: gecco-e2ebench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gecco-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
