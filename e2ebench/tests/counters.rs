//! The work counters of the traced run are exact: they repeat from run to
//! run, and a serial run counts the same work as a parallel one. The
//! untraced user path and the traced layer-by-layer path end in the same
//! outputs. All on reduced inputs, for every workload.

use gecco_e2ebench::is_counter;
use gecco_e2ebench::pass::{run_traced, run_untraced, PassOutput};
use gecco_e2ebench::workload::{Scale, Workload};
use std::collections::BTreeMap;
use std::path::Path;

fn counters(out: &PassOutput) -> BTreeMap<&str, f64> {
    out.metrics.iter().filter(|(k, _)| is_counter(k)).map(|(k, v)| (k.as_str(), *v)).collect()
}

fn assert_clean(workload: Workload, what: &str, out: &PassOutput) {
    assert!(out.attempted > 0, "{} {what}: no problems attempted", workload.name());
    assert_eq!(out.failed, 0, "{} {what}: {:?}", workload.name(), out.failures);
}

// One test, run serially: the parallel switches are process-wide.
#[test]
fn counters_repeat_exactly_and_match_serial_runs() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-counters");
    for workload in Workload::ALL {
        let dir = root.join(workload.name());
        let inputs = workload.generate(5, Scale::Reduced, &dir.join("inputs")).expect("inputs");
        let untraced = run_untraced(workload, Scale::Reduced, &inputs, &dir);
        let first = run_traced(workload, Scale::Reduced, &inputs, &dir);
        let second = run_traced(workload, Scale::Reduced, &inputs, &dir);
        gecco_core::set_parallel(false);
        gecco_eventlog::set_parallel(false);
        let serial = run_traced(workload, Scale::Reduced, &inputs, &dir);
        gecco_core::set_parallel(true);
        gecco_eventlog::set_parallel(true);

        let name = workload.name();
        for (what, out) in
            [("untraced", &untraced), ("traced", &first), ("repeat", &second), ("serial", &serial)]
        {
            assert_clean(workload, what, out);
            assert_eq!(
                (out.log_digest, out.abstraction_digest),
                (untraced.log_digest, untraced.abstraction_digest),
                "{name} {what}: outputs differ from the untraced run"
            );
        }
        let counted = counters(&first);
        let expected = gecco_e2ebench::PER_LAYER.iter().filter(|m| is_counter(m.name)).count();
        assert_eq!(counted.len(), expected, "{name}: counters missing: {counted:?}");
        assert_eq!(counted, counters(&second), "{name}: counters differ between two runs");
        assert_eq!(counted, counters(&serial), "{name}: counters differ serial vs parallel");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `BENCHMARK.json` at the repository root names exactly the metrics the
/// runner reports, with the same units.
#[test]
fn benchmark_json_names_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let metrics = gecco_e2ebench::END_TO_END.iter().chain(gecco_e2ebench::PER_LAYER);
    for m in metrics.clone() {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())), "workload {}", w.name());
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(names, metrics.count() + Workload::ALL.len(), "BENCHMARK.json has extra names");
}
