//! Chunked/parallel ingestion must be indistinguishable from serial —
//! bit-identical logs: same interner contents in the same symbol order,
//! same class ids, same traces, same cached class sets.
//!
//! Only meaningful with the `rayon` feature; without it `set_parallel` is
//! a no-op and both runs are serial (the assertions then hold trivially).
//! `RAYON_NUM_THREADS` is forced above the machine's core count so real
//! thread fan-out happens even on single-core CI runners.

mod common;

use common::{
    assert_logs_identical, build_log, csv_log_spec_large, xes_log_spec, xes_log_spec_large,
};
use gecco_eventlog::{csv, set_parallel, xes, EventLog, IngestOptions, LogBuilder};
use proptest::prelude::*;

fn force_threads() {
    // Safe on edition 2021; tests that call this all set the same value.
    std::env::set_var("RAYON_NUM_THREADS", "4");
}

/// Serializes tests that flip the process-wide parallelism toggle.
static TOGGLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` twice — serially and in parallel — and returns both results.
fn both<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = TOGGLE_LOCK.lock().unwrap();
    force_threads();
    set_parallel(false);
    let serial = f();
    set_parallel(true);
    let parallel = f();
    set_parallel(true);
    (serial, parallel)
}

/// Batches small enough that even a 20-trace document spreads over every
/// worker (`parse_str` batches 512 traces at a time).
fn small_batches() -> IngestOptions {
    IngestOptions { batch_traces: 3, ..IngestOptions::default() }
}

/// Asserts that serial and parallel `parse_reader` at [`small_batches`]
/// both reproduce `expect`.
fn assert_small_batches_match(doc: &str, expect: &EventLog) {
    let (serial, parallel) = both(|| xes::parse_reader(doc.as_bytes(), &small_batches()).unwrap());
    assert_logs_identical(expect, &serial);
    assert_logs_identical(expect, &parallel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn xes_parse_parallel_matches_serial(spec in xes_log_spec()) {
        let doc = xes::write_string(&build_log(&spec));
        let (serial, parallel) = both(|| xes::parse_str(&doc).unwrap());
        assert_logs_identical(&serial, &parallel);
    }

    #[test]
    fn xes_parse_parallel_matches_serial_above_fanout_threshold(spec in xes_log_spec_large()) {
        let doc = xes::write_string(&build_log(&spec));
        let (serial, parallel) = both(|| xes::parse_str(&doc).unwrap());
        assert_logs_identical(&serial, &parallel);
        assert_small_batches_match(&doc, &serial);
    }

    #[test]
    fn csv_read_parallel_matches_serial(spec in csv_log_spec_large()) {
        let doc = csv::write_string(&build_log(&spec));
        let (serial, parallel) =
            both(|| csv::read_str(&doc, &csv::CsvOptions::default()).unwrap());
        assert_logs_identical(&serial, &parallel);
    }
}

/// A deterministic many-trace log, far past every fan-out threshold.
fn big_log() -> EventLog {
    let mut b = LogBuilder::new();
    for i in 0..600 {
        let mut tb = b.trace(&format!("case-{i}"));
        for j in 0..(1 + i % 5) {
            let class = format!("step-{}", (i + j) % 17);
            tb = tb
                .event_with(&class, |e| {
                    e.str("org:role", if i % 3 == 0 { "clerk" } else { "manager" })
                        .int("cost", (i * 31 + j) as i64)
                        .timestamp("time:timestamp", 1_600_000_000_000 + (i * 60_000 + j) as i64);
                })
                .unwrap();
        }
        tb.done();
    }
    b.build()
}

/// Log-level attributes interleaved *between* traces split the trace
/// chunks into multiple runs; batches must not cross those boundaries or
/// the document-order interning would shift.
#[test]
fn xes_interleaved_log_segments_parallel_matches_serial() {
    let mut doc = String::from("<log>\n");
    for i in 0..120 {
        if i % 7 == 0 {
            doc.push_str(&format!("<string key=\"marker-{i}\" value=\"m{i}\"/>\n"));
        }
        doc.push_str(&format!(
            "<trace><string key=\"concept:name\" value=\"case-{i}\"/>\
             <event><string key=\"concept:name\" value=\"step-{}\"/></event></trace>\n",
            i % 9
        ));
    }
    doc.push_str("</log>");
    let (serial, parallel) = both(|| xes::parse_str(&doc).unwrap());
    assert_logs_identical(&serial, &parallel);
    assert_small_batches_match(&doc, &serial);
    assert_eq!(serial.traces().len(), 120);
    assert_eq!(serial.attributes().len(), 18);
}

#[test]
fn xes_big_log_parallel_matches_serial() {
    let doc = xes::write_string(&big_log());
    let (serial, parallel) = both(|| xes::parse_str(&doc).unwrap());
    assert_logs_identical(&serial, &parallel);
    assert_small_batches_match(&doc, &serial);
    assert_eq!(serial.traces().len(), 600);
}

#[test]
fn csv_big_log_parallel_matches_serial() {
    let doc = csv::write_string(&big_log());
    let (serial, parallel) = both(|| csv::read_str(&doc, &csv::CsvOptions::default()).unwrap());
    assert_logs_identical(&serial, &parallel);
    assert_eq!(serial.traces().len(), 600);
}

/// The CSV importer's result must not depend on where chunk boundaries
/// fall: force different worker counts (and therefore chunk sizes) and
/// compare against the single-chunk serial read.
#[test]
fn csv_chunk_boundaries_do_not_matter() {
    let doc = csv::write_string(&big_log());
    let _guard = TOGGLE_LOCK.lock().unwrap();
    set_parallel(true);
    let mut logs = Vec::new();
    for threads in ["1", "2", "3", "7"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        logs.push(csv::read_str(&doc, &csv::CsvOptions::default()).unwrap());
    }
    std::env::set_var("RAYON_NUM_THREADS", "4");
    set_parallel(false);
    let serial = csv::read_str(&doc, &csv::CsvOptions::default()).unwrap();
    set_parallel(true);
    for log in &logs {
        assert_logs_identical(&serial, log);
    }
}
