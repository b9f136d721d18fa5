//! The streaming store route must be indistinguishable from the in-memory
//! route — bit-identical logs (interner order, class ids, traces), equal
//! index postings and equal co-occurrence sketches — for every batch
//! size, read-chunk size and worker count, serially and under `rayon`.
//!
//! This is the oracle contract of the tentpole: `ingest_to_store` →
//! `load_log` must reproduce exactly what `parse_str` builds in memory,
//! and `build_index` (spliced batch by batch, log never materialized)
//! must equal `LogIndex::build` on that log.

mod common;

use common::{assert_logs_identical, build_log, xes_log_spec, xes_log_spec_large};
use gecco_eventlog::{
    ingest_to_store, set_parallel, xes, ClassCoOccurrence, EventLog, IngestOptions, LogBuilder,
    LogIndex, TraceStore,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique store directory under the cargo-managed tmp dir.
fn store_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("stream-eq-{tag}-{}-{n}", std::process::id()))
}

/// Streams `doc` through an on-disk store and loads it back.
fn via_store(doc: &str, tag: &str, options: &IngestOptions) -> (EventLog, LogIndex) {
    let dir = store_dir(tag);
    ingest_to_store(doc.as_bytes(), &dir, options).unwrap();
    // Reopen from disk so the assertion covers the persisted form, not
    // the writer's in-process state.
    let store = TraceStore::open(&dir).unwrap();
    let log = store.load_log().unwrap();
    let index = store.build_index().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (log, index)
}

/// Asserts the store route reproduces the in-memory route bit for bit.
fn assert_routes_identical(doc: &str, tag: &str, options: &IngestOptions) {
    let expect = xes::parse_str(doc).unwrap();
    let expect_index = LogIndex::build(&expect);
    let (log, index) = via_store(doc, tag, options);
    assert_logs_identical(&expect, &log);
    assert_eq!(expect_index, index, "index postings diverge");
    assert_eq!(
        LogIndex::build_from_traces(log.num_classes(), log.traces()),
        index,
        "build_from_traces diverges from the spliced index"
    );
    assert_eq!(
        ClassCoOccurrence::build(&expect_index),
        ClassCoOccurrence::build(&index),
        "co-occurrence sketches diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn store_route_matches_in_memory(case in (xes_log_spec(), 1usize..20)) {
        let (spec, batch) = case;
        let doc = xes::write_string(&build_log(&spec));
        let options = IngestOptions { batch_traces: batch, ..IngestOptions::default() };
        assert_routes_identical(&doc, "prop", &options);
    }

    #[test]
    fn store_route_matches_in_memory_with_tiny_windows(spec in xes_log_spec_large()) {
        let doc = xes::write_string(&build_log(&spec));
        // A 7-byte read chunk forces the incremental scanner through its
        // refill/rescan path on essentially every construct.
        let options = IngestOptions { batch_traces: 3, read_chunk: 7 };
        assert_routes_identical(&doc, "tiny", &options);
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

/// Serializes tests that flip the process-wide parallelism toggle.
static TOGGLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Every combination of batch size, read-chunk size and worker count on
/// the same 600-trace document must land on the same bytes.
#[test]
fn batch_and_worker_grid_is_bit_identical() {
    let doc = xes::write_string(&big_log());
    let expect = xes::parse_str(&doc).unwrap();
    let expect_index = LogIndex::build(&expect);
    let _guard = TOGGLE_LOCK.lock().unwrap();
    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for parallel in [false, true] {
            set_parallel(parallel);
            for batch_traces in [1, 16, 64, 1000] {
                for read_chunk in [64, 64 * 1024] {
                    let options = IngestOptions { batch_traces, read_chunk };
                    let (log, index) = via_store(&doc, "grid", &options);
                    assert_logs_identical(&expect, &log);
                    assert_eq!(expect_index, index, "batch {batch_traces} chunk {read_chunk}");
                }
            }
        }
    }
    set_parallel(true);
    std::env::set_var("RAYON_NUM_THREADS", "4");
}

/// Log-level attributes interleaved between traces force batch flushes at
/// every boundary; interning order must survive them on the store route.
#[test]
fn interleaved_log_segments_survive_the_store() {
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
    let options = IngestOptions { batch_traces: 5, ..IngestOptions::default() };
    assert_routes_identical(&doc, "interleaved", &options);
}

/// Errors on the streaming route carry document-absolute line numbers,
/// same as the in-memory route.
#[test]
fn streaming_errors_match_in_memory_errors() {
    let doc = "<log>\n<trace>\n<event>\n<string key=\"k\" value=\"v\"\n</event>\n</trace>\n</log>";
    let expect = xes::parse_str(doc).unwrap_err().to_string();
    let dir = store_dir("err");
    let options = IngestOptions { read_chunk: 5, ..IngestOptions::default() };
    let got = ingest_to_store(doc.as_bytes(), &dir, &options).unwrap_err().to_string();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(expect, got);
}

/// A Latin-1 byte fails with the same positioned error on every route —
/// `parse_file`, `parse_reader` and `ingest_to_store`, at any read chunk,
/// serially and in parallel — instead of importing as U+FFFD. (`parse_str`
/// takes a `&str`, which cannot hold such bytes.)
#[test]
fn invalid_utf8_fails_identically_on_every_route() {
    let trace = |class: &str| {
        format!("<trace><event><string key=\"concept:name\" value=\"{class}\"/></event></trace>\n")
    };
    let mut doc = b"<log>\n".to_vec();
    for i in 0..50 {
        doc.extend(trace(&format!("a{i}")).bytes());
    }
    // Line 52: `café` in Latin-1.
    doc.extend(b"<trace><event><string key=\"concept:name\" value=\"caf\xE9\"/></event></trace>\n");
    for i in 0..50 {
        doc.extend(trace(&format!("b{i}")).bytes());
    }
    doc.extend(b"</log>");
    let expect = "XML error at line 52: file is not valid UTF-8";

    let path = store_dir("latin1").with_extension("xes");
    std::fs::write(&path, &doc).unwrap();
    let _guard = TOGGLE_LOCK.lock().unwrap();
    std::env::set_var("RAYON_NUM_THREADS", "4");
    for parallel in [false, true] {
        set_parallel(parallel);
        let got = xes::parse_file(&path).unwrap_err().to_string();
        assert_eq!(got, expect, "parse_file, parallel {parallel}");
        for read_chunk in [1, 7, IngestOptions::default().read_chunk] {
            let options = IngestOptions { batch_traces: 4, read_chunk };
            let got = xes::parse_reader(&doc[..], &options).unwrap_err().to_string();
            assert_eq!(got, expect, "parse_reader, chunk {read_chunk}, parallel {parallel}");
            let dir = store_dir("latin1");
            let got = ingest_to_store(&doc[..], &dir, &options).unwrap_err().to_string();
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(got, expect, "ingest_to_store, chunk {read_chunk}, parallel {parallel}");
        }
    }
    set_parallel(true);
    std::fs::remove_file(&path).ok();
}
