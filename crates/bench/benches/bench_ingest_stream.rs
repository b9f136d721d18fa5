//! Streaming-ingestion throughput: the in-memory log route
//! (`parse_reader`, bounded scan window, log kept in memory) vs the full
//! store route (`ingest_to_store` + `load_log`, traces spilled to disk
//! and read back), serial and parallel.
//!
//! `parse_str` and `parse_file` run the same code as `stream_reader`, so
//! it has no row of its own. `store_round_trip` additionally pays
//! columnar encode/decode and segment-file I/O; the gap between the two
//! rows is the cost of the 256 MB ingestion ceiling the CI smoke enforces.
//!
//! `GECCO_SCALE=smoke` shrinks the input for CI.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gecco_datagen::loan_log;
use gecco_eventlog::{ingest_to_store, set_parallel, xes, IngestOptions};
use std::path::PathBuf;

fn smoke() -> bool {
    std::env::var("GECCO_SCALE").is_ok_and(|v| v == "smoke")
}

fn store_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("bench-ingest-{}", std::process::id()))
}

fn bench_ingest_stream(c: &mut Criterion) {
    let traces = if smoke() { 100 } else { 2_000 };
    let text = xes::write_string(&loan_log(traces, 1));
    let mb = text.len() as f64 / 1e6;
    let options = IngestOptions::default();
    let dir = store_dir();

    // Cross-check once: both routes land on the same bytes.
    let expect = xes::parse_reader(text.as_bytes(), &options).expect("reader accepts");
    let store = ingest_to_store(text.as_bytes(), &dir, &options).expect("store ingest");
    assert_eq!(expect.traces(), store.load_log().expect("store load").traces());

    let mut group = c.benchmark_group(format!("ingest_stream_{mb:.1}MB"));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    for (label, parallel) in [("serial", false), ("rayon", true)] {
        set_parallel(parallel);
        group.bench_with_input(format!("stream_reader_{label}"), &text, |b, text| {
            b.iter(|| xes::parse_reader(text.as_bytes(), &options).expect("valid"));
        });
        group.bench_with_input(format!("store_round_trip_{label}"), &text, |b, text| {
            b.iter(|| {
                let store = ingest_to_store(text.as_bytes(), &dir, &options).expect("store ingest");
                store.load_log().expect("store load")
            });
        });
    }
    set_parallel(true);
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_ingest_stream);
criterion_main!(benches);
