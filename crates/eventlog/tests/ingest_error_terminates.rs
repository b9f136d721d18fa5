//! Streaming ingest must return an error, not hang, when a document goes
//! bad early and a long valid tail follows. With the `rayon` feature the
//! parse runs as a producer → workers → consumer pipeline over bounded
//! queues; an error at either end must tear every stage down.
//!
//! Kept in a binary of its own: a hang here would otherwise stall the
//! tests that share its process.

use gecco_eventlog::{Error, IngestOptions};
use std::sync::mpsc;
use std::time::Duration;

/// Valid traces after the defect: enough to fill every queue many times.
const TAIL_TRACES: usize = 200_000;

/// `<log>`, then `head` (containing the defect), then a long valid tail.
fn document(head: &str) -> String {
    let mut doc = String::from("<log>\n");
    doc.push_str(head);
    for i in 0..TAIL_TRACES {
        doc.push_str(&format!(
            "<trace><string key=\"concept:name\" value=\"c{i}\"/><event><string key=\"concept:name\" value=\"a\"/></event></trace>\n"
        ));
    }
    doc.push_str("</log>");
    doc
}

/// Streams `doc` on a helper thread and returns its error, failing the
/// test if no answer arrives within the watchdog.
fn ingest_error(doc: String) -> Error {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let res = gecco_eventlog::parse_reader(
            doc.as_bytes(),
            &IngestOptions { batch_traces: 1, ..IngestOptions::default() },
        );
        // The receiver is gone only if the watchdog already fired.
        let _ = tx.send(res.map(|_| ()));
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(res) => res.expect_err("expected a parse error"),
        Err(_) => panic!("streaming ingest hung on an early error"),
    }
}

#[test]
fn worker_parse_error_terminates() {
    // A well-formed trace whose event lacks a `value`: the scanner passes
    // it, a worker's batch parse rejects it.
    let err =
        ingest_error(document("<trace><event><string key=\"concept:name\"/></event></trace>\n"));
    assert!(err.to_string().contains("line 2"), "got: {err}");
}

#[test]
fn scanner_error_terminates() {
    // A stray close tag directly inside `<log>`: the producer's scanner
    // rejects it before any worker sees it.
    let head = "<trace><event><string key=\"concept:name\" value=\"a\"/></event></trace>\n\
                </trace>\n";
    let err = ingest_error(document(head));
    assert!(err.to_string().contains("mismatched `</trace>`"), "got: {err}");
    assert!(err.to_string().contains("line 3"), "got: {err}");
}
