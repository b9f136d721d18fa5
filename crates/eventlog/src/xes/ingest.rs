//! Bounded-memory ingestion: producer/consumer over the windowed scanner.
//! Every XES entry point runs through here — [`parse_reader`],
//! [`crate::xes::parse_str`], [`crate::xes::parse_file`] and
//! [`crate::store::ingest_to_store`].
//!
//! [`ingest_stream`] drives [`StreamScanner`] over a [`Read`] source and
//! groups its trace chunks into batches of `batch_traces`. Serially it
//! parses and merges each batch in turn. In parallel a producer thread
//! scans and hands batches over a *bounded* queue to worker threads, which
//! parse each batch into a [`LogFragment`] with a thread-local interner,
//! and the consumer merges the results strictly in document order into a
//! [`BatchSink`]. Because merging happens in document order — the same
//! order a serial pass produces — the resulting builder state is
//! bit-identical for any batch size, read-chunk size and worker count.
//!
//! Memory stays bounded by `2 × workers` in-flight batches per queue of
//! `batch_traces` traces each, plus the scanner window: the document text
//! is never held whole. What the *sink* accumulates is its own business —
//! [`LogBuilder`] keeps everything (the in-memory route), while the
//! on-disk store ([`crate::store::StoreWriter`]) spills traces after every
//! batch.

use crate::error::{Error, Result};
use crate::log::{LogBuilder, LogFragment};
use crate::parallel;
use crate::xes::reader::{parse_log_segment, parse_trace_into, shift_lines};
use crate::xes::stream::{OwnedSegment, StreamItem, StreamScanner, DEFAULT_READ_CHUNK};
use crate::EventLog;
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};

/// Where streamed batches end up. Everything funnels into one
/// [`LogBuilder`] — that is what keeps symbol numbering and class-id
/// assignment identical to the in-memory route — and [`BatchSink::commit`]
/// marks the points where a spilling sink may move the builder's
/// accumulated traces elsewhere.
pub trait BatchSink {
    /// The builder log-level segments are parsed into and trace fragments
    /// are merged into, in document order.
    fn builder(&mut self) -> &mut LogBuilder;

    /// Commit point, called after each merged trace batch. A spilling
    /// sink (the on-disk store) drains the builder's traces here; the
    /// in-memory sink does nothing and accumulates the whole log.
    fn commit(&mut self) -> Result<()>;
}

/// The in-memory route: keep every trace in the builder.
impl BatchSink for LogBuilder {
    fn builder(&mut self) -> &mut LogBuilder {
        self
    }

    fn commit(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Tuning knobs for [`ingest_stream`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Traces per parse batch (and per [`BatchSink::commit`]). Larger
    /// batches amortize merge overhead; smaller ones bound memory tighter.
    pub batch_traces: usize,
    /// Refill granularity of the scanner window, in bytes.
    pub read_chunk: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { batch_traces: 512, read_chunk: DEFAULT_READ_CHUNK }
    }
}

/// Streams an XES document from `source` into `sink` with bounded memory.
///
/// The document text is only ever held one scanner window plus the
/// in-flight batches at a time. Runs the producer / worker / consumer
/// pipeline on scoped threads when parallel ingestion is enabled (`rayon`
/// feature + [`crate::parallel::set_parallel`]), and a single-threaded
/// loop otherwise — the result is identical either way, and so is the
/// error on bad input. Bytes after the closing `</log>` are not read.
pub fn ingest_stream<R: Read + Send, S: BatchSink>(
    source: R,
    sink: &mut S,
    options: &IngestOptions,
) -> Result<()> {
    let workers = parallel::worker_count();
    if workers <= 1 {
        ingest_serial(source, sink, options)
    } else {
        ingest_parallel(source, sink, options, workers)
    }
}

/// Convenience: stream-parse into a fresh in-memory [`EventLog`].
pub fn parse_reader<R: Read + Send>(source: R, options: &IngestOptions) -> Result<EventLog> {
    let mut builder = LogBuilder::new();
    ingest_stream(source, &mut builder, options)?;
    Ok(builder.build())
}

/// Parses one batch of owned trace chunks into a fragment, shifting error
/// lines to document-absolute positions via each chunk's recorded line.
fn parse_batch(segments: &[OwnedSegment]) -> Result<LogFragment> {
    let mut fragment = LogFragment::new();
    for seg in segments {
        parse_trace_into(&mut fragment, &seg.bytes).map_err(|e| shift_lines(e, seg.line - 1))?;
    }
    Ok(fragment)
}

/// Applies one document-order item to the sink.
fn apply_log_segment<S: BatchSink>(sink: &mut S, seg: &OwnedSegment) -> Result<()> {
    parse_log_segment(sink.builder(), &seg.bytes).map_err(|e| shift_lines(e, seg.line - 1))
}

fn merge_batch<S: BatchSink>(sink: &mut S, fragment: LogFragment) -> Result<()> {
    sink.builder().merge_fragment(fragment)?;
    sink.commit()
}

fn ingest_serial<R: Read, S: BatchSink>(
    source: R,
    sink: &mut S,
    options: &IngestOptions,
) -> Result<()> {
    let mut scanner = StreamScanner::new(source, options.read_chunk);
    let mut batch: Vec<OwnedSegment> = Vec::new();
    while let Some(item) = scanner.next_item()? {
        match item {
            StreamItem::Log(seg) => {
                if !batch.is_empty() {
                    merge_batch(sink, parse_batch(&batch)?)?;
                    batch.clear();
                }
                apply_log_segment(sink, &seg)?;
            }
            StreamItem::Trace(seg) => {
                batch.push(seg);
                if batch.len() >= options.batch_traces.max(1) {
                    merge_batch(sink, parse_batch(&batch)?)?;
                    batch.clear();
                }
            }
        }
    }
    if !batch.is_empty() {
        merge_batch(sink, parse_batch(&batch)?)?;
    }
    Ok(())
}

/// Work items the producer hands to the worker pool, tagged with a
/// document-order sequence number.
enum Work {
    /// A log-level segment: nothing to parse in parallel, forwarded so it
    /// keeps its place in the document order.
    Log(OwnedSegment),
    /// A batch of trace chunks to parse into a fragment.
    Batch(Vec<OwnedSegment>),
    /// The scanner failed; surfaces to the consumer at this point of the
    /// document order.
    Fail(Error),
}

/// What workers hand the consumer.
enum Parsed {
    Log(OwnedSegment),
    Fragment(LogFragment),
}

fn ingest_parallel<R: Read + Send, S: BatchSink>(
    source: R,
    sink: &mut S,
    options: &IngestOptions,
    workers: usize,
) -> Result<()> {
    // At most this many batches wait in each queue: what bounds memory.
    let queue_depth = 2 * workers;
    let batch_traces = options.batch_traces.max(1);
    let (work_tx, work_rx) = sync_channel::<(u64, Work)>(queue_depth);
    let (done_tx, done_rx) = sync_channel::<(u64, Result<Parsed>)>(queue_depth);
    // Every receiver dies with its readers, so an early error anywhere
    // unblocks the stage upstream of it: the consumer owns `done_rx`
    // (workers' sends fail once it returns), and the workers share
    // `work_rx` (the producer's sends fail once the last worker exits).
    let work_rx = Arc::new(Mutex::new(work_rx));
    std::thread::scope(|scope| {
        // Producer: scan the source, batch traces, tag with seq numbers.
        // A send error means every worker is gone (the consumer bailed
        // out) — just stop.
        let read_chunk = options.read_chunk;
        scope.spawn(move || {
            let mut scanner = StreamScanner::new(source, read_chunk);
            let mut seq = 0u64;
            let mut batch: Vec<OwnedSegment> = Vec::new();
            let send = |work: Work, seq: &mut u64| {
                let ok = work_tx.send((*seq, work)).is_ok();
                *seq += 1;
                ok
            };
            loop {
                match scanner.next_item() {
                    Ok(Some(StreamItem::Trace(seg))) => {
                        batch.push(seg);
                        if batch.len() >= batch_traces
                            && !send(Work::Batch(std::mem::take(&mut batch)), &mut seq)
                        {
                            return;
                        }
                    }
                    Ok(Some(StreamItem::Log(seg))) => {
                        if !batch.is_empty()
                            && !send(Work::Batch(std::mem::take(&mut batch)), &mut seq)
                        {
                            return;
                        }
                        if !send(Work::Log(seg), &mut seq) {
                            return;
                        }
                    }
                    Ok(None) => {
                        if !batch.is_empty() {
                            send(Work::Batch(std::mem::take(&mut batch)), &mut seq);
                        }
                        return;
                    }
                    Err(e) => {
                        send(Work::Fail(e), &mut seq);
                        return;
                    }
                }
            }
        });

        // Workers: parse batches into fragments; forward everything else.
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            let work_rx = Arc::clone(&work_rx);
            scope.spawn(move || loop {
                let next = work_rx.lock().expect("ingest worker poisoned").recv();
                let Ok((seq, work)) = next else { return };
                let parsed = match work {
                    Work::Log(seg) => Ok(Parsed::Log(seg)),
                    Work::Batch(segs) => parse_batch(&segs).map(Parsed::Fragment),
                    Work::Fail(e) => Err(e),
                };
                if done_tx.send((seq, parsed)).is_err() {
                    return; // consumer bailed out
                }
            });
        }
        drop(done_tx);
        drop(work_rx);
        consume(done_rx, sink)
    })
}

/// The consumer: applies results strictly in document order, stashing
/// out-of-order arrivals. Takes `done_rx` by value so that an early error
/// return drops it before the scope joins the workers.
fn consume<S: BatchSink>(done_rx: Receiver<(u64, Result<Parsed>)>, sink: &mut S) -> Result<()> {
    let mut next_seq = 0u64;
    let mut stash: BTreeMap<u64, Result<Parsed>> = BTreeMap::new();
    while let Ok((seq, parsed)) = done_rx.recv() {
        stash.insert(seq, parsed);
        while let Some(parsed) = stash.remove(&next_seq) {
            next_seq += 1;
            match parsed? {
                Parsed::Log(seg) => apply_log_segment(sink, &seg)?,
                Parsed::Fragment(fragment) => merge_batch(sink, fragment)?,
            }
        }
    }
    debug_assert!(stash.is_empty(), "gap in ingest sequence numbers");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xes::reader::parse_str;
    use crate::xes::scan::oracle::{scan_document, Segment};
    use crate::xes::stream::tests::{Dribble, Fault};
    use crate::xes::xml::line_at;
    use std::time::Duration;

    /// The whole-document route: one scan of the in-memory document, then
    /// every segment parsed in order, one fragment per trace. It shares the
    /// segment parsers with the streaming route but neither its window
    /// machine nor its batching.
    fn whole_document_parse(doc: &str) -> Result<EventLog> {
        let input = doc.as_bytes();
        let mut builder = LogBuilder::new();
        for segment in scan_document(input)? {
            match segment {
                Segment::Log(r) => parse_log_segment(&mut builder, &input[r.clone()])
                    .map_err(|e| shift_lines(e, line_at(input, r.start) - 1))?,
                Segment::Trace(r) => {
                    let mut fragment = LogFragment::new();
                    parse_trace_into(&mut fragment, &input[r.clone()])
                        .map_err(|e| shift_lines(e, line_at(input, r.start) - 1))?;
                    builder.merge_fragment(fragment)?;
                }
            }
        }
        Ok(builder.build())
    }

    fn assert_same_log(got: &EventLog, expect: &EventLog, context: &str) {
        assert_eq!(got.traces(), expect.traces(), "{context}");
        assert_eq!(got.attributes(), expect.attributes(), "{context}");
        let a: Vec<_> = got.interner().iter().collect();
        let b: Vec<_> = expect.interner().iter().collect();
        assert_eq!(a, b, "{context}");
    }

    const DOC: &str = r#"<?xml version="1.0"?>
<log xes.version="1.0">
  <extension name="Concept" prefix="concept" uri="http://x"/>
  <string key="concept:name" value="demo"/>
  <trace>
    <string key="concept:name" value="c1"/>
    <event><string key="concept:name" value="a"/><int key="cost" value="3"/></event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
  <trace>
    <string key="concept:name" value="c2"/>
    <event><string key="concept:name" value="a"/></event>
  </trace>
  <int key="count" value="2"/>
</log>"#;

    #[test]
    fn streamed_log_matches_in_memory_parse() {
        let expect = whole_document_parse(DOC).unwrap();
        assert_same_log(&parse_str(DOC).unwrap(), &expect, "parse_str");
        for batch_traces in [1, 2, 7] {
            for read_chunk in [3, 64, 1 << 20] {
                let options = IngestOptions { batch_traces, read_chunk };
                let got = parse_reader(DOC.as_bytes(), &options).unwrap();
                assert_same_log(&got, &expect, &format!("batch {batch_traces} chunk {read_chunk}"));
            }
        }
    }

    #[test]
    fn parse_errors_carry_document_absolute_lines() {
        // Malformed event on line 7 of the streamed document.
        let doc = "<?xml version=\"1.0\"?>\n<log>\n<trace>\n<event>\
                   <string key=\"concept:name\" value=\"a\"/></event>\n</trace>\n<trace>\n\
                   <event><string key=\"concept:name\"/></event>\n</trace>\n</log>";
        let expect = whole_document_parse(doc).unwrap_err().to_string();
        assert_eq!(parse_str(doc).unwrap_err().to_string(), expect);
        let got = parse_reader(
            doc.as_bytes(),
            &IngestOptions { read_chunk: 5, ..IngestOptions::default() },
        )
        .unwrap_err()
        .to_string();
        assert_eq!(got, expect);
        assert!(got.contains("line 7"), "got: {got}");
    }

    /// A document long enough to fill both queues many times at
    /// `batch_traces: 1`.
    fn long_doc() -> String {
        let mut doc = String::from("<log>\n<string key=\"concept:name\" value=\"long\"/>\n");
        for i in 0..2_000 {
            doc.push_str(&format!(
                "<trace><string key=\"concept:name\" value=\"c{i}\"/>\
                 <event><string key=\"concept:name\" value=\"a{}\"/></event></trace>\n",
                i % 7
            ));
        }
        doc.push_str("</log>\n");
        doc
    }

    /// Runs the serial route and the three-worker producer / worker /
    /// consumer route over a faulty reader, each on a helper thread under
    /// a 30 s watchdog (the pattern of `tests/ingest_error_terminates.rs`).
    fn both_routes_with_fault(doc: &str, fault: Fault) -> [Result<EventLog>; 2] {
        [false, true].map(|parallel| {
            let doc = doc.to_owned();
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let source = Dribble::new(doc.as_bytes(), 5, fault);
                let options = IngestOptions { batch_traces: 1, read_chunk: 7 };
                let mut builder = LogBuilder::new();
                let res = if parallel {
                    ingest_parallel(source, &mut builder, &options, 3)
                } else {
                    ingest_serial(source, &mut builder, &options)
                };
                // The receiver is gone only if the watchdog already fired.
                let _ = tx.send(res.map(|()| builder.build()));
            });
            rx.recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("ingest (parallel: {parallel}) hung on {fault:?}"))
        })
    }

    #[test]
    fn interrupted_reads_are_retried_on_both_routes() {
        let doc = long_doc();
        let one_window = parse_reader(
            doc.as_bytes(),
            &IngestOptions { read_chunk: doc.len(), ..IngestOptions::default() },
        )
        .unwrap();
        for got in both_routes_with_fault(&doc, Fault::InterruptEveryOther) {
            assert_same_log(&got.unwrap(), &one_window, "interrupted reads");
        }
    }

    #[test]
    fn a_read_error_aborts_both_routes() {
        let doc = long_doc();
        for k in [0, 40, doc.len() / 2, doc.len() - 8] {
            for got in both_routes_with_fault(&doc, Fault::ErrorAt(k)) {
                let err = got.expect_err("a read error must surface");
                assert!(matches!(err, Error::Io(_)), "byte {k}: {err}");
            }
        }
    }
}
