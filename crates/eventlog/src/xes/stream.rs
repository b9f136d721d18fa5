//! Incremental document scanner over any [`Read`] source — the first
//! stage of every XES ingest route.
//!
//! [`StreamScanner`] keeps a sliding window over a [`Read`] source and
//! splits the document into document-order pieces — log-level segments
//! and complete `<trace>…</trace>` subtrees — as *owned* byte buffers,
//! each stamped with the document-absolute line of its first byte so
//! parse errors in [`crate::xes::reader`] keep accurate positions.
//!
//! The window machine is rescan-based: each attempt tokenizes from the
//! last committed byte with the crate-private `Scanner` in partial-window
//! mode (`at_eof == false`); if the window ends inside a construct the
//! scanner reports `Step::Incomplete`, the window is refilled and the attempt
//! repeats. Refill sizes double while a construct stays incomplete, so the
//! total rescan work stays linear in the document size, and the committed
//! prefix is compacted away on every refill, so peak memory is bounded by
//! the read chunk plus the largest single construct (one trace).
//!
//! Every committed byte is checked to be UTF-8 as it is committed: a
//! committed range starts and ends next to a `<` or `>`, so it holds whole
//! characters, and an invalid file fails with the line of its first bad
//! byte on every route. Bytes after `</log>` are never read.

use crate::error::{Error, Result};
use crate::xes::reader::shift_lines;
use crate::xes::scan::{RawTag, Scanner, Step};
use crate::xes::xml::line_at;
use std::io::{ErrorKind, Read};

/// One owned, document-order piece of the log: the bytes of the construct
/// plus the 1-based document line of its first byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedSegment {
    /// The raw bytes of the construct, exactly as they appeared in the
    /// document.
    pub bytes: Vec<u8>,
    /// 1-based line of `bytes[0]` in the whole document, for rebasing
    /// parse errors to document-absolute positions.
    pub line: usize,
}

/// What [`StreamScanner::next_item`] yields: one document-order piece of
/// the `<log>` body, with owned bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamItem {
    /// Log-level content between traces (attributes, extensions,
    /// `gecco:classattr` wrappers). Must be parsed serially, in order.
    Log(OwnedSegment),
    /// One complete `<trace …>…</trace>` subtree. Independent of every
    /// other trace; safe to parse on any worker.
    Trace(OwnedSegment),
}

/// Where the scanner is in the document grammar.
enum StreamState {
    /// Before the root `<log>` start tag.
    Prologue,
    /// Inside the `<log>` body, at depth 1, at a segment boundary.
    Body,
    /// The root element was closed (or was self-closing). Trailing bytes
    /// after `</log>` are not read.
    Done,
}

/// Outcome of one scan attempt over the current window.
enum Attempt {
    /// Emit these items (0, 1 or 2: a pending log segment, then a trace).
    Items(Vec<StreamItem>),
    /// The window ended inside a construct — refill and rescan.
    NeedMore,
    /// Keep scanning the (possibly advanced) window in a new state.
    Continue,
    /// The document is complete.
    Finished,
}

/// Streaming scanner over any [`Read`] source.
///
/// ```
/// use gecco_eventlog::xes::stream::{StreamItem, StreamScanner};
///
/// let doc = b"<log><trace><event/></trace></log>";
/// let mut scanner = StreamScanner::new(&doc[..], 8);
/// let item = scanner.next_item().unwrap().unwrap();
/// match item {
///     StreamItem::Trace(seg) => assert_eq!(seg.bytes, b"<trace><event/></trace>"),
///     other => panic!("unexpected {other:?}"),
/// }
/// assert_eq!(scanner.next_item().unwrap(), None);
/// ```
pub struct StreamScanner<R> {
    source: R,
    /// The sliding window. `buf[consumed..]` is the unscanned tail.
    buf: Vec<u8>,
    /// Bytes of `buf` already committed (emitted or skipped for good).
    consumed: usize,
    /// Newlines in the document strictly before `buf[consumed]`.
    nl_before: usize,
    /// The source returned EOF; `buf[consumed..]` is the document's tail.
    eof: bool,
    /// Bytes requested on the next refill; doubles while one construct
    /// stays incomplete so repeated rescans stay amortized-linear.
    refill: usize,
    /// Baseline refill size; `refill` resets to this on every commit.
    read_chunk: usize,
    state: StreamState,
    /// A second item produced by the same attempt (a trace following its
    /// preceding log segment), held until the next `next_item` call.
    pending: Vec<StreamItem>,
}

/// Default refill granularity: 64 KiB.
pub const DEFAULT_READ_CHUNK: usize = 64 * 1024;

impl<R: Read> StreamScanner<R> {
    /// Creates a scanner reading roughly `read_chunk` bytes per refill.
    ///
    /// The window grows beyond `read_chunk` only as far as the largest
    /// single construct in the document (in XES: one trace subtree).
    pub fn new(source: R, read_chunk: usize) -> Self {
        let read_chunk = read_chunk.max(1);
        StreamScanner {
            source,
            buf: Vec::new(),
            consumed: 0,
            nl_before: 0,
            eof: false,
            refill: read_chunk,
            read_chunk,
            state: StreamState::Prologue,
            pending: Vec::new(),
        }
    }

    /// Yields the next document-order item, or `None` after `</log>`.
    pub fn next_item(&mut self) -> Result<Option<StreamItem>> {
        loop {
            if !self.pending.is_empty() {
                return Ok(Some(self.pending.remove(0)));
            }
            match self.state {
                StreamState::Done => return Ok(None),
                StreamState::Prologue => match self.scan_prologue()? {
                    Attempt::NeedMore => self.fill()?,
                    Attempt::Continue => {}
                    Attempt::Finished => self.state = StreamState::Done,
                    Attempt::Items(items) => self.pending = items,
                },
                StreamState::Body => match self.scan_body()? {
                    Attempt::NeedMore => self.fill()?,
                    Attempt::Continue => {}
                    Attempt::Finished => self.state = StreamState::Done,
                    Attempt::Items(items) => self.pending = items,
                },
            }
        }
    }

    /// Commits `rel` more bytes of the window, keeping the newline count
    /// in sync and resetting the refill growth (progress was made).
    ///
    /// The committed bytes must be UTF-8. Every commit ends next to a `<`
    /// or `>`, never inside a character, so checking each range on its
    /// own checks the whole document read so far.
    fn advance(&mut self, rel: usize) -> Result<()> {
        let end = self.consumed + rel;
        let committed = &self.buf[self.consumed..end];
        if let Err(e) = std::str::from_utf8(committed) {
            return Err(Error::Xml {
                line: self.nl_before + line_at(committed, e.valid_up_to()),
                message: "file is not valid UTF-8".into(),
            });
        }
        self.nl_before += count_newlines(committed);
        self.consumed = end;
        self.refill = self.read_chunk;
        Ok(())
    }

    /// Drops the committed prefix and reads `self.refill` more bytes. At
    /// EOF this is a no-op: the next scan attempt runs with
    /// `at_eof == true`, which turns `Incomplete` into hard errors, so the
    /// refill loop always terminates. A read interrupted by a signal is
    /// retried, as `std::fs::read` does; any other read error aborts.
    fn fill(&mut self) -> Result<()> {
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        if self.eof {
            return Ok(());
        }
        let target = self.buf.len() + self.refill;
        while self.buf.len() < target {
            let start = self.buf.len();
            self.buf.resize(target, 0);
            let read = self.source.read(&mut self.buf[start..]);
            self.buf.truncate(start + *read.as_ref().unwrap_or(&0));
            match read {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Still mid-construct next attempt? Ask for twice as much then.
        self.refill = self.refill.saturating_mul(2);
        Ok(())
    }

    /// Shifts a window-relative scanner error to document-absolute lines.
    fn rebase(&self, err: Error) -> Error {
        shift_lines(err, self.nl_before)
    }

    /// 1-based document line of window-relative offset `rel`.
    fn line_of(&self, rel: usize) -> usize {
        let window = &self.buf[self.consumed..];
        self.nl_before + line_at(window, rel)
    }

    /// One scan attempt before the root `<log>`: skip misc constructs and
    /// non-log top-level subtrees (committing past each completed one).
    fn scan_prologue(&mut self) -> Result<Attempt> {
        let mut scanner = Scanner { input: &self.buf[self.consumed..], pos: 0, at_eof: self.eof };
        // How far the window can be committed: everything before `<log>`
        // is skipped for good once complete.
        let mut committed = 0usize;
        let outcome = loop {
            match scanner.next_tag().map_err(|e| self.rebase(e))? {
                Step::Incomplete => break Attempt::NeedMore,
                Step::Done(Some((_, RawTag::Start { name: b"log", self_closing }))) => {
                    committed = scanner.pos;
                    if self_closing {
                        break Attempt::Finished;
                    }
                    break Attempt::Continue;
                }
                Step::Done(Some((_, RawTag::Start { self_closing, .. }))) => {
                    if !self_closing {
                        match scanner.skip_subtree().map_err(|e| self.rebase(e))? {
                            Step::Incomplete => break Attempt::NeedMore,
                            Step::Done(()) => {}
                        }
                    }
                    committed = scanner.pos;
                }
                Step::Done(Some((_, RawTag::End { .. }))) | Step::Done(None) => {
                    let line = self.line_of(scanner.pos);
                    return Err(Error::Xes { line, message: "no <log> element found".into() });
                }
            }
        };
        self.advance(committed)?;
        if matches!(outcome, Attempt::Continue) {
            self.state = StreamState::Body;
        }
        Ok(outcome)
    }

    /// One scan attempt inside the `<log>` body, starting at a segment
    /// boundary (depth 1). Commits and emits one pending log segment plus
    /// one trace (or the trailing log segment at `</log>`).
    fn scan_body(&mut self) -> Result<Attempt> {
        let mut scanner = Scanner { input: &self.buf[self.consumed..], pos: 0, at_eof: self.eof };
        let mut depth = 1usize;
        // Window-relative ranges decided by this attempt.
        enum Hit {
            Trace { start: usize, end: usize },
            Close { tag_start: usize, end: usize },
        }
        let hit = loop {
            match scanner.next_tag().map_err(|e| self.rebase(e))? {
                Step::Incomplete => return Ok(Attempt::NeedMore),
                Step::Done(Some((tag_start, RawTag::Start { name, self_closing }))) => {
                    if depth == 1 && name == b"trace" {
                        if !self_closing {
                            match scanner.skip_subtree().map_err(|e| self.rebase(e))? {
                                Step::Incomplete => return Ok(Attempt::NeedMore),
                                Step::Done(()) => {}
                            }
                        }
                        break Hit::Trace { start: tag_start, end: scanner.pos };
                    } else if !self_closing {
                        depth += 1;
                    }
                }
                Step::Done(Some((tag_start, RawTag::End { name }))) => {
                    depth -= 1;
                    if depth == 0 {
                        if name != b"log" {
                            let line = self.line_of(tag_start);
                            return Err(Error::Xml {
                                line,
                                message: format!(
                                    "mismatched `</{}>`; expected `</log>`",
                                    String::from_utf8_lossy(name)
                                ),
                            });
                        }
                        break Hit::Close { tag_start, end: scanner.pos };
                    }
                }
                Step::Done(None) => {
                    let line = self.line_of(scanner.pos);
                    return Err(Error::Xml {
                        line,
                        message: "unexpected end of input; `<log>` not closed".into(),
                    });
                }
            }
        };
        let mut items = Vec::new();
        match hit {
            Hit::Trace { start, end } => {
                if let Some(seg) = self.take_log_segment(start)? {
                    items.push(StreamItem::Log(seg));
                }
                // `take_log_segment` advanced `consumed` to the trace
                // start; the trace itself is the next `end - start` bytes.
                let len = end - start;
                let line = self.nl_before + 1;
                let bytes = self.buf[self.consumed..self.consumed + len].to_vec();
                self.advance(len)?;
                items.push(StreamItem::Trace(OwnedSegment { bytes, line }));
                Ok(Attempt::Items(items))
            }
            Hit::Close { tag_start, end } => {
                if let Some(seg) = self.take_log_segment(tag_start)? {
                    items.push(StreamItem::Log(seg));
                }
                self.advance(end - tag_start)?;
                self.state = StreamState::Done;
                if items.is_empty() {
                    Ok(Attempt::Finished)
                } else {
                    Ok(Attempt::Items(items))
                }
            }
        }
    }

    /// Lifts the pending log-level range `[consumed, consumed + rel)` out
    /// of the window (committing it) unless it is pure inter-element
    /// whitespace.
    fn take_log_segment(&mut self, rel: usize) -> Result<Option<OwnedSegment>> {
        let range = &self.buf[self.consumed..self.consumed + rel];
        let keep = range.iter().any(|b| !matches!(b, b' ' | b'\t' | b'\r' | b'\n'));
        let seg = keep.then(|| OwnedSegment { bytes: range.to_vec(), line: self.nl_before + 1 });
        self.advance(rel)?;
        Ok(seg)
    }
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::xes::scan::oracle::{scan_document, Segment};
    use std::io;

    /// A read fault [`Dribble`] injects on top of its short reads.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Fault {
        None,
        /// Every other `read` call fails with `ErrorKind::Interrupted`
        /// (the first one included) and delivers nothing.
        InterruptEveryOther,
        /// Bytes before offset `k` arrive; every read from offset `k` on
        /// fails with a non-retryable `io::Error`.
        ErrorAt(usize),
    }

    /// Reader that feeds at most `chunk` bytes per `read` call, to stress
    /// window-edge handling independently of the refill size, and injects
    /// `fault`.
    pub(crate) struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        fault: Fault,
        calls: usize,
    }

    impl<'a> Dribble<'a> {
        pub(crate) fn new(data: &'a [u8], chunk: usize, fault: Fault) -> Self {
            Dribble { data, pos: 0, chunk: chunk.max(1), fault, calls: 0 }
        }
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let mut end = self.data.len();
            match self.fault {
                Fault::None => {}
                Fault::InterruptEveryOther => {
                    if self.calls % 2 == 1 {
                        return Err(io::ErrorKind::Interrupted.into());
                    }
                }
                Fault::ErrorAt(k) => {
                    if self.pos >= k {
                        return Err(io::Error::other("injected read fault"));
                    }
                    end = end.min(k);
                }
            }
            let n = buf.len().min(self.chunk).min(end - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn drain_with(
        doc: &[u8],
        read_chunk: usize,
        dribble: usize,
        fault: Fault,
    ) -> Result<Vec<StreamItem>> {
        let mut scanner = StreamScanner::new(Dribble::new(doc, dribble, fault), read_chunk);
        let mut items = Vec::new();
        while let Some(item) = scanner.next_item()? {
            items.push(item);
        }
        Ok(items)
    }

    fn drain(doc: &str, read_chunk: usize, dribble: usize) -> Result<Vec<StreamItem>> {
        drain_with(doc.as_bytes(), read_chunk, dribble, Fault::None)
    }

    /// The in-memory scan re-expressed as owned segments, for comparison.
    fn oracle(doc: &str) -> Result<Vec<StreamItem>> {
        Ok(scan_document(doc.as_bytes())?
            .into_iter()
            .map(|seg| match seg {
                Segment::Log(r) => StreamItem::Log(OwnedSegment {
                    line: line_at(doc.as_bytes(), r.start),
                    bytes: doc.as_bytes()[r].to_vec(),
                }),
                Segment::Trace(r) => StreamItem::Trace(OwnedSegment {
                    line: line_at(doc.as_bytes(), r.start),
                    bytes: doc.as_bytes()[r].to_vec(),
                }),
            })
            .collect())
    }

    const DOCS: &[&str] = &[
        "<log><trace><event/></trace></log>",
        "<log/>",
        "<?xml version=\"1.0\"?>\n<log>\n  <string key=\"a\" value=\"1\"/>\n  \
         <trace><event><string key=\"k\" value=\"v\"/></event></trace>\n  <trace/>\n  \
         <int key=\"b\" value=\"2\"/>\n</log>\n",
        "<meta><x/></meta><log><trace/></log>",
        "<log><trace><!-- </trace> --><event a=\"</trace>\"/><![CDATA[</trace>]]></trace></log>",
        "<!DOCTYPE log [ <!ENTITY l \"x > <log><trace/></log>\"> ]>\n<log><trace><event/></trace></log>",
        "<log><string key=\"gecco:classattr\" value=\"A\">\
         <string key=\"s\" value=\"x\"/></string><trace/></log>",
        // Multi-byte characters that small windows and reads split.
        "<log>\n<string key=\"ü\" value=\"é\"/><trace><event a=\"café ✓ 𝄞\"/></trace></log>",
    ];

    #[test]
    fn matches_the_in_memory_scan_for_every_window_size() {
        for doc in DOCS {
            let expect = oracle(doc).unwrap();
            for read_chunk in [1, 2, 3, 5, 7, 16, 64, 4096] {
                for dribble in [1, 3, usize::MAX] {
                    let got = drain(doc, read_chunk, dribble).unwrap();
                    assert_eq!(got, expect, "doc {doc:?} chunk {read_chunk} dribble {dribble}");
                }
            }
        }
    }

    #[test]
    fn errors_match_the_in_memory_scan() {
        for doc in ["<notalog/>", "plain text", "<log><trace>", "<log>", "<log><trace/></notlog>"] {
            let expect = oracle(doc).unwrap_err().to_string();
            for read_chunk in [1, 4, 4096] {
                let got = drain(doc, read_chunk, usize::MAX).unwrap_err().to_string();
                assert_eq!(got, expect, "doc {doc:?} chunk {read_chunk}");
            }
        }
    }

    #[test]
    fn lines_are_document_absolute() {
        let doc = "<?xml version=\"1.0\"?>\n<log>\n<trace><event/></trace>\n\
                   <string key=\"a\" value=\"1\"/>\n<trace/>\n</log>\n";
        for read_chunk in [1, 8, 4096] {
            let items = drain(doc, read_chunk, usize::MAX).unwrap();
            let lines: Vec<usize> = items
                .iter()
                .map(|i| match i {
                    StreamItem::Log(s) | StreamItem::Trace(s) => s.line,
                })
                .collect();
            // The log segment starts at the newline ending line 3 (the
            // byte right after `</trace>`), so its first-byte line is 3.
            assert_eq!(lines, vec![3, 3, 5], "chunk {read_chunk}");
        }
    }

    #[test]
    fn window_stays_bounded_by_the_largest_trace() {
        // 200 traces of ~40 bytes each with a tiny read chunk: the window
        // must never grow anywhere near the document size.
        let mut doc = String::from("<log>");
        for i in 0..200 {
            doc.push_str(&format!("<trace><event a=\"{i:020}\"/></trace>"));
        }
        doc.push_str("</log>");
        let source = Dribble::new(doc.as_bytes(), 16, Fault::None);
        let mut scanner = StreamScanner::new(source, 64);
        let mut max_window = 0usize;
        let mut traces = 0usize;
        while let Some(item) = scanner.next_item().unwrap() {
            max_window = max_window.max(scanner.buf.len());
            if matches!(item, StreamItem::Trace(_)) {
                traces += 1;
            }
        }
        assert_eq!(traces, 200);
        assert!(max_window < 512, "window grew to {max_window} bytes");
    }

    #[test]
    fn interrupted_reads_are_retried() {
        for doc in DOCS {
            let one_window = drain(doc, doc.len(), usize::MAX).unwrap();
            for read_chunk in [1, 7, 4096] {
                for dribble in [1, 3, usize::MAX] {
                    let got =
                        drain_with(doc.as_bytes(), read_chunk, dribble, Fault::InterruptEveryOther)
                            .unwrap();
                    assert_eq!(got, one_window, "doc {doc:?} chunk {read_chunk} dribble {dribble}");
                }
            }
        }
    }

    #[test]
    fn a_read_error_aborts_the_scan() {
        for doc in DOCS {
            // Every byte up to the closing `>` of the root is needed.
            let needed = doc.rfind('>').unwrap() + 1;
            for k in 0..needed {
                for read_chunk in [1, 7, 4096] {
                    let err = drain_with(doc.as_bytes(), read_chunk, 3, Fault::ErrorAt(k))
                        .expect_err("a read error must surface");
                    assert!(matches!(err, Error::Io(_)), "doc {doc:?} byte {k}: {err}");
                }
            }
        }
    }
}
