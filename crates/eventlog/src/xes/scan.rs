//! Byte-level tag scanner: the tokenizer under the streaming XES reader.
//!
//! [`Scanner`] finds tag boundaries in a byte window without building a
//! single string. It is a deliberately shallow tokenizer: it understands
//! only enough XML to tell where a construct ends — quoted attribute
//! values (a `>` inside quotes does not end a tag), comments, CDATA
//! sections, processing instructions and DOCTYPE declarations (a
//! `</trace>` inside any of those is not a real end tag). Everything else
//! — attribute decoding, name validation, well-formedness *within* a
//! trace — is left to the real parser in [`crate::xes::reader`].
//!
//! [`crate::xes::stream::StreamScanner`] drives the scanner over a sliding
//! window (`at_eof == false`), so a construct cut off by the window edge
//! comes back as [`Step::Incomplete`] instead of an error.
//!
//! The test-only `oracle` module keeps the whole-document scan
//! (`scan_document`, `at_eof == true`) that splits an in-memory document
//! into the same log-level and per-trace segments in one call. No
//! production route uses it: it is the independent reference the
//! streaming scanner's window-size and error tests compare against.

use crate::error::{Error, Result};
use crate::xes::xml::{line_at, skip_markup_decl, skip_past, take_name_bytes};

/// What the shallow tokenizer saw at one `<…>` construct.
pub(crate) enum RawTag<'a> {
    Start { name: &'a [u8], self_closing: bool },
    End { name: &'a [u8] },
}

/// Outcome of one tokenizer step over a window that may be a prefix of the
/// document: either the construct completed inside the window, or the
/// window ended first and the caller must refill and rescan.
///
/// When [`Scanner::at_eof`] is `true` (the final window of a stream, or
/// the whole-document scan of the test oracle), `Incomplete` is never
/// produced — every truncated construct is a hard error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step<T> {
    Done(T),
    /// The window ended before the construct did — refill and rescan.
    Incomplete,
}

/// Propagates [`Step::Incomplete`] out of a `Result<Step<_>>`-returning
/// function, unwrapping the `Done` payload otherwise.
macro_rules! step {
    ($e:expr) => {
        match $e? {
            Step::Done(v) => v,
            Step::Incomplete => return Ok(Step::Incomplete),
        }
    };
}

pub(crate) struct Scanner<'a> {
    pub(crate) input: &'a [u8],
    pub(crate) pos: usize,
    /// Whether `input` ends at the true end of the document. When `false`
    /// the scanner is looking at a streaming window and reports truncated
    /// constructs as [`Step::Incomplete`] instead of erroring.
    pub(crate) at_eof: bool,
}

impl<'a> Scanner<'a> {
    fn err(&self, message: impl Into<String>) -> Error {
        Error::Xml { line: line_at(self.input, self.pos), message: message.into() }
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    /// Advances to (and over) the byte sequence `until`; shares
    /// [`skip_past`] with the real parser so both stages skip comments,
    /// PIs and CDATA identically.
    fn skip_until(&mut self, until: &[u8]) -> Result<Step<()>> {
        if skip_past(self.input, &mut self.pos, until) {
            return Ok(Step::Done(()));
        }
        if !self.at_eof {
            return Ok(Step::Incomplete);
        }
        Err(self
            .err(format!("unterminated construct; expected `{}`", String::from_utf8_lossy(until))))
    }

    /// Reads the name bytes at the current position (same accepted set as
    /// the real parser via [`take_name_bytes`]; validation happens in
    /// stage two).
    fn read_name_bytes(&mut self) -> &'a [u8] {
        take_name_bytes(self.input, &mut self.pos)
    }

    /// Advances to the next element tag, skipping text, comments, CDATA,
    /// processing instructions and DOCTYPE. Returns the tag and the byte
    /// offset of its opening `<`, or `None` at end of input.
    pub(crate) fn next_tag(&mut self) -> Result<Step<Option<(usize, RawTag<'a>)>>> {
        loop {
            match self.input[self.pos..].iter().position(|&b| b == b'<') {
                Some(i) => self.pos += i,
                None => {
                    self.pos = self.input.len();
                    if !self.at_eof {
                        return Ok(Step::Incomplete);
                    }
                    return Ok(Step::Done(None));
                }
            }
            let tag_start = self.pos;
            // The dispatch below looks at up to `<![CDATA[`.len() bytes;
            // with fewer left in a partial window it could misclassify a
            // construct split across the window edge.
            if !self.at_eof && self.input.len() - self.pos < b"<![CDATA[".len() {
                return Ok(Step::Incomplete);
            }
            if self.starts_with(b"<?") {
                step!(self.skip_until(b"?>"));
                continue;
            }
            if self.starts_with(b"<!--") {
                step!(self.skip_until(b"-->"));
                continue;
            }
            if self.starts_with(b"<![CDATA[") {
                step!(self.skip_until(b"]]>"));
                continue;
            }
            if self.starts_with(b"<!") {
                // DOCTYPE etc.; shares [`skip_markup_decl`] with the real
                // parser so internal subsets containing `>` skip to the
                // same byte in both stages.
                if !skip_markup_decl(self.input, &mut self.pos) {
                    if !self.at_eof {
                        return Ok(Step::Incomplete);
                    }
                    return Err(self.err("unterminated markup declaration"));
                }
                continue;
            }
            if self.starts_with(b"</") {
                self.pos += 2;
                let name = self.read_name_bytes();
                step!(self.skip_until(b">"));
                return Ok(Step::Done(Some((tag_start, RawTag::End { name }))));
            }
            // Start tag: scan to `>`/`/>`, honoring quoted attribute values.
            self.pos += 1;
            let name = self.read_name_bytes();
            let mut self_closing = false;
            loop {
                match self.input.get(self.pos) {
                    Some(b'"') | Some(b'\'') => {
                        let quote = self.input[self.pos];
                        self.pos += 1;
                        match self.input[self.pos..].iter().position(|&b| b == quote) {
                            Some(i) => self.pos += i + 1,
                            None => {
                                self.pos = self.input.len();
                                if !self.at_eof {
                                    return Ok(Step::Incomplete);
                                }
                                return Err(self.err("unterminated attribute value"));
                            }
                        }
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        break;
                    }
                    Some(b'/') if self.input.get(self.pos + 1) == Some(&b'>') => {
                        self.pos += 2;
                        self_closing = true;
                        break;
                    }
                    Some(_) => self.pos += 1,
                    None => {
                        if !self.at_eof {
                            return Ok(Step::Incomplete);
                        }
                        return Err(self.err("unterminated start tag"));
                    }
                }
            }
            return Ok(Step::Done(Some((tag_start, RawTag::Start { name, self_closing }))));
        }
    }

    /// Skips the remainder of a subtree whose start tag was just consumed.
    pub(crate) fn skip_subtree(&mut self) -> Result<Step<()>> {
        let mut depth = 1usize;
        while depth > 0 {
            match step!(self.next_tag()) {
                Some((_, RawTag::Start { self_closing, .. })) => {
                    if !self_closing {
                        depth += 1;
                    }
                }
                Some((_, RawTag::End { .. })) => depth -= 1,
                None => return Err(self.err("unexpected end of input while skipping element")),
            }
        }
        Ok(Step::Done(()))
    }
}

/// The whole-document scan: the reference the streaming scanner is
/// tested against, over the same [`Scanner`] with `at_eof == true`.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{RawTag, Scanner, Step};
    use crate::error::{Error, Result};
    use crate::xes::xml::line_at;
    use std::ops::Range;

    /// One document-order piece of the `<log>` body.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Segment {
        /// Log-level content between traces: typed attributes, extensions,
        /// classifiers, `gecco:classattr` wrappers.
        Log(Range<usize>),
        /// One complete `<trace …>…</trace>` (or self-closing `<trace/>`)
        /// subtree.
        Trace(Range<usize>),
    }

    /// Unwraps a step produced in whole-document mode, where `Incomplete`
    /// is unreachable.
    fn complete<T>(step: Step<T>) -> T {
        match step {
            Step::Done(v) => v,
            Step::Incomplete => unreachable!("Step::Incomplete with at_eof"),
        }
    }

    /// Scans a whole in-memory document into log-level segments and
    /// per-trace chunks.
    ///
    /// Errors mirror the streaming scanner: a missing `<log>` root is an
    /// XES error, unterminated constructs are XML errors. Structural
    /// problems *inside* a chunk (mismatched tags, bad attributes) are
    /// intentionally not detected here — the reader reports them.
    pub(crate) fn scan_document(input: &[u8]) -> Result<Vec<Segment>> {
        let mut scanner = Scanner { input, pos: 0, at_eof: true };
        // Find the root <log>, skipping any other top-level subtrees.
        loop {
            match complete(scanner.next_tag()?) {
                Some((_, RawTag::Start { name: b"log", self_closing })) => {
                    if self_closing {
                        return Ok(Vec::new());
                    }
                    break;
                }
                Some((_, RawTag::Start { self_closing, .. })) => {
                    if !self_closing {
                        complete(scanner.skip_subtree()?);
                    }
                }
                Some((_, RawTag::End { .. })) | None => {
                    return Err(Error::Xes {
                        line: line_at(input, scanner.pos),
                        message: "no <log> element found".into(),
                    })
                }
            }
        }
        let mut segments = Vec::new();
        let mut log_seg_start = scanner.pos;
        // Pushes the pending log-level range [log_seg_start, end) unless
        // it is pure inter-element whitespace.
        let push_log_segment = |segments: &mut Vec<Segment>, start: usize, end: usize| {
            if input[start..end].iter().any(|b| !matches!(b, b' ' | b'\t' | b'\r' | b'\n')) {
                segments.push(Segment::Log(start..end));
            }
        };
        let mut depth = 1usize; // inside <log>
        loop {
            match complete(scanner.next_tag()?) {
                Some((tag_start, RawTag::Start { name, self_closing })) => {
                    if depth == 1 && name == b"trace" {
                        push_log_segment(&mut segments, log_seg_start, tag_start);
                        if !self_closing {
                            complete(scanner.skip_subtree()?);
                        }
                        segments.push(Segment::Trace(tag_start..scanner.pos));
                        log_seg_start = scanner.pos;
                    } else if !self_closing {
                        depth += 1;
                    }
                }
                Some((tag_start, RawTag::End { name })) => {
                    depth -= 1;
                    if depth == 0 {
                        if name != b"log" {
                            return Err(Error::Xml {
                                line: line_at(input, tag_start),
                                message: format!(
                                    "mismatched `</{}>`; expected `</log>`",
                                    String::from_utf8_lossy(name)
                                ),
                            });
                        }
                        push_log_segment(&mut segments, log_seg_start, tag_start);
                        return Ok(segments);
                    }
                }
                None => {
                    return Err(Error::Xml {
                        line: line_at(input, scanner.pos),
                        message: "unexpected end of input; `<log>` not closed".into(),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{scan_document, Segment};

    fn segs(doc: &str) -> Vec<Segment> {
        scan_document(doc.as_bytes()).unwrap()
    }

    #[test]
    fn splits_prologue_traces_and_trailing() {
        let doc = r#"<log><string key="a" value="1"/><trace><event/></trace><trace/><int key="b" value="2"/></log>"#;
        let s = segs(doc);
        assert_eq!(s.len(), 4);
        assert!(matches!(&s[0], Segment::Log(_)));
        match &s[1] {
            Segment::Trace(r) => assert_eq!(&doc[r.clone()], "<trace><event/></trace>"),
            other => panic!("unexpected {other:?}"),
        }
        match &s[2] {
            Segment::Trace(r) => assert_eq!(&doc[r.clone()], "<trace/>"),
            other => panic!("unexpected {other:?}"),
        }
        match &s[3] {
            Segment::Log(r) => assert_eq!(&doc[r.clone()], r#"<int key="b" value="2"/>"#),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn whitespace_only_gaps_produce_no_segments() {
        let s = segs("<log>\n  <trace/>\n  <trace/>\n</log>");
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|s| matches!(s, Segment::Trace(_))));
    }

    #[test]
    fn tricky_content_does_not_end_a_trace() {
        let doc = "<log><trace><!-- </trace> --><event a=\"</trace>\"/>\
                   <![CDATA[</trace>]]></trace></log>";
        let s = segs(doc);
        assert_eq!(s.len(), 1);
        match &s[0] {
            Segment::Trace(r) => assert!(doc[r.clone()].ends_with("]]></trace>")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_elements_inside_traces_are_tracked() {
        let doc = "<log><trace><event><string key=\"k\" value=\"v\"/></event></trace></log>";
        assert_eq!(segs(doc).len(), 1);
    }

    #[test]
    fn classattr_wrappers_stay_in_log_segments() {
        let doc = "<log><string key=\"gecco:classattr\" value=\"A\">\
                   <string key=\"s\" value=\"x\"/></string><trace/></log>";
        let s = segs(doc);
        assert_eq!(s.len(), 2);
        assert!(matches!(&s[0], Segment::Log(_)));
        assert!(matches!(&s[1], Segment::Trace(_)));
    }

    #[test]
    fn self_closing_log_is_empty() {
        assert_eq!(scan_document(b"<log/>").unwrap().len(), 0);
        assert_eq!(scan_document(b"<?xml version=\"1.0\"?><log></log>").unwrap().len(), 0);
    }

    #[test]
    fn missing_log_is_an_error() {
        assert!(scan_document(b"<notalog/>").is_err());
        assert!(scan_document(b"plain text").is_err());
    }

    #[test]
    fn unterminated_log_is_an_error() {
        assert!(scan_document(b"<log><trace>").is_err());
        assert!(scan_document(b"<log>").is_err());
    }

    #[test]
    fn non_log_top_level_subtrees_are_skipped() {
        let s = segs("<meta><x/></meta><log><trace/></log>");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn doctype_internal_subset_does_not_leak_into_segments() {
        // The old skip-to-`>` stopped inside the subset, so the leftover
        // `]>` bytes (or worse, a fake `<trace>` inside an entity value)
        // leaked into the scan. Both tokenizer stages now share
        // `skip_markup_decl`, so the prologue is skipped identically.
        for prolog in [
            "<!DOCTYPE log [ <!ENTITY auth \"Bob\"> ]>",
            // An entity value with a `>` followed by a fake `<log>`: the
            // pre-fix scanner took the leaked `<log>` as the root and
            // segmented the entity's own `<trace/>`.
            "<!DOCTYPE log [ <!ENTITY l \"x > <log><trace/></log>\"> ]>",
            // A leaked end tag aborted the pre-fix scan outright.
            "<!DOCTYPE log [ <!-- > --> <!ENTITY e \"v > </trace>\"> ]>",
        ] {
            let doc = format!("{prolog}<log><trace><event/></trace></log>");
            let s = segs(&doc);
            assert_eq!(s.len(), 1, "subset leaked for {prolog:?}: {s:?}");
            match &s[0] {
                Segment::Trace(r) => {
                    assert_eq!(&doc[r.clone()], "<trace><event/></trace>")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn unterminated_doctype_is_an_error() {
        assert!(scan_document(b"<!DOCTYPE log [ <log><trace/></log>").is_err());
    }
}
