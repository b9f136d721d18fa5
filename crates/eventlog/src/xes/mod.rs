//! Hand-rolled XES serialization.
//!
//! [XES](http://xes-standard.org) (eXtensible Event Stream) is the IEEE
//! standard interchange format for event logs and the format of all datasets
//! in the paper's evaluation. This module implements a reader and writer for
//! the XES subset that event-log tooling actually exchanges: logs, traces,
//! events and typed attributes (`string`, `date`, `int`, `float`,
//! `boolean`), on top of the in-crate [`xml`] pull parser.
//!
//! There is one read route. [`StreamScanner`] splits the document into
//! log-level segments and per-trace chunks over a bounded window and
//! checks UTF-8; [`ingest_stream`] parses trace chunks in batches (in
//! parallel under the `rayon` feature) and merges them in document order
//! into a [`BatchSink`]. [`parse_str`], [`parse_file`], [`parse_reader`]
//! and [`crate::store::ingest_to_store`] are that route over different
//! sources and sinks, so they accept the same documents and report the
//! same errors at the same lines.

pub mod ingest;
pub mod reader;
mod scan;
pub mod stream;
pub mod writer;
pub mod xml;

pub use ingest::{ingest_stream, parse_reader, BatchSink, IngestOptions};
pub use reader::{parse_file, parse_str};
pub use stream::{OwnedSegment, StreamItem, StreamScanner, DEFAULT_READ_CHUNK};
pub use writer::{write_file, write_footer, write_header, write_string, write_traces};
