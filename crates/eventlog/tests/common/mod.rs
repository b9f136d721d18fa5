//! Shared generators and comparators for the ingestion test suites.
#![allow(dead_code)] // each suite uses a subset

use gecco_eventlog::{AttributeValue, EventLog, LogBuilder};
use proptest::collection::vec;
use proptest::string::string_regex;
use proptest::{any, Just, Strategy};

/// A typed attribute value specification, independent of any interner.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSpec {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Timestamp(i64),
}

/// One event: class name plus attributes in document order.
#[derive(Debug, Clone)]
pub struct EventSpec {
    pub class: String,
    pub attrs: Vec<(String, ValueSpec)>,
}

/// A whole random log.
#[derive(Debug, Clone)]
pub struct LogSpec {
    pub log_attrs: Vec<(String, ValueSpec)>,
    pub class_attrs: Vec<(String, String, String)>,
    pub traces: Vec<Vec<EventSpec>>,
}

/// Value strategy for XES round trips: any type, XML-special characters
/// included, floats kept non-integral and finite, timestamps in the
/// formatter's comfortable range.
fn xes_value() -> impl Strategy<Value = ValueSpec> {
    (
        0u8..5,
        -1_000_000i64..1_000_000,
        0i64..4_000_000_000_000,
        string_regex("[a-z<>&\"' _0-9]{0,8}").unwrap(),
        any::<bool>(),
    )
        .prop_map(|(kind, i, ts, s, b)| match kind {
            0 => ValueSpec::Str(s),
            1 => ValueSpec::Int(i),
            2 => ValueSpec::Float(i as f64 + 0.5),
            3 => ValueSpec::Bool(b),
            _ => ValueSpec::Timestamp(ts),
        })
}

/// Value strategy for CSV round trips: every value must survive the
/// importer's type re-sniffing. Strings get a letter prefix so they never
/// parse as a number/bool/date, floats are non-integral so their rendering
/// keeps a decimal point, timestamps round-trip through `format_iso8601`.
fn csv_value() -> impl Strategy<Value = ValueSpec> {
    (
        0u8..5,
        -1_000_000i64..1_000_000,
        0i64..4_000_000_000_000,
        string_regex("[a-z ,\"'_]{0,6}").unwrap(),
        any::<bool>(),
    )
        .prop_map(|(kind, i, ts, s, b)| match kind {
            0 => ValueSpec::Str(format!("v{s}")),
            1 => ValueSpec::Int(i),
            2 => ValueSpec::Float(i as f64 + 0.5),
            3 => ValueSpec::Bool(b),
            _ => ValueSpec::Timestamp(ts),
        })
}

/// Attribute keys: no `:` so generated keys can never collide with the
/// reserved `concept:name` / `case:concept:name` columns.
fn key() -> impl Strategy<Value = String> {
    string_regex("[a-f_]{1,5}").unwrap()
}

/// Class names: short, from a small alphabet (so classes repeat across
/// events), XML-special characters included.
fn class_name() -> impl Strategy<Value = String> {
    string_regex("[ab<&\" x]{1,3}").unwrap()
}

fn xes_event() -> impl Strategy<Value = EventSpec> {
    (class_name(), vec((key(), xes_value()), 0..4))
        .prop_map(|(class, attrs)| EventSpec { class, attrs })
}

fn csv_event() -> impl Strategy<Value = EventSpec> {
    (class_name(), vec((key(), csv_value()), 0..4))
        .prop_map(|(class, attrs)| EventSpec { class, attrs })
}

/// A random log spec for XES round trips: log attributes, class-level
/// attributes and traces of events.
pub fn xes_log_spec() -> impl Strategy<Value = LogSpec> {
    (
        vec((key(), xes_value()), 0..3),
        vec((class_name(), key(), string_regex("[a-z<&\" ]{0,6}").unwrap()), 0..3),
        vec(vec(xes_event(), 0..6), 0..8),
    )
        .prop_map(|(log_attrs, class_attrs, traces)| LogSpec {
            log_attrs,
            class_attrs,
            traces,
        })
}

/// A larger XES spec with enough traces to spread over several parallel
/// batches at a small `batch_traces`.
pub fn xes_log_spec_large() -> impl Strategy<Value = LogSpec> {
    (Just(()), vec(vec(xes_event(), 0..5), 20..40)).prop_map(|((), traces)| LogSpec {
        log_attrs: Vec::new(),
        class_attrs: Vec::new(),
        traces,
    })
}

/// A random log spec for CSV round trips: no log/class attributes (CSV
/// cannot carry them) and at least one event per trace (an event-less
/// trace produces no rows and would vanish on import).
pub fn csv_log_spec() -> impl Strategy<Value = LogSpec> {
    vec(vec(csv_event(), 1..6), 0..8).prop_map(|traces| LogSpec {
        log_attrs: Vec::new(),
        class_attrs: Vec::new(),
        traces,
    })
}

/// CSV spec with enough rows for the importer's chunked phase to fan out.
pub fn csv_log_spec_large() -> impl Strategy<Value = LogSpec> {
    vec(vec(csv_event(), 1..5), 20..40).prop_map(|traces| LogSpec {
        log_attrs: Vec::new(),
        class_attrs: Vec::new(),
        traces,
    })
}

/// Materializes a spec into an [`EventLog`]. Case ids are unique by index
/// so CSV import never merges two distinct traces.
pub fn build_log(spec: &LogSpec) -> EventLog {
    let mut b = LogBuilder::new();
    for (k, v) in &spec.log_attrs {
        match v {
            ValueSpec::Str(s) => {
                b.log_attr_str(k, s);
            }
            ValueSpec::Int(i) => {
                b.log_attr(k, AttributeValue::Int(*i));
            }
            ValueSpec::Float(f) => {
                b.log_attr(k, AttributeValue::Float(*f));
            }
            ValueSpec::Bool(x) => {
                b.log_attr(k, AttributeValue::Bool(*x));
            }
            ValueSpec::Timestamp(t) => {
                b.log_attr(k, AttributeValue::Timestamp(*t));
            }
        }
    }
    for (class, k, v) in &spec.class_attrs {
        b.class_attr_str(class, k, v).unwrap();
    }
    for (i, events) in spec.traces.iter().enumerate() {
        let mut tb = b.trace(&format!("case-{i}"));
        for ev in events {
            tb = tb
                .event_with(&ev.class, |e| {
                    for (k, v) in &ev.attrs {
                        match v {
                            ValueSpec::Str(s) => e.str(k, s),
                            ValueSpec::Int(x) => e.int(k, *x),
                            ValueSpec::Float(x) => e.float(k, *x),
                            ValueSpec::Bool(x) => e.bool(k, *x),
                            ValueSpec::Timestamp(x) => e.timestamp(k, *x),
                        };
                    }
                })
                .unwrap();
        }
        tb.done();
    }
    b.build()
}

/// Canonical, interner-independent rendering of one attribute value.
fn render(log: &EventLog, v: &AttributeValue) -> String {
    match v {
        AttributeValue::Str(s) => format!("str:{}", log.resolve(*s)),
        AttributeValue::Int(i) => format!("int:{i}"),
        AttributeValue::Float(f) => format!("float:{:016x}", f.to_bits()),
        AttributeValue::Bool(b) => format!("bool:{b}"),
        AttributeValue::Timestamp(t) => format!("ts:{t}"),
    }
}

/// Canonical, interner-independent projection of a log: everything the
/// event model observes, with symbols resolved to strings. Two logs with
/// equal canon are semantically identical even if their interners number
/// symbols differently.
pub fn canon(log: &EventLog) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (k, v) in log.attributes() {
        let _ = writeln!(out, "logattr {}={}", log.resolve(*k), render(log, v));
    }
    let mut class_lines: Vec<String> = log
        .classes()
        .ids()
        .map(|id| {
            let info = log.classes().info(id);
            let mut attrs: Vec<String> = info
                .attributes
                .iter()
                .map(|(k, v)| format!("{}={}", log.resolve(*k), render(log, v)))
                .collect();
            attrs.sort();
            format!("class {:?} [{}]", log.class_name(id), attrs.join(", "))
        })
        .collect();
    class_lines.sort();
    for line in class_lines {
        let _ = writeln!(out, "{line}");
    }
    for trace in log.traces() {
        let mut tattrs: Vec<String> = trace
            .attributes()
            .iter()
            .map(|(k, v)| format!("{}={}", log.resolve(*k), render(log, v)))
            .collect();
        tattrs.sort();
        let _ = writeln!(out, "trace [{}]", tattrs.join(", "));
        for event in trace.events() {
            // Attribute storage order is sorted-by-symbol, which depends on
            // the interner; sort the rendered form so two semantically
            // equal logs canonicalize identically. A `concept:name`
            // attribute equal to the class name is dropped: the XES writer
            // synthesizes exactly that for events without one, so it is
            // redundant with the class.
            let class_name = log.class_name(event.class());
            let mut attrs: Vec<String> = event
                .attributes()
                .iter()
                .filter(|(k, v)| {
                    !(log.resolve(*k) == "concept:name"
                        && v.as_symbol().is_some_and(|s| log.resolve(s) == class_name))
                })
                .map(|(k, v)| format!("{}={}", log.resolve(*k), render(log, v)))
                .collect();
            attrs.sort();
            let _ =
                writeln!(out, "  event {:?} [{}]", log.class_name(event.class()), attrs.join(", "));
        }
    }
    out
}

/// Asserts two logs are **bit-identical**: same interner contents in the
/// same symbol order, same class registry (ids, names, attributes), same
/// log attributes, traces and cached per-trace class sets. This is the
/// contract of the chunked pipeline: chunking and worker count must never
/// influence the result.
pub fn assert_logs_identical(a: &EventLog, b: &EventLog) {
    let syms_a: Vec<(u32, &str)> = a.interner().iter().map(|(s, w)| (s.0, w)).collect();
    let syms_b: Vec<(u32, &str)> = b.interner().iter().map(|(s, w)| (s.0, w)).collect();
    assert_eq!(syms_a, syms_b, "interner contents/order diverge");
    assert_eq!(a.num_classes(), b.num_classes(), "class counts diverge");
    for id in a.classes().ids() {
        let (ia, ib) = (a.classes().info(id), b.classes().info(id));
        assert_eq!(ia.name, ib.name, "class {id:?} name symbol diverges");
        assert_eq!(ia.attributes, ib.attributes, "class {id:?} attributes diverge");
    }
    assert_eq!(a.attributes(), b.attributes(), "log attributes diverge");
    assert_eq!(a.traces(), b.traces(), "traces diverge");
    assert_eq!(a.trace_class_sets(), b.trace_class_sets(), "trace class sets diverge");
}
