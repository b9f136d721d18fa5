//! XES deserialization into an [`EventLog`]: the per-segment parsers
//! that [`ingest_stream`](crate::xes::ingest::ingest_stream) runs on the
//! log-level segments and trace chunks
//! [`StreamScanner`](crate::xes::stream::StreamScanner) cuts, and the
//! entry points [`parse_str`] and [`parse_file`] — that same route over a
//! string and over an open file.

use crate::error::{Error, Result};
use crate::log::{EventLog, FragmentTrace, LogBuilder, LogFragment};
use crate::time::parse_iso8601;
use crate::value::AttributeValue;
use crate::xes::ingest::{parse_reader, IngestOptions};
use crate::xes::xml::{XmlEvent, XmlParser};
use std::borrow::Cow;

/// Log-level attribute key under which class-level attributes are persisted
/// (nested-attribute convention, see [`crate::xes::writer`]).
pub const CLASS_ATTR_KEY: &str = "gecco:classattr";

/// Parses an XES document from a string, through the same streaming
/// route as [`parse_file`].
pub fn parse_str(input: &str) -> Result<EventLog> {
    parse_reader(input.as_bytes(), &IngestOptions::default())
}

/// Parses an XES file from disk: [`parse_reader`] over the open file, so
/// the document text is never held whole.
///
/// The file must be UTF-8. A Latin-1 or corrupted file is rejected with
/// the line of its first invalid byte (like [`crate::csv::read_file`]),
/// never imported with U+FFFD in its strings. Bytes after the closing
/// `</log>` are not read, on this or any other route, so they are
/// neither parsed nor checked.
pub fn parse_file(path: impl AsRef<std::path::Path>) -> Result<EventLog> {
    parse_reader(std::fs::File::open(path)?, &IngestOptions::default())
}

/// Adds `base` lines to the positions in an error, turning a line relative
/// to one chunk or window into a document-absolute one.
pub(crate) fn shift_lines(err: Error, base: usize) -> Error {
    match err {
        Error::Xml { line, message } => Error::Xml { line: line + base, message },
        Error::Xes { line, message } => Error::Xes { line: line + base, message },
        other => other,
    }
}

/// A typed attribute parsed from one XES attribute element, borrowing from
/// the chunk being parsed.
struct RawAttr<'a> {
    key: Cow<'a, str>,
    value: RawValue<'a>,
}

enum RawValue<'a> {
    Str(Cow<'a, str>),
    Int(i64),
    Float(f64),
    Bool(bool),
    Timestamp(i64),
}

fn xes_err(parser: &XmlParser<'_>, message: impl Into<String>) -> Error {
    Error::Xes { line: parser.line(), message: message.into() }
}

/// Interprets a start element as a typed XES attribute, if it is one.
/// Consumes the element's attribute list so key and value move out without
/// copies.
fn attr_from<'a>(
    parser: &XmlParser<'a>,
    tag: &str,
    attributes: Vec<(&'a str, Cow<'a, str>)>,
) -> Result<Option<RawAttr<'a>>> {
    let typed = matches!(tag, "string" | "date" | "int" | "float" | "boolean" | "id");
    if !typed {
        return Ok(None);
    }
    let mut key: Option<Cow<'a, str>> = None;
    let mut raw: Option<Cow<'a, str>> = None;
    for (k, v) in attributes {
        match k {
            "key" if key.is_none() => key = Some(v),
            "value" if raw.is_none() => raw = Some(v),
            _ => {}
        }
    }
    let key = key.ok_or_else(|| xes_err(parser, format!("<{tag}> without `key`")))?;
    let raw =
        raw.ok_or_else(|| xes_err(parser, format!("<{tag} key=\"{key}\"> without `value`")))?;
    let value = match tag {
        "string" | "id" => RawValue::Str(raw),
        "date" => RawValue::Timestamp(parse_iso8601(&raw)?),
        "int" => RawValue::Int(
            raw.parse()
                .map_err(|_| xes_err(parser, format!("bad int value {raw:?} for key {key:?}")))?,
        ),
        "float" => RawValue::Float(
            raw.parse()
                .map_err(|_| xes_err(parser, format!("bad float value {raw:?} for key {key:?}")))?,
        ),
        "boolean" => match raw.as_ref() {
            "true" | "True" | "TRUE" | "1" => RawValue::Bool(true),
            "false" | "False" | "FALSE" | "0" => RawValue::Bool(false),
            _ => return Err(xes_err(parser, format!("bad boolean value {raw:?} for key {key:?}"))),
        },
        _ => unreachable!(),
    };
    Ok(Some(RawAttr { key, value }))
}

/// Consumes events until the element opened last is closed. For a
/// self-closing element this consumes exactly its synthetic `EndElement`.
fn skip_subtree(parser: &mut XmlParser<'_>) -> Result<()> {
    let mut depth = 1usize;
    loop {
        match parser.next_event()? {
            Some(XmlEvent::StartElement { .. }) => {
                // Self-closing elements emit a synthetic EndElement next,
                // so counting them like open elements balances out.
                depth += 1;
            }
            Some(XmlEvent::EndElement { .. }) => {
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            }
            Some(XmlEvent::Text(_)) => {}
            None => return Err(xes_err(parser, "unexpected end of input while skipping element")),
        }
    }
}

// ---------------------------------------------------------------------------
// Log-level segments (serial).
// ---------------------------------------------------------------------------

/// Parses one log-level segment — typed log attributes, extensions,
/// classifiers and `gecco:classattr` wrappers — directly into the builder.
pub(crate) fn parse_log_segment(builder: &mut LogBuilder, segment: &[u8]) -> Result<()> {
    let mut parser = XmlParser::from_bytes(segment);
    while let Some(event) = parser.next_event()? {
        match event {
            XmlEvent::StartElement { name, attributes, self_closing } => match name {
                "extension" | "global" | "classifier" => {
                    if !self_closing {
                        skip_subtree(&mut parser)?;
                    }
                }
                _ => {
                    if let Some(attr) = attr_from(&parser, name, attributes)? {
                        if attr.key == CLASS_ATTR_KEY {
                            parse_class_attrs(builder, &mut parser, &attr, self_closing)?;
                        } else {
                            if !self_closing {
                                skip_subtree(&mut parser)?;
                            }
                            let value = intern_value(builder, attr.value);
                            builder.log_attr(&attr.key, value);
                        }
                    } else if !self_closing {
                        skip_subtree(&mut parser)?;
                    }
                }
            },
            XmlEvent::EndElement { .. } | XmlEvent::Text(_) => {}
        }
    }
    Ok(())
}

/// Restores class-level attributes from the nested-attribute convention:
/// `<string key="gecco:classattr" value="CLASS"> <k=v children/> </string>`.
///
/// The wrapper's own `EndElement` is tracked explicitly: every child —
/// self-closing or not — is fully consumed (including the synthetic
/// `EndElement` a self-closing child emits) before the loop looks at the
/// next event. The previous implementation returned on *any* `EndElement`,
/// so the synthetic one after a first self-closing child ended the wrapper
/// early and every following class attribute leaked to log level.
fn parse_class_attrs(
    builder: &mut LogBuilder,
    parser: &mut XmlParser<'_>,
    outer: &RawAttr<'_>,
    self_closing: bool,
) -> Result<()> {
    let class = match &outer.value {
        RawValue::Str(s) => s.clone(),
        _ => return Err(xes_err(parser, "gecco:classattr value must be the class name")),
    };
    if self_closing {
        // An empty wrapper still names a class; nothing to attach.
        return Ok(());
    }
    loop {
        match parser.next_event()? {
            Some(XmlEvent::StartElement { name, attributes, self_closing: _ }) => {
                if let Some(attr) = attr_from(parser, name, attributes)? {
                    match &attr.value {
                        RawValue::Str(s) => {
                            builder.class_attr_str(&class, &attr.key, s)?;
                        }
                        _ => return Err(xes_err(parser, "class-level attributes must be strings")),
                    }
                }
                // Consume the child subtree entirely — for a self-closing
                // child this eats exactly its synthetic EndElement.
                skip_subtree(parser)?;
            }
            Some(XmlEvent::EndElement { .. }) => return Ok(()), // the wrapper itself
            Some(XmlEvent::Text(_)) => {}
            None => return Err(xes_err(parser, "unexpected end of input in class attributes")),
        }
    }
}

fn intern_value(builder: &mut LogBuilder, raw: RawValue<'_>) -> AttributeValue {
    match raw {
        RawValue::Str(s) => AttributeValue::Str(builder.intern(&s)),
        RawValue::Int(i) => AttributeValue::Int(i),
        RawValue::Float(f) => AttributeValue::Float(f),
        RawValue::Bool(b) => AttributeValue::Bool(b),
        RawValue::Timestamp(t) => AttributeValue::Timestamp(t),
    }
}

// ---------------------------------------------------------------------------
// Trace chunks (parsed in batches, in parallel under the `rayon` feature).
// ---------------------------------------------------------------------------

/// Parses one `<trace>…</trace>` chunk into the batch fragment, interning
/// strings into the fragment's thread-local interner as they are read —
/// no intermediate owned strings.
pub(crate) fn parse_trace_into(fragment: &mut LogFragment, chunk: &[u8]) -> Result<()> {
    let mut parser = XmlParser::from_bytes(chunk);
    match parser.next_event()? {
        Some(XmlEvent::StartElement { name: "trace", self_closing, .. }) => {
            if self_closing {
                fragment.push_trace(FragmentTrace { attributes: Vec::new(), events: Vec::new() });
                return Ok(());
            }
        }
        _ => return Err(xes_err(&parser, "trace chunk does not start with <trace>")),
    }
    let mut attributes: Vec<(crate::Symbol, AttributeValue)> = Vec::new();
    let mut events: Vec<(crate::Symbol, Vec<(crate::Symbol, AttributeValue)>)> = Vec::new();
    loop {
        match parser.next_event()? {
            Some(XmlEvent::StartElement { name, attributes: xattrs, self_closing }) => {
                if name == "event" {
                    let raw_attrs =
                        if self_closing { Vec::new() } else { parse_event_attrs(&mut parser)? };
                    let class = raw_attrs
                        .iter()
                        .find(|a| a.key == "concept:name")
                        .and_then(|a| match &a.value {
                            RawValue::Str(s) => Some(s.as_ref()),
                            _ => None,
                        })
                        .ok_or_else(|| xes_err(&parser, "event without string `concept:name`"))?;
                    let class = fragment.intern(class);
                    let attrs = raw_attrs
                        .into_iter()
                        .map(|a| {
                            let key = fragment.intern(&a.key);
                            (key, fragment_value(fragment, a.value))
                        })
                        .collect();
                    events.push((class, attrs));
                } else if let Some(attr) = attr_from(&parser, name, xattrs)? {
                    if !self_closing {
                        skip_subtree(&mut parser)?;
                    }
                    let key = fragment.intern(&attr.key);
                    let value = fragment_value(fragment, attr.value);
                    attributes.push((key, value));
                } else if !self_closing {
                    skip_subtree(&mut parser)?;
                }
            }
            Some(XmlEvent::EndElement { name: "trace" }) => break,
            Some(_) => {}
            None => return Err(xes_err(&parser, "unexpected end of input inside <trace>")),
        }
    }
    fragment.push_trace(FragmentTrace { attributes, events });
    Ok(())
}

/// Parses the attribute children of one `<event>` element.
fn parse_event_attrs<'a>(parser: &mut XmlParser<'a>) -> Result<Vec<RawAttr<'a>>> {
    let mut out = Vec::new();
    loop {
        match parser.next_event()? {
            Some(XmlEvent::StartElement { name, attributes, self_closing }) => {
                if let Some(attr) = attr_from(parser, name, attributes)? {
                    out.push(attr);
                }
                if !self_closing {
                    skip_subtree(parser)?;
                }
            }
            Some(XmlEvent::EndElement { name: "event" }) => return Ok(out),
            Some(_) => {}
            None => return Err(xes_err(parser, "unexpected end of input inside <event>")),
        }
    }
}

fn fragment_value(fragment: &mut LogFragment, raw: RawValue<'_>) -> AttributeValue {
    match raw {
        RawValue::Str(s) => AttributeValue::Str(fragment.intern(&s)),
        RawValue::Int(i) => AttributeValue::Int(i),
        RawValue::Float(f) => AttributeValue::Float(f),
        RawValue::Bool(b) => AttributeValue::Bool(b),
        RawValue::Timestamp(t) => AttributeValue::Timestamp(t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xes.features="">
  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>
  <global scope="event">
    <string key="concept:name" value="__INVALID__"/>
  </global>
  <classifier name="Activity" keys="concept:name"/>
  <string key="concept:name" value="running-example"/>
  <trace>
    <string key="concept:name" value="case-1"/>
    <event>
      <string key="concept:name" value="rcp"/>
      <string key="org:role" value="clerk"/>
      <date key="time:timestamp" value="2021-03-01T08:00:00.000+00:00"/>
      <int key="cost" value="12"/>
      <float key="effort" value="0.5"/>
      <boolean key="rework" value="false"/>
    </event>
    <event>
      <string key="concept:name" value="acc"/>
      <string key="org:role" value="manager"/>
      <date key="time:timestamp" value="2021-03-01T09:30:00.000+00:00"/>
    </event>
  </trace>
  <trace>
    <string key="concept:name" value="case-2"/>
    <event><string key="concept:name" value="rcp"/></event>
  </trace>
</log>"#;

    #[test]
    fn parses_sample_log() {
        let log = parse_str(SAMPLE).unwrap();
        assert_eq!(log.traces().len(), 2);
        assert_eq!(log.num_classes(), 2);
        assert_eq!(log.num_events(), 3);
        let t0 = &log.traces()[0];
        let case = t0.attribute(log.std_keys().concept_name).unwrap();
        assert_eq!(log.resolve(case.as_symbol().unwrap()), "case-1");
        let e0 = &t0.events()[0];
        assert_eq!(log.class_name(e0.class()), "rcp");
        let role = e0.attribute(log.std_keys().role).unwrap().as_symbol().unwrap();
        assert_eq!(log.resolve(role), "clerk");
        assert_eq!(e0.attribute(log.key("cost").unwrap()), Some(&AttributeValue::Int(12)));
        assert_eq!(e0.attribute(log.key("effort").unwrap()), Some(&AttributeValue::Float(0.5)));
        assert_eq!(e0.attribute(log.key("rework").unwrap()), Some(&AttributeValue::Bool(false)));
        let ts = e0.timestamp(log.std_keys().timestamp).unwrap();
        assert_eq!(crate::time::format_iso8601(ts), "2021-03-01T08:00:00.000Z");
    }

    #[test]
    fn log_level_attributes_survive() {
        let log = parse_str(SAMPLE).unwrap();
        let key = log.key("concept:name").unwrap();
        let (_, v) = log.attributes().iter().find(|(k, _)| *k == key).unwrap();
        assert_eq!(log.resolve(v.as_symbol().unwrap()), "running-example");
    }

    #[test]
    fn event_without_class_is_an_error() {
        let doc = r#"<log><trace><event><int key="cost" value="1"/></event></trace></log>"#;
        let err = parse_str(doc).unwrap_err();
        assert!(err.to_string().contains("concept:name"), "{err}");
    }

    #[test]
    fn class_attr_convention_round_trip() {
        let doc = r#"<log>
          <string key="gecco:classattr" value="A_Submit">
            <string key="system" value="A"/>
          </string>
          <trace><event><string key="concept:name" value="A_Submit"/></event></trace>
        </log>"#;
        let log = parse_str(doc).unwrap();
        let id = log.class_by_name("A_Submit").unwrap();
        let key = log.key("system").unwrap();
        let v = log.classes().info(id).attribute(key).unwrap();
        assert_eq!(log.resolve(v.as_symbol().unwrap()), "A");
    }

    #[test]
    fn multiple_class_attrs_stay_on_the_class() {
        // Regression for the parse_class_attrs early-return bug: with two or
        // more self-closing children (the writer always emits self-closing
        // attribute elements), every attribute after the first used to be
        // misfiled as a log-level attribute.
        let doc = r#"<log>
          <string key="gecco:classattr" value="A">
            <string key="system" value="S1"/>
            <string key="department" value="D1"/>
            <string key="owner" value="O1"/>
          </string>
          <string key="gecco:classattr" value="B">
            <string key="system" value="S2"/>
            <string key="department" value="D2"/>
          </string>
          <trace>
            <event><string key="concept:name" value="A"/></event>
            <event><string key="concept:name" value="B"/></event>
          </trace>
        </log>"#;
        let log = parse_str(doc).unwrap();
        let a = log.class_by_name("A").unwrap();
        let b = log.class_by_name("B").unwrap();
        for (class, key, want) in [
            (a, "system", "S1"),
            (a, "department", "D1"),
            (a, "owner", "O1"),
            (b, "system", "S2"),
            (b, "department", "D2"),
        ] {
            let key = log.key(key).unwrap_or_else(|| panic!("key {key:?} not interned"));
            let v = log
                .classes()
                .info(class)
                .attribute(key)
                .unwrap_or_else(|| panic!("missing class attr"));
            assert_eq!(log.resolve(v.as_symbol().unwrap()), want);
        }
        // And nothing leaked to log level.
        assert!(log.attributes().is_empty(), "class attrs leaked: {:?}", log.attributes());
    }

    #[test]
    fn bad_typed_values_are_errors() {
        for (tag, val) in [("int", "xx"), ("float", "--"), ("boolean", "maybe"), ("date", "nope")] {
            let doc = format!(
                r#"<log><trace><event><string key="concept:name" value="a"/><{tag} key="k" value="{val}"/></event></trace></log>"#
            );
            assert!(parse_str(&doc).is_err(), "accepted bad {tag} value");
        }
    }

    #[test]
    fn missing_log_element_is_an_error() {
        assert!(parse_str("<notalog/>").is_err());
    }

    #[test]
    fn empty_and_self_closing_traces() {
        let log = parse_str("<log><trace/><trace></trace></log>").unwrap();
        assert_eq!(log.traces().len(), 2);
        assert_eq!(log.num_events(), 0);
    }

    #[test]
    fn errors_in_late_chunks_report_document_lines() {
        // The bad value sits inside the second trace; the reported line
        // must be document-absolute, not chunk-relative.
        let doc = "<log>\n<trace>\n<event><string key=\"concept:name\" value=\"a\"/></event>\n</trace>\n<trace>\n<event>\n<int key=\"k\" value=\"zz\"/>\n<string key=\"concept:name\" value=\"b\"/>\n</event>\n</trace>\n</log>";
        let err = parse_str(doc).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 7"), "got {msg}");
    }

    #[test]
    fn parse_file_rejects_invalid_utf8() {
        // A Latin-1 / corrupted file errors instead of importing with
        // U+FFFD mojibake.
        let dir = std::env::temp_dir().join("gecco-xes-utf8-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("latin1.xes");
        std::fs::write(
            &path,
            b"<log>\n<trace><event><string key=\"concept:name\" value=\"caf\xE9\"/></event></trace></log>",
        )
        .unwrap();
        let err = parse_file(&path).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
