//! Ingestion throughput: the seed (pre-chunking) parser vs the live
//! readers, serial and parallel, on a generated multi-MB log.
//!
//! `seed` is a frozen copy of the original char-level, String-allocating
//! XML parser and XES reader (and the line-based CSV importer) as of the
//! pre-pipeline tree — kept here, and only here, as the baseline this
//! rewrite has to beat. For XES, `streaming_serial` / `streaming_rayon`
//! run the live streaming reader (`xes::parse_str`); for CSV,
//! `chunked_serial` / `chunked_rayon` run the live chunked importer; each
//! with the runtime parallelism toggle off / on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gecco_datagen::loan_log;
use gecco_eventlog::{csv, set_parallel, xes};

/// Frozen seed implementation. Do not fix bugs or optimize here — its whole
/// purpose is to measure what the pipeline replaced. (It still contains the
/// class-attribute misfiling bug; the generated benchmark input gives every
/// class at most one attribute, so the measured work is representative.)
mod seed {
    pub mod xml {
        use gecco_eventlog::{Error, Result};

        #[derive(Debug, Clone, PartialEq)]
        pub enum XmlEvent {
            StartElement { name: String, attributes: Vec<(String, String)>, self_closing: bool },
            EndElement { name: String },
            Text(String),
        }

        #[derive(Debug)]
        pub struct XmlParser<'a> {
            input: &'a [u8],
            pos: usize,
            line: usize,
            pending_end: Option<String>,
            open: Vec<String>,
        }

        impl<'a> XmlParser<'a> {
            pub fn new(input: &'a str) -> Self {
                XmlParser {
                    input: input.as_bytes(),
                    pos: 0,
                    line: 1,
                    pending_end: None,
                    open: Vec::new(),
                }
            }

            pub fn line(&self) -> usize {
                self.line
            }

            fn err(&self, message: impl Into<String>) -> Error {
                Error::Xml { line: self.line, message: message.into() }
            }

            #[inline]
            fn peek(&self) -> Option<u8> {
                self.input.get(self.pos).copied()
            }

            #[inline]
            fn bump(&mut self) -> Option<u8> {
                let b = self.peek()?;
                self.pos += 1;
                if b == b'\n' {
                    self.line += 1;
                }
                Some(b)
            }

            fn skip_whitespace(&mut self) {
                while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
                    self.bump();
                }
            }

            fn expect(&mut self, b: u8) -> Result<()> {
                match self.bump() {
                    Some(got) if got == b => Ok(()),
                    Some(got) => {
                        Err(self.err(format!("expected `{}`, found `{}`", b as char, got as char)))
                    }
                    None => Err(self.err(format!("expected `{}`, found end of input", b as char))),
                }
            }

            fn starts_with(&self, s: &[u8]) -> bool {
                self.input[self.pos..].starts_with(s)
            }

            fn advance_over(&mut self, s: &[u8]) {
                for _ in 0..s.len() {
                    self.bump();
                }
            }

            fn skip_until(&mut self, until: &[u8]) -> Result<()> {
                while self.pos < self.input.len() {
                    if self.starts_with(until) {
                        self.advance_over(until);
                        return Ok(());
                    }
                    self.bump();
                }
                Err(self.err(format!(
                    "unterminated construct; expected `{}`",
                    String::from_utf8_lossy(until)
                )))
            }

            fn read_name(&mut self) -> Result<String> {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    let ok = b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'-' | b'.' | b':')
                        || b >= 0x80;
                    if !ok {
                        break;
                    }
                    self.bump();
                }
                if self.pos == start {
                    return Err(self.err("expected a name"));
                }
                Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
            }

            fn decode_entities(&self, raw: &str) -> Result<String> {
                if !raw.contains('&') {
                    return Ok(raw.to_string());
                }
                let mut out = String::with_capacity(raw.len());
                let mut rest = raw;
                while let Some(amp) = rest.find('&') {
                    out.push_str(&rest[..amp]);
                    rest = &rest[amp..];
                    let semi =
                        rest.find(';').ok_or_else(|| self.err("unterminated entity reference"))?;
                    let ent = &rest[1..semi];
                    match ent {
                        "amp" => out.push('&'),
                        "lt" => out.push('<'),
                        "gt" => out.push('>'),
                        "quot" => out.push('"'),
                        "apos" => out.push('\''),
                        _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                            let code = u32::from_str_radix(&ent[2..], 16)
                                .map_err(|_| self.err("bad character reference"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ if ent.starts_with('#') => {
                            let code = ent[1..]
                                .parse::<u32>()
                                .map_err(|_| self.err("bad character reference"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err(format!("unknown entity `&{ent};`"))),
                    }
                    rest = &rest[semi + 1..];
                }
                out.push_str(rest);
                Ok(out)
            }

            fn read_attribute_value(&mut self) -> Result<String> {
                let quote = match self.bump() {
                    Some(q @ (b'"' | b'\'')) => q,
                    _ => return Err(self.err("expected quoted attribute value")),
                };
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == quote {
                        let raw =
                            String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                        self.bump();
                        return self.decode_entities(&raw);
                    }
                    if b == b'<' {
                        return Err(self.err("`<` not allowed in attribute value"));
                    }
                    self.bump();
                }
                Err(self.err("unterminated attribute value"))
            }

            pub fn next_event(&mut self) -> Result<Option<XmlEvent>> {
                if let Some(name) = self.pending_end.take() {
                    return Ok(Some(XmlEvent::EndElement { name }));
                }
                loop {
                    if self.pos >= self.input.len() {
                        if let Some(open) = self.open.last() {
                            return Err(
                                self.err(format!("unexpected end of input; `<{open}>` not closed"))
                            );
                        }
                        return Ok(None);
                    }
                    if self.peek() != Some(b'<') {
                        let start = self.pos;
                        while self.peek().is_some_and(|b| b != b'<') {
                            self.bump();
                        }
                        let raw =
                            String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                        let text = self.decode_entities(&raw)?;
                        if text.chars().all(char::is_whitespace) {
                            continue;
                        }
                        return Ok(Some(XmlEvent::Text(text)));
                    }
                    if self.starts_with(b"<?") {
                        self.skip_until(b"?>")?;
                        continue;
                    }
                    if self.starts_with(b"<!--") {
                        self.skip_until(b"-->")?;
                        continue;
                    }
                    if self.starts_with(b"<![CDATA[") {
                        self.advance_over(b"<![CDATA[");
                        let start = self.pos;
                        while self.pos < self.input.len() && !self.starts_with(b"]]>") {
                            self.bump();
                        }
                        let text =
                            String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                        self.skip_until(b"]]>")?;
                        return Ok(Some(XmlEvent::Text(text)));
                    }
                    if self.starts_with(b"<!") {
                        self.skip_until(b">")?;
                        continue;
                    }
                    if self.starts_with(b"</") {
                        self.advance_over(b"</");
                        let name = self.read_name()?;
                        self.skip_whitespace();
                        self.expect(b'>')?;
                        match self.open.pop() {
                            Some(expected) if expected == name => {}
                            Some(expected) => {
                                return Err(self.err(format!(
                                    "mismatched `</{name}>`; expected `</{expected}>`"
                                )))
                            }
                            None => {
                                return Err(
                                    self.err(format!("closing `</{name}>` with no open element"))
                                )
                            }
                        }
                        return Ok(Some(XmlEvent::EndElement { name }));
                    }
                    self.expect(b'<')?;
                    let name = self.read_name()?;
                    let mut attributes = Vec::new();
                    loop {
                        self.skip_whitespace();
                        match self.peek() {
                            Some(b'>') => {
                                self.bump();
                                self.open.push(name.clone());
                                return Ok(Some(XmlEvent::StartElement {
                                    name,
                                    attributes,
                                    self_closing: false,
                                }));
                            }
                            Some(b'/') => {
                                self.bump();
                                self.expect(b'>')?;
                                self.pending_end = Some(name.clone());
                                return Ok(Some(XmlEvent::StartElement {
                                    name,
                                    attributes,
                                    self_closing: true,
                                }));
                            }
                            Some(_) => {
                                let key = self.read_name()?;
                                self.skip_whitespace();
                                self.expect(b'=')?;
                                self.skip_whitespace();
                                let value = self.read_attribute_value()?;
                                attributes.push((key, value));
                            }
                            None => return Err(self.err("unterminated start tag")),
                        }
                    }
                }
            }
        }
    }

    pub mod reader {
        use super::xml::{XmlEvent, XmlParser};
        use gecco_eventlog::time::parse_iso8601;
        use gecco_eventlog::xes::reader::CLASS_ATTR_KEY;
        use gecco_eventlog::{AttributeValue, Error, EventLog, LogBuilder, Result};

        pub fn parse_str(input: &str) -> Result<EventLog> {
            Reader::new(input).parse()
        }

        struct RawAttr {
            key: String,
            value: RawValue,
        }

        enum RawValue {
            Str(String),
            Int(i64),
            Float(f64),
            Bool(bool),
            Timestamp(i64),
        }

        struct Reader<'a> {
            parser: XmlParser<'a>,
            builder: LogBuilder,
        }

        impl<'a> Reader<'a> {
            fn new(input: &'a str) -> Self {
                Reader { parser: XmlParser::new(input), builder: LogBuilder::new() }
            }

            fn err(&self, message: impl Into<String>) -> Error {
                Error::Xes { line: self.parser.line(), message: message.into() }
            }

            fn parse(mut self) -> Result<EventLog> {
                loop {
                    match self.parser.next_event()? {
                        Some(XmlEvent::StartElement { name, self_closing, .. })
                            if name == "log" =>
                        {
                            if self_closing {
                                return Ok(self.builder.build());
                            }
                            break;
                        }
                        Some(XmlEvent::StartElement { self_closing, .. }) => {
                            if !self_closing {
                                self.skip_subtree()?;
                            }
                        }
                        Some(_) => {}
                        None => return Err(self.err("no <log> element found")),
                    }
                }
                loop {
                    match self.parser.next_event()? {
                        Some(XmlEvent::StartElement { name, attributes, self_closing }) => {
                            match name.as_str() {
                                "trace" => {
                                    if !self_closing {
                                        self.parse_trace()?;
                                    } else {
                                        self.builder.trace_raw().done();
                                    }
                                }
                                "extension" | "global" | "classifier" => {
                                    if !self_closing {
                                        self.skip_subtree()?;
                                    }
                                }
                                _ => {
                                    if let Some(attr) = self.attr_from(&name, &attributes)? {
                                        if attr.key == CLASS_ATTR_KEY {
                                            self.parse_class_attrs(&attr, self_closing)?;
                                        } else {
                                            if !self_closing {
                                                self.skip_subtree()?;
                                            }
                                            let value = self.intern_value(attr.value);
                                            self.builder.log_attr(&attr.key, value);
                                        }
                                    } else if !self_closing {
                                        self.skip_subtree()?;
                                    }
                                }
                            }
                        }
                        Some(XmlEvent::EndElement { name }) if name == "log" => break,
                        Some(XmlEvent::EndElement { .. }) | Some(XmlEvent::Text(_)) => {}
                        None => return Err(self.err("unexpected end of input inside <log>")),
                    }
                }
                Ok(self.builder.build())
            }

            fn parse_trace(&mut self) -> Result<()> {
                struct PendingEvent {
                    class: String,
                    attrs: Vec<RawAttr>,
                }
                let mut trace_attrs: Vec<RawAttr> = Vec::new();
                let mut events: Vec<PendingEvent> = Vec::new();
                loop {
                    match self.parser.next_event()? {
                        Some(XmlEvent::StartElement { name, attributes, self_closing }) => {
                            if name == "event" {
                                let attrs = if self_closing {
                                    Vec::new()
                                } else {
                                    self.parse_event_attrs()?
                                };
                                let class = attrs
                                    .iter()
                                    .find(|a| a.key == "concept:name")
                                    .and_then(|a| match &a.value {
                                        RawValue::Str(s) => Some(s.clone()),
                                        _ => None,
                                    })
                                    .ok_or_else(|| {
                                        self.err("event without string `concept:name`")
                                    })?;
                                events.push(PendingEvent { class, attrs });
                            } else if let Some(attr) = self.attr_from(&name, &attributes)? {
                                if !self_closing {
                                    self.skip_subtree()?;
                                }
                                trace_attrs.push(attr);
                            } else if !self_closing {
                                self.skip_subtree()?;
                            }
                        }
                        Some(XmlEvent::EndElement { name }) if name == "trace" => break,
                        Some(_) => {}
                        None => return Err(self.err("unexpected end of input inside <trace>")),
                    }
                }
                let mut tb = self.builder.trace_raw();
                for a in trace_attrs {
                    let v = match a.value {
                        RawValue::Str(s) => AttributeValue::Str(tb.intern(&s)),
                        RawValue::Int(i) => AttributeValue::Int(i),
                        RawValue::Float(f) => AttributeValue::Float(f),
                        RawValue::Bool(b) => AttributeValue::Bool(b),
                        RawValue::Timestamp(t) => AttributeValue::Timestamp(t),
                    };
                    tb = tb.attr(&a.key, v);
                }
                for ev in events {
                    tb = tb.event_with(&ev.class, |e| {
                        for a in &ev.attrs {
                            match &a.value {
                                RawValue::Str(s) => e.str(&a.key, s),
                                RawValue::Int(i) => e.int(&a.key, *i),
                                RawValue::Float(f) => e.float(&a.key, *f),
                                RawValue::Bool(b) => e.bool(&a.key, *b),
                                RawValue::Timestamp(t) => e.timestamp(&a.key, *t),
                            };
                        }
                    })?;
                }
                tb.done();
                Ok(())
            }

            fn parse_event_attrs(&mut self) -> Result<Vec<RawAttr>> {
                let mut out = Vec::new();
                loop {
                    match self.parser.next_event()? {
                        Some(XmlEvent::StartElement { name, attributes, self_closing }) => {
                            if let Some(attr) = self.attr_from(&name, &attributes)? {
                                out.push(attr);
                            }
                            if !self_closing {
                                self.skip_subtree()?;
                            }
                        }
                        Some(XmlEvent::EndElement { name }) if name == "event" => return Ok(out),
                        Some(_) => {}
                        None => return Err(self.err("unexpected end of input inside <event>")),
                    }
                }
            }

            fn parse_class_attrs(&mut self, outer: &RawAttr, self_closing: bool) -> Result<()> {
                let class = match &outer.value {
                    RawValue::Str(s) => s.clone(),
                    _ => return Err(self.err("gecco:classattr value must be the class name")),
                };
                if self_closing {
                    return Ok(());
                }
                loop {
                    match self.parser.next_event()? {
                        Some(XmlEvent::StartElement { name, attributes, self_closing }) => {
                            if let Some(attr) = self.attr_from(&name, &attributes)? {
                                match &attr.value {
                                    RawValue::Str(s) => {
                                        self.builder.class_attr_str(&class, &attr.key, s)?;
                                    }
                                    _ => {
                                        return Err(
                                            self.err("class-level attributes must be strings")
                                        )
                                    }
                                }
                            }
                            if !self_closing {
                                self.skip_subtree()?;
                            }
                        }
                        Some(XmlEvent::EndElement { .. }) => return Ok(()),
                        Some(_) => {}
                        None => return Err(self.err("unexpected end of input in class attributes")),
                    }
                }
            }

            fn attr_from(
                &self,
                tag: &str,
                attributes: &[(String, String)],
            ) -> Result<Option<RawAttr>> {
                let typed = matches!(tag, "string" | "date" | "int" | "float" | "boolean" | "id");
                if !typed {
                    return Ok(None);
                }
                let key = attributes
                    .iter()
                    .find(|(k, _)| k == "key")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| self.err(format!("<{tag}> without `key`")))?;
                let raw = attributes
                    .iter()
                    .find(|(k, _)| k == "value")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| self.err(format!("<{tag} key=\"{key}\"> without `value`")))?;
                let value = match tag {
                    "string" | "id" => RawValue::Str(raw),
                    "date" => RawValue::Timestamp(parse_iso8601(&raw)?),
                    "int" => RawValue::Int(raw.parse().map_err(|_| self.err("bad int value"))?),
                    "float" => {
                        RawValue::Float(raw.parse().map_err(|_| self.err("bad float value"))?)
                    }
                    "boolean" => match raw.as_str() {
                        "true" | "True" | "TRUE" | "1" => RawValue::Bool(true),
                        "false" | "False" | "FALSE" | "0" => RawValue::Bool(false),
                        _ => return Err(self.err("bad boolean value")),
                    },
                    _ => unreachable!(),
                };
                Ok(Some(RawAttr { key, value }))
            }

            fn skip_subtree(&mut self) -> Result<()> {
                let mut depth = 1usize;
                loop {
                    match self.parser.next_event()? {
                        Some(XmlEvent::StartElement { .. }) => depth += 1,
                        Some(XmlEvent::EndElement { .. }) => {
                            depth -= 1;
                            if depth == 0 {
                                return Ok(());
                            }
                        }
                        Some(XmlEvent::Text(_)) => {}
                        None => {
                            return Err(self.err("unexpected end of input while skipping element"))
                        }
                    }
                }
            }

            fn intern_value(&mut self, raw: RawValue) -> AttributeValue {
                match raw {
                    RawValue::Str(s) => AttributeValue::Str(self.builder.intern(&s)),
                    RawValue::Int(i) => AttributeValue::Int(i),
                    RawValue::Float(f) => AttributeValue::Float(f),
                    RawValue::Bool(b) => AttributeValue::Bool(b),
                    RawValue::Timestamp(t) => AttributeValue::Timestamp(t),
                }
            }
        }
    }

    pub mod csv {
        use gecco_eventlog::csv::CsvOptions;
        use gecco_eventlog::time::parse_iso8601;
        use gecco_eventlog::{Error, EventLog, LogBuilder, Result};

        fn split_record(lines: &[&str], start: usize, delim: char) -> Result<(Vec<String>, usize)> {
            let mut fields = Vec::new();
            let mut field = String::new();
            let mut in_quotes = false;
            let mut li = start;
            let mut chars: Vec<char> = lines[li].chars().collect();
            let mut ci = 0;
            loop {
                if ci >= chars.len() {
                    if in_quotes {
                        li += 1;
                        if li >= lines.len() {
                            return Err(Error::Csv {
                                line: start + 1,
                                message: "unterminated quote".into(),
                            });
                        }
                        field.push('\n');
                        chars = lines[li].chars().collect();
                        ci = 0;
                        continue;
                    }
                    fields.push(std::mem::take(&mut field));
                    return Ok((fields, li - start + 1));
                }
                let c = chars[ci];
                if in_quotes {
                    if c == '"' {
                        if chars.get(ci + 1) == Some(&'"') {
                            field.push('"');
                            ci += 2;
                        } else {
                            in_quotes = false;
                            ci += 1;
                        }
                    } else {
                        field.push(c);
                        ci += 1;
                    }
                } else if c == '"' && field.is_empty() {
                    in_quotes = true;
                    ci += 1;
                } else if c == delim {
                    fields.push(std::mem::take(&mut field));
                    ci += 1;
                } else {
                    field.push(c);
                    ci += 1;
                }
            }
        }

        pub fn read_str(input: &str, options: &CsvOptions) -> Result<EventLog> {
            let lines: Vec<&str> = input.lines().collect();
            if lines.is_empty() {
                return Ok(LogBuilder::new().build());
            }
            let (header, mut row_start) = split_record(&lines, 0, options.delimiter)?;
            let case_idx = header
                .iter()
                .position(|h| *h == options.case_column)
                .ok_or_else(|| Error::Csv { line: 1, message: "missing case column".into() })?;
            let act_idx = header
                .iter()
                .position(|h| *h == options.activity_column)
                .ok_or_else(|| Error::Csv { line: 1, message: "missing activity column".into() })?;
            let mut case_order: Vec<String> = Vec::new();
            let mut rows_by_case: std::collections::HashMap<String, Vec<Vec<String>>> =
                std::collections::HashMap::new();
            while row_start < lines.len() {
                if lines[row_start].trim().is_empty() {
                    row_start += 1;
                    continue;
                }
                let (fields, consumed) = split_record(&lines, row_start, options.delimiter)?;
                if fields.len() != header.len() {
                    return Err(Error::Csv {
                        line: row_start + 1,
                        message: "field count mismatch".into(),
                    });
                }
                let case = fields[case_idx].clone();
                if !rows_by_case.contains_key(&case) {
                    case_order.push(case.clone());
                }
                rows_by_case.entry(case).or_default().push(fields);
                row_start += consumed;
            }
            let mut builder = LogBuilder::new();
            for case in case_order {
                let rows = rows_by_case.remove(&case).expect("case registered above");
                let mut tb = builder.trace(&case);
                for row in rows {
                    let class = row[act_idx].clone();
                    tb = tb.event_with(&class, |e| {
                        for (i, value) in row.iter().enumerate() {
                            if i == case_idx || i == act_idx {
                                continue;
                            }
                            let key = &header[i];
                            if value.is_empty() {
                                continue;
                            }
                            if let Ok(ts) = parse_iso8601(value) {
                                e.timestamp(key, ts);
                            } else if let Ok(i64v) = value.parse::<i64>() {
                                e.int(key, i64v);
                            } else if let Ok(f64v) = value.parse::<f64>() {
                                e.float(key, f64v);
                            } else if value == "true" || value == "false" {
                                e.bool(key, value == "true");
                            } else {
                                e.str(key, value);
                            }
                        }
                    })?;
                }
                tb.done();
            }
            Ok(builder.build())
        }
    }
}

fn bench_parse(c: &mut Criterion) {
    // ~1000 loan traces serialize to a multi-MB XES document.
    let log = loan_log(1000, 1);
    let text = xes::write_string(&log);
    let mb = text.len() as f64 / 1e6;

    // Cross-check once: seed and live reader agree on the parsed structure.
    let seed_parsed = seed::reader::parse_str(&text).expect("seed parser accepts the input");
    let live_parsed = xes::parse_str(&text).expect("pipeline accepts the input");
    assert_eq!(seed_parsed.num_events(), live_parsed.num_events());
    assert_eq!(seed_parsed.traces().len(), live_parsed.traces().len());

    let mut group = c.benchmark_group(format!("xes_parse_{mb:.1}MB"));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_with_input("seed", &text, |b, text| {
        b.iter(|| seed::reader::parse_str(text).expect("valid"));
    });
    set_parallel(false);
    group.bench_with_input("streaming_serial", &text, |b, text| {
        b.iter(|| xes::parse_str(text).expect("valid"));
    });
    set_parallel(true);
    group.bench_with_input("streaming_rayon", &text, |b, text| {
        b.iter(|| xes::parse_str(text).expect("valid"));
    });
    set_parallel(true);
    group.finish();
}

fn bench_csv(c: &mut Criterion) {
    let log = loan_log(1000, 1);
    let text = csv::write_string(&log);
    let mb = text.len() as f64 / 1e6;
    let options = csv::CsvOptions::default();

    let seed_parsed = seed::csv::read_str(&text, &options).expect("seed importer accepts");
    let live_parsed = csv::read_str(&text, &options).expect("pipeline accepts");
    assert_eq!(seed_parsed.num_events(), live_parsed.num_events());

    let mut group = c.benchmark_group(format!("csv_read_{mb:.1}MB"));
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_with_input("seed", &text, |b, text| {
        b.iter(|| seed::csv::read_str(text, &options).expect("valid"));
    });
    set_parallel(false);
    group.bench_with_input("chunked_serial", &text, |b, text| {
        b.iter(|| csv::read_str(text, &options).expect("valid"));
    });
    set_parallel(true);
    group.bench_with_input("chunked_rayon", &text, |b, text| {
        b.iter(|| csv::read_str(text, &options).expect("valid"));
    });
    set_parallel(true);
    group.finish();
}

criterion_group!(benches, bench_parse, bench_csv);
criterion_main!(benches);
