//! Content digests: the equality checks between routes and runs compare
//! these, so they fold in everything the event model observes.

use gecco_eventlog::{AttributeValue, EventLog};

/// 64-bit FNV-1a over structured fields written as little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    fn value(&mut self, v: &AttributeValue) {
        let (tag, bits) = match v {
            AttributeValue::Str(s) => (0, u64::from(s.0)),
            AttributeValue::Int(i) => (1, *i as u64),
            AttributeValue::Float(f) => (2, f.to_bits()),
            AttributeValue::Bool(b) => (3, u64::from(*b)),
            AttributeValue::Timestamp(t) => (4, *t as u64),
        };
        self.u64(tag);
        self.u64(bits);
    }

    /// Folds in the whole log: interned strings with their symbol numbers,
    /// the class registry, log attributes and every trace.
    pub fn log(&mut self, log: &EventLog) {
        for (sym, s) in log.interner().iter() {
            self.u64(u64::from(sym.0));
            self.str(s);
        }
        for id in log.classes().ids() {
            let info = log.classes().info(id);
            self.u64(u64::from(info.name.0));
            self.u64(info.attributes.len() as u64);
            for (k, v) in &info.attributes {
                self.u64(u64::from(k.0));
                self.value(v);
            }
        }
        self.u64(log.attributes().len() as u64);
        for (k, v) in log.attributes() {
            self.u64(u64::from(k.0));
            self.value(v);
        }
        self.u64(log.traces().len() as u64);
        for trace in log.traces() {
            self.u64(trace.attributes().len() as u64);
            for (k, v) in trace.attributes() {
                self.u64(u64::from(k.0));
                self.value(v);
            }
            self.u64(trace.events().len() as u64);
            for event in trace.events() {
                self.u64(event.class().index() as u64);
                self.u64(event.attributes().len() as u64);
                for (k, v) in event.attributes() {
                    self.u64(u64::from(k.0));
                    self.value(v);
                }
            }
        }
    }
}

/// Digest of one log.
pub fn log_digest(log: &EventLog) -> u64 {
    let mut h = Fnv::default();
    h.log(log);
    h.finish()
}
