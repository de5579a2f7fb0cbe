//! Plain-text serialization of choice maps and weighted collections.
//!
//! Inference results need to outlive a process: saved posterior samples
//! of `P` are exactly the input that incremental inference consumes later
//! ("samples of P obtained using an existing inference algorithm").
//! The format stores *values by address*; distributions and scores are
//! reconstructed by replaying the model
//! ([`crate::handlers::score`]), which also re-validates the samples
//! against the (possibly changed) program.
//!
//! Format, one binding per line, `#` comments ignored:
//!
//! ```text
//! # incremental-ppl choices v1
//! "slope" = r:-0.8966
//! "y"/3 = b:true
//! "xs" = a:[i:1, i:2]
//! ```
//!
//! Symbols are quoted with backslash escapes; integer components are
//! bare. Reals use Rust's shortest round-tripping representation.

use std::fmt::Write as _;
use std::ops::Range;

use crate::address::{Address, Component};
use crate::error::PplError;
use crate::fxhash::FxHashMap;
use crate::trace::ChoiceMap;
use crate::value::Value;

/// Serializes a value.
fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Bool(b) => {
            let _ = write!(out, "b:{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "i:{i}");
        }
        Value::Real(r) => {
            let _ = write!(out, "r:{r:?}");
        }
        Value::Array(items) => {
            out.push_str("a:[");
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, v);
            }
            out.push(']');
        }
    }
}

fn write_component(out: &mut String, component: &Component) {
    match component {
        Component::Sym(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    other => out.push(other),
                }
            }
            out.push('"');
        }
        Component::Idx(i) => {
            let _ = write!(out, "{i}");
        }
    }
}

/// Serializes an address.
pub fn write_address(addr: &Address) -> String {
    let mut out = String::new();
    push_address(&mut out, addr);
    out
}

/// Appends the serialized address to `out`.
fn push_address(out: &mut String, addr: &Address) {
    for (i, c) in addr.components().iter().enumerate() {
        if i > 0 {
            out.push('/');
        }
        write_component(out, c);
    }
}

/// Appends one `addr = value` line per binding of `map`, in address
/// order: the body of a choice-map block.
pub fn write_bindings(out: &mut String, map: &ChoiceMap) {
    for (addr, value) in map.iter() {
        push_address(out, addr);
        out.push_str(" = ");
        write_value(out, value);
        out.push('\n');
    }
}

/// Serializes a choice map to the line format.
pub fn write_choice_map(map: &ChoiceMap) -> String {
    let mut out = String::from("# incremental-ppl choices v1\n");
    write_bindings(&mut out, map);
    out
}

/// Serializes a weighted collection of choice maps: blocks separated by
/// `weight <log-weight>` headers.
pub fn write_weighted_collection(entries: &[(ChoiceMap, f64)]) -> String {
    let mut out = String::new();
    write_weighted_entries(&mut out, entries.iter().map(|(map, w)| (map, *w)));
    out
}

/// Appends the text [`write_weighted_collection`] gives for `entries` to
/// `out`. An entry whose map is the same `&ChoiceMap` as an earlier
/// entry's, as clones of one `Arc<ChoiceMap>` are, copies that entry's
/// binding lines instead of rendering the map again.
pub fn write_weighted_entries<'a>(
    out: &mut String,
    entries: impl IntoIterator<Item = (&'a ChoiceMap, f64)>,
) {
    out.push_str("# incremental-ppl collection v1\n");
    let mut written: FxHashMap<*const ChoiceMap, Range<usize>> = FxHashMap::default();
    for (map, log_weight) in entries {
        let _ = writeln!(out, "weight {log_weight:?}");
        let key: *const ChoiceMap = map;
        match written.get(&key) {
            Some(bindings) => out.extend_from_within(bindings.clone()),
            None => {
                let start = out.len();
                write_bindings(out, map);
                written.insert(key, start..out.len());
            }
        }
    }
}

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn error(&self, msg: &str) -> PplError {
        PplError::Other(format!("trace parse error at line {}: {msg}", self.line))
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_spaces(&mut self) {
        while self.rest().starts_with(' ') {
            self.bump(1);
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), PplError> {
        if self.rest().starts_with(token) {
            self.bump(token.len());
            Ok(())
        } else {
            Err(self.error(&format!("expected `{token}`")))
        }
    }

    fn parse_component(&mut self) -> Result<Component, PplError> {
        if self.rest().starts_with('"') {
            self.bump(1);
            let mut sym = String::new();
            loop {
                let mut chars = self.rest().chars();
                match chars.next() {
                    None => return Err(self.error("unterminated symbol")),
                    Some('"') => {
                        self.bump(1);
                        return Ok(Component::from(sym.as_str()));
                    }
                    Some('\\') => {
                        let escaped = chars.next().ok_or_else(|| self.error("dangling escape"))?;
                        sym.push(match escaped {
                            'n' => '\n',
                            other => other,
                        });
                        self.bump(1 + escaped.len_utf8());
                    }
                    Some(c) => {
                        sym.push(c);
                        self.bump(c.len_utf8());
                    }
                }
            }
        } else {
            let end = self
                .rest()
                .find(|c: char| !(c.is_ascii_digit() || c == '-'))
                .unwrap_or(self.rest().len());
            let text = &self.rest()[..end];
            let i: i64 = text
                .parse()
                .map_err(|_| self.error(&format!("bad index `{text}`")))?;
            self.bump(end);
            Ok(Component::from(i))
        }
    }

    fn parse_address(&mut self) -> Result<Address, PplError> {
        let mut components = vec![self.parse_component()?];
        while self.rest().starts_with('/') {
            self.bump(1);
            components.push(self.parse_component()?);
        }
        Ok(Address::new(components))
    }

    fn parse_value(&mut self) -> Result<Value, PplError> {
        let rest = self.rest();
        if let Some(stripped) = rest.strip_prefix("b:") {
            self.bump(2);
            if stripped.starts_with("true") {
                self.bump(4);
                Ok(Value::Bool(true))
            } else if stripped.starts_with("false") {
                self.bump(5);
                Ok(Value::Bool(false))
            } else {
                Err(self.error("bad boolean"))
            }
        } else if rest.starts_with("i:") {
            self.bump(2);
            let end = self
                .rest()
                .find(|c: char| !(c.is_ascii_digit() || c == '-'))
                .unwrap_or(self.rest().len());
            let text = &self.rest()[..end];
            let i: i64 = text
                .parse()
                .map_err(|_| self.error(&format!("bad int `{text}`")))?;
            self.bump(end);
            Ok(Value::Int(i))
        } else if rest.starts_with("r:") {
            self.bump(2);
            let end = self
                .rest()
                .find([',', ']', '\n'])
                .unwrap_or(self.rest().len());
            let text = self.rest()[..end].trim();
            let r: f64 = text
                .parse()
                .map_err(|_| self.error(&format!("bad real `{text}`")))?;
            self.bump(end);
            Ok(Value::Real(r))
        } else if rest.starts_with("a:[") {
            self.bump(3);
            let mut items = Vec::new();
            self.skip_spaces();
            if self.rest().starts_with(']') {
                self.bump(1);
                return Ok(Value::array(items));
            }
            loop {
                items.push(self.parse_value()?);
                self.skip_spaces();
                if self.rest().starts_with(',') {
                    self.bump(1);
                    self.skip_spaces();
                } else {
                    self.expect("]")?;
                    return Ok(Value::array(items));
                }
            }
        } else {
            Err(self.error("expected a tagged value (b:/i:/r:/a:[)"))
        }
    }
}

/// Parses a single `addr = value` binding line.
fn parse_binding(line: &str, line_no: usize) -> Result<(Address, Value), PplError> {
    let mut cursor = Cursor {
        text: line,
        pos: 0,
        line: line_no,
    };
    let addr = cursor.parse_address()?;
    cursor.skip_spaces();
    cursor.expect("=")?;
    cursor.skip_spaces();
    let value = cursor.parse_value()?;
    cursor.skip_spaces();
    if !cursor.rest().is_empty() {
        return Err(cursor.error("trailing garbage"));
    }
    Ok((addr, value))
}

/// Parses a choice map from the line format.
///
/// # Errors
///
/// Returns [`PplError::Other`] with line information on malformed input.
pub fn parse_choice_map(text: &str) -> Result<ChoiceMap, PplError> {
    let mut map = ChoiceMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (addr, value) = parse_binding(line, i + 1)?;
        map.insert(addr, value);
    }
    Ok(map)
}

/// Parses a weighted collection (inverse of
/// [`write_weighted_collection`]).
///
/// # Errors
///
/// Returns [`PplError::Other`] on malformed input.
pub fn parse_weighted_collection(text: &str) -> Result<Vec<(ChoiceMap, f64)>, PplError> {
    let mut entries: Vec<(ChoiceMap, f64)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(w) = line.strip_prefix("weight ") {
            let log_weight: f64 = w.trim().parse().map_err(|_| {
                PplError::Other(format!("trace parse error at line {}: bad weight", i + 1))
            })?;
            entries.push((ChoiceMap::new(), log_weight));
        } else {
            let (addr, value) = parse_binding(line, i + 1)?;
            let entry = entries.last_mut().ok_or_else(|| {
                PplError::Other(format!(
                    "trace parse error at line {}: binding before any `weight` header",
                    i + 1
                ))
            })?;
            entry.0.insert(addr, value);
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr;

    fn sample_map() -> ChoiceMap {
        let mut m = ChoiceMap::new();
        m.insert(addr!["slope"], Value::Real(-0.896_612_3));
        m.insert(addr!["y", 3], Value::Bool(true));
        m.insert(addr!["n"], Value::Int(-42));
        m.insert(
            addr!["xs"],
            Value::array(vec![Value::Int(1), Value::Real(2.5), Value::Bool(false)]),
        );
        m.insert(addr!["weird \"label\"", -7], Value::Int(0));
        m
    }

    #[test]
    fn choice_map_round_trips() {
        let m = sample_map();
        let text = write_choice_map(&m);
        let parsed = parse_choice_map(&text).unwrap();
        assert_eq!(m, parsed);
    }

    #[test]
    fn reals_round_trip_exactly() {
        let mut m = ChoiceMap::new();
        for (i, r) in [f64::MIN_POSITIVE, 1.0 / 3.0, -1e300, 0.1 + 0.2]
            .iter()
            .enumerate()
        {
            m.insert(addr!["r", i as i64], Value::Real(*r));
        }
        let parsed = parse_choice_map(&write_choice_map(&m)).unwrap();
        assert_eq!(m, parsed);
    }

    #[test]
    fn weighted_collection_round_trips() {
        let entries = vec![
            (sample_map(), -1.25),
            (ChoiceMap::new(), 0.0),
            (sample_map(), f64::NEG_INFINITY),
        ];
        let text = write_weighted_collection(&entries);
        let parsed = parse_weighted_collection(&text).unwrap();
        assert_eq!(entries.len(), parsed.len());
        for ((m1, w1), (m2, w2)) in entries.iter().zip(&parsed) {
            assert_eq!(m1, m2);
            assert!(w1 == w2 || (w1.is_infinite() && w2.is_infinite()));
        }
    }

    #[test]
    fn a_repeated_map_is_written_like_a_copy() {
        let (a, b) = (sample_map(), ChoiceMap::new());
        let mut shared = String::new();
        write_weighted_entries(&mut shared, [(&a, -1.0), (&b, 0.5), (&a, 2.0), (&a, -0.0)]);
        let copies = [(a.clone(), -1.0), (b, 0.5), (a.clone(), 2.0), (a, -0.0)];
        assert_eq!(shared, write_weighted_collection(&copies));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\n\"x\" = i:1\n  # trailing comment\n";
        let m = parse_choice_map(text).unwrap();
        assert_eq!(m.get(&addr!["x"]), Some(&Value::Int(1)));
    }

    #[test]
    fn malformed_inputs_error_with_line_numbers() {
        for bad in [
            "\"x\" i:1",            // missing =
            "\"x\" = q:1",          // bad tag
            "\"x\" = i:1 extra",    // trailing garbage
            "\"unterminated = i:1", // unterminated symbol
            "\"x\" = a:[i:1",       // unterminated array
        ] {
            let err = parse_choice_map(bad).unwrap_err();
            assert!(err.to_string().contains("line 1"), "{bad}: {err}");
        }
        let err = parse_weighted_collection("\"x\" = i:1").unwrap_err();
        assert!(err.to_string().contains("weight"), "{err}");
    }

    #[test]
    fn saved_samples_replay_through_a_model() {
        use crate::dist::Dist;
        use crate::handlers::{score, simulate};
        use crate::Handler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let model = |h: &mut dyn Handler| {
            let x = h.sample(addr!["x"], Dist::flip(0.5))?;
            let y = h.sample(addr!["y"], Dist::normal(0.0, 1.0))?;
            let _ = y;
            Ok(x)
        };
        let mut rng = StdRng::seed_from_u64(1);
        let t = simulate(&model, &mut rng).unwrap();
        let text = write_choice_map(&t.to_choice_map());
        let loaded = parse_choice_map(&text).unwrap();
        let replayed = score(&model, &loaded).unwrap();
        assert!((replayed.score().log() - t.score().log()).abs() < 1e-12);
    }
}
