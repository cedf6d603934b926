//! The line protocol between the benchmark and its sample processes, and
//! the result line it prints.
//!
//! A sample process prints one `key value…` line per figure; the parent
//! reads them back into a [`Fields`] map. Floats travel in Rust's
//! shortest round-trip form, so nothing is lost on the way.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parsed `key value…` lines of one sample process.
#[derive(Debug, Default, Clone)]
pub struct Fields(BTreeMap<String, Vec<String>>);

impl Fields {
    pub fn parse(text: &str) -> Self {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let mut words = line.split_whitespace();
            if let Some(key) = words.next() {
                map.insert(key.to_string(), words.map(str::to_string).collect());
            }
        }
        Self(map)
    }

    pub fn f64s(&self, key: &str) -> Option<Vec<f64>> {
        self.0.get(key)?.iter().map(|v| v.parse().ok()).collect()
    }

    pub fn f64(&self, key: &str) -> Option<f64> {
        self.f64s(key)?.first().copied()
    }

    pub fn hex(&self, key: &str) -> Option<u64> {
        crate::digest::parse_hex(self.0.get(key)?.first()?)
    }
}

/// Appends one `key value…` line.
pub fn line(out: &mut String, key: &str, values: impl IntoIterator<Item = impl ToString>) {
    out.push_str(key);
    for v in values {
        out.push(' ');
        out.push_str(&v.to_string());
    }
    out.push('\n');
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`. Values keep every
/// digit; a non-finite value is written as `null` (never produced by a
/// correct run).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}
