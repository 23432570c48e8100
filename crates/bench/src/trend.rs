//! Benchmark-trend machinery: a dependency-free JSON value model (the
//! workspace builds offline, so no `serde`) plus direction-aware
//! comparison of two `BENCH_headline.json` snapshots.
//!
//! The `headline` binary writes its report with [`Json`]; the
//! `bench_trend` binary (the CI regression gate) reads two of them and
//! runs [`compare`].
//!
//! ## Comparison semantics
//!
//! Every numeric leaf whose key matches a known metric is compared with a
//! *direction* (is bigger better?) and a *noise class*:
//!
//! * **stable** metrics (accuracy ratios, relative errors, disk reads and
//!   accesses, memory words, probe counts) are deterministic given the
//!   code and seeds — they gate at the tight threshold;
//! * **timing** metrics (`*ns_per_*` CPU costs) vary with the machine —
//!   they gate at the loose threshold, so a CI runner differing from the
//!   machine that produced the committed baseline doesn't fail
//!   spuriously, while large genuine regressions still do.
//!
//! Config fields (`steps`, `kappa`, ...) are not gated. Anything the
//! baseline holds that the fresh run lacks — a field, an array row, or a
//! value whose type changed — is *missing*, and a missing entry fails
//! the gate like a regression: a gated metric cannot vanish silently.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert or replace an object field (no-op on non-objects).
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(fields) = self {
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key.to_string(), value)),
            }
        }
    }

    /// Render with 2-space indentation (stable field order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    v.render_into(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push('"');
                    out.push_str(k);
                    out.push_str("\": ");
                    v.render_into(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{s}' at offset {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

/// Whether a bigger value of a metric is better or worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (accuracy ratio, hit rates).
    HigherBetter,
    /// Smaller is better (error, I/O, CPU cost, memory).
    LowerBetter,
    /// Not a gated metric (configuration fields, ids).
    Ignore,
}

/// Metric classification: direction plus whether the value is wall-clock
/// noisy (machine-dependent) or deterministic given code and seeds.
pub fn classify(leaf: &str) -> (Direction, bool) {
    let l = leaf.to_ascii_lowercase();
    if l.contains("accuracy_ratio") || l.contains("hit_rate") {
        return (Direction::HigherBetter, false);
    }
    if [
        "rel_err",
        "disk_reads",
        "disk_accesses",
        "memory_words",
        "steady_state",
        "probes",
        "probe_rounds",
        "round_trips",
        "extra_width",
        "builds",
    ]
    .iter()
    .any(|k| l.contains(k))
    {
        return (Direction::LowerBetter, false);
    }
    if l.contains("ns_per_") {
        return (Direction::LowerBetter, true);
    }
    (Direction::Ignore, false)
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Dotted path of the metric (array elements keyed by `dataset` /
    /// `kappa` / `name` when present).
    pub path: String,
    /// Baseline value.
    pub base: f64,
    /// Fresh value.
    pub fresh: f64,
    /// Fractional change in the *worse* direction (negative = improved).
    pub regression: f64,
    /// Machine-dependent metric (gated at the loose threshold).
    pub noisy: bool,
    /// Whether the gate threshold was exceeded.
    pub failed: bool,
}

/// Thresholds for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Max allowed regression for deterministic metrics (fraction).
    pub stable: f64,
    /// Max allowed regression for wall-clock metrics (fraction).
    pub timing: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        // The tight gate is the repo's 25% headline contract; wall-clock
        // metrics get slack for runner variance but still fail on large
        // regressions.
        Thresholds {
            stable: 0.25,
            timing: 0.75,
        }
    }
}

/// The outcome of [`compare`].
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every gated metric present on both sides.
    pub deltas: Vec<MetricDelta>,
    /// Baseline entries the fresh run lacks or holds with another type,
    /// one line each.
    pub missing: Vec<String>,
}

impl Report {
    /// The gate passes when no metric regressed past its threshold and
    /// nothing in the baseline is missing from the fresh run.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.deltas.iter().all(|d| !d.failed)
    }
}

/// Compare two headline snapshots.
pub fn compare(base: &Json, fresh: &Json, t: Thresholds) -> Report {
    let mut report = Report::default();
    walk(base, fresh, String::new(), t, &mut report);
    report
}

/// Identity key of an array element, used to match elements across the
/// two files independent of ordering.
fn element_key(v: &Json) -> Option<String> {
    for id in ["dataset", "kappa", "name"] {
        if let Some(k) = v.get(id) {
            match k {
                Json::Str(s) => return Some(format!("{id}={s}")),
                Json::Num(n) => return Some(format!("{id}={n}")),
                _ => {}
            }
        }
    }
    None
}

fn walk(base: &Json, fresh: &Json, path: String, t: Thresholds, report: &mut Report) {
    match (base, fresh) {
        (Json::Obj(fields), Json::Obj(_)) => {
            for (k, bv) in fields {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match fresh.get(k) {
                    Some(fv) => walk(bv, fv, sub, t, report),
                    None => report
                        .missing
                        .push(format!("{sub}: missing from fresh run")),
                }
            }
        }
        (Json::Arr(bitems), Json::Arr(fitems)) => {
            for (i, bv) in bitems.iter().enumerate() {
                let (fv, label) = match element_key(bv) {
                    Some(key) => (
                        fitems
                            .iter()
                            .find(|f| element_key(f).as_deref() == Some(&key)),
                        format!("{path}[{key}]"),
                    ),
                    None => (fitems.get(i), format!("{path}[{i}]")),
                };
                match fv {
                    Some(fv) => walk(bv, fv, label, t, report),
                    None => report
                        .missing
                        .push(format!("{label}: missing from fresh run")),
                }
            }
        }
        (Json::Num(b), Json::Num(f)) => {
            let leaf = path.rsplit('.').next().unwrap_or(&path);
            let (dir, noisy) = classify(leaf);
            if dir == Direction::Ignore {
                return;
            }
            let regression = if *b == 0.0 {
                if *f == 0.0 {
                    0.0
                } else {
                    match dir {
                        Direction::LowerBetter => 1.0, // something appeared where zero was
                        _ => -1.0,
                    }
                }
            } else {
                match dir {
                    Direction::HigherBetter => (b - f) / b.abs(),
                    Direction::LowerBetter => (f - b) / b.abs(),
                    Direction::Ignore => unreachable!(),
                }
            };
            let threshold = if noisy { t.timing } else { t.stable };
            report.deltas.push(MetricDelta {
                path,
                base: *b,
                fresh: *f,
                regression,
                noisy,
                failed: regression > threshold,
            });
        }
        (b, f) if std::mem::discriminant(b) != std::mem::discriminant(f) => report
            .missing
            .push(format!("{path}: fresh value has another type")),
        _ => {}
    }
}

/// Render the comparison as an aligned table for job logs.
pub fn render_table(deltas: &[MetricDelta]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<58} {:>14} {:>14} {:>9}  {}\n",
        "metric", "baseline", "fresh", "change", "status"
    ));
    out.push_str(&"-".repeat(110));
    out.push('\n');
    for d in deltas {
        let change = 0.0 - d.regression * 100.0; // positive = improved, never -0.0
        let status = if d.failed {
            "REGRESSED"
        } else if d.regression < -0.02 {
            "improved"
        } else {
            "ok"
        };
        let noise = if d.noisy { " (timing)" } else { "" };
        out.push_str(&format!(
            "{:<58} {:>14.6} {:>14.6} {:>+8.1}%  {status}{noise}\n",
            d.path, d.base, d.fresh, change
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "bench": "headline", "steps": 100,
      "datasets": [
        {"dataset": "Normal", "accurate_rel_err": 1.0e-5, "disk_reads_per_query": 70.0,
         "accuracy_ratio": 300.0, "memory_words": 3500}
      ],
      "ingest": {"merge_ns_per_item": 20.0}
    }"#;

    /// `base` with `section.key` set to `value`.
    fn with(base: &Json, section: &str, key: &str, value: f64) -> Json {
        let mut out = base.clone();
        let mut s = base.get(section).unwrap().clone();
        s.set(key, Json::Num(value));
        out.set(section, s);
        out
    }

    #[test]
    fn parse_render_roundtrip() {
        let v = Json::parse(SAMPLE).unwrap();
        let rendered = v.render();
        let v2 = Json::parse(&rendered).unwrap();
        assert_eq!(v, v2);
        assert_eq!(v.get("datasets").unwrap(), v2.get("datasets").unwrap());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse(r#"{"a": nope}"#).is_err());
    }

    #[test]
    fn set_replaces_and_appends() {
        let mut v = Json::parse(r#"{"a": 1}"#).unwrap();
        v.set("a", Json::Num(2.0));
        v.set("b", Json::Str("x".into()));
        assert_eq!(v.get("a"), Some(&Json::Num(2.0)));
        assert_eq!(v.get("b"), Some(&Json::Str("x".into())));
    }

    #[test]
    fn weighted_metrics_classify() {
        // The weighted error ratio and the sketch A/B fields are
        // deterministic and gate at the tight stable threshold.
        assert_eq!(
            classify("weighted_max_rel_err"),
            (Direction::LowerBetter, false)
        );
        assert_eq!(classify("max_rel_err"), (Direction::LowerBetter, false));
        assert_eq!(classify("memory_words"), (Direction::LowerBetter, false));
    }

    #[test]
    fn per_item_cost_metrics_classify() {
        // `ingest.merge_ns_per_item`: a wall-clock cost, lower is better,
        // gated at the loose timing threshold.
        assert_eq!(
            classify("merge_ns_per_item"),
            (Direction::LowerBetter, true)
        );
    }

    #[test]
    fn kappa_tradeoff_metrics_classify() {
        // `paper.kappa` rows: both sides of the trade-off are block
        // counts, deterministic and lower-better.
        assert_eq!(
            classify("update_disk_accesses_per_step"),
            (Direction::LowerBetter, false)
        );
        assert_eq!(
            classify("disk_reads_per_query"),
            (Direction::LowerBetter, false)
        );
        assert_eq!(classify("kappa").0, Direction::Ignore);
    }

    #[test]
    fn identical_snapshots_pass() {
        let v = Json::parse(SAMPLE).unwrap();
        let report = compare(&v, &v, Thresholds::default());
        assert!(report.passed());
        assert!(report.missing.is_empty());
        assert!(!report.deltas.is_empty());
        // Config fields are not gated.
        assert!(report.deltas.iter().all(|d| !d.path.contains("steps")));
    }

    #[test]
    fn direction_aware_regressions() {
        let base = Json::parse(SAMPLE).unwrap();
        // Accuracy ratio collapses (higher-better, stable): must fail.
        let mut worse = base.clone();
        let Some(Json::Arr(mut items)) = base.get("datasets").cloned() else {
            unreachable!()
        };
        items[0].set("accuracy_ratio", Json::Num(100.0));
        worse.set("datasets", Json::Arr(items));
        let report = compare(&base, &worse, Thresholds::default());
        let d = report
            .deltas
            .iter()
            .find(|d| d.path.contains("accuracy_ratio"))
            .unwrap();
        assert!(d.failed, "66% accuracy drop must gate: {d:?}");
        assert!(!report.passed());

        // A 30% slower merge is within the loose timing threshold...
        let slower = with(&base, "ingest", "merge_ns_per_item", 26.0);
        let report = compare(&base, &slower, Thresholds::default());
        let d = report
            .deltas
            .iter()
            .find(|d| d.path.contains("merge_ns_per_item"))
            .unwrap();
        assert!(!d.failed, "timing metrics gate loosely: {d:?}");
        assert!(report.passed());

        // ...but a 2x slower one is not.
        let broken = with(&base, "ingest", "merge_ns_per_item", 40.0);
        assert!(!compare(&base, &broken, Thresholds::default()).passed());
    }

    #[test]
    fn retention_metrics_gate_as_stable() {
        // steady_state_bytes is deterministic: a growth past the tight
        // threshold must gate; the config-like byte_cap field must not.
        let base = Json::parse(
            r#"{"retention": {"byte_cap": 262144, "steady_state_bytes": 200000,
                 "window_disk_reads_per_query": 5.0}}"#,
        )
        .unwrap();
        let (dir, noisy) = classify("steady_state_bytes");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        assert_eq!(classify("byte_cap").0, Direction::Ignore);

        let worse = with(&base, "retention", "steady_state_bytes", 300_000.0);
        let report = compare(&base, &worse, Thresholds::default());
        let d = report
            .deltas
            .iter()
            .find(|d| d.path.contains("steady_state_bytes"))
            .unwrap();
        assert!(d.failed, "50% storage growth must gate: {d:?}");
        assert!(report.deltas.iter().all(|d| !d.path.contains("byte_cap")));
    }

    #[test]
    fn query_metrics_gate_probes_stable_and_build_cost_loose() {
        // Bisection probe counts are deterministic given code and seeds:
        // stable lower-better gate. The per-entry build cost stays loose.
        let (dir, noisy) = classify("summary_p50_probes");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        let (dir, noisy) = classify("domain_p99_probes");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        let (dir, noisy) = classify("combined_build_ns_per_entry");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(noisy);

        let base = Json::parse(
            r#"{"query": {"summary_p50_probes": 5.0, "domain_p50_probes": 33.0,
                 "combined_build_ns_per_entry": 25.0}}"#,
        )
        .unwrap();
        // Probe regression past the tight threshold gates.
        let worse = with(&base, "query", "summary_p50_probes", 9.0);
        let report = compare(&base, &worse, Thresholds::default());
        assert!(
            report
                .deltas
                .iter()
                .any(|d| d.path.contains("summary_p50_probes") && d.failed),
            "80% more probes must gate: {report:?}"
        );
        // A slower combined-summary build within the loose threshold passes.
        let slower = with(&base, "query", "combined_build_ns_per_entry", 35.0);
        let report = compare(&base, &slower, Thresholds::default());
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn crc_cost_is_a_timing_gate() {
        // ns per KiB of block checksum: a wall-clock cost, lower is better,
        // gated at the timing threshold CI passes (200%).
        let (dir, noisy) = classify("crc64_ns_per_kib");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(noisy);
        let ci = Thresholds {
            stable: 0.25,
            timing: 2.0,
        };
        let base = Json::parse(r#"{"storage": {"crc64_ns_per_kib": 90.0}}"#).unwrap();
        // A slower machine within 3x passes...
        let slower = with(&base, "storage", "crc64_ns_per_kib", 250.0);
        assert!(compare(&base, &slower, ci).passed());
        // ...but 3.5x fails, and a return to the table kernel is ≈ 7x.
        let table = with(&base, "storage", "crc64_ns_per_kib", 315.0);
        let report = compare(&base, &table, ci);
        assert!(
            report
                .deltas
                .iter()
                .any(|d| d.path == "storage.crc64_ns_per_kib" && d.failed),
            "a 3.5x checksum cost must gate: {report:?}"
        );
    }

    #[test]
    fn stream_extract_cost_is_a_timing_gate() {
        // ns per GK tuple of one summary extract: a wall-clock cost, lower
        // is better, gated at the timing threshold CI passes (200%).
        let (dir, noisy) = classify("stream_extract_ns_per_tuple");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(noisy);
        let ci = Thresholds {
            stable: 0.25,
            timing: 2.0,
        };
        let base = Json::parse(r#"{"query": {"stream_extract_ns_per_tuple": 10.0}}"#).unwrap();
        // A slower machine within 3x passes...
        let slower = with(&base, "query", "stream_extract_ns_per_tuple", 25.0);
        assert!(compare(&base, &slower, ci).passed());
        // ...but a return to one tuple-list scan per target (≈ 14x) gates.
        let rescanning = with(&base, "query", "stream_extract_ns_per_tuple", 140.0);
        let report = compare(&base, &rescanning, ci);
        assert!(
            report
                .deltas
                .iter()
                .any(|d| d.path.contains("stream_extract_ns_per_tuple") && d.failed),
            "per-target extract cost must gate: {report:?}"
        );
    }

    #[test]
    fn service_metrics_gate_rounds_stable() {
        // Probe rounds and wire round-trips per served query are
        // deterministic given code and seeds: tight gate.
        let (dir, noisy) = classify("served_p50_probe_rounds");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        let (dir, noisy) = classify("round_trips_per_query");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);

        let base = Json::parse(
            r#"{"service": {"nodes": 1, "served_p50_probe_rounds": 3.0,
                 "round_trips_per_query": 3.0, "repeated_round_trips_per_query": 0}}"#,
        )
        .unwrap();
        // Repeated ranks are free: any round trip appearing there gates.
        let worse = with(&base, "service", "repeated_round_trips_per_query", 0.1);
        assert!(!compare(&base, &worse, Thresholds::default()).passed());
        let worse = with(&base, "service", "served_p50_probe_rounds", 5.0);
        let report = compare(&base, &worse, Thresholds::default());
        assert!(
            report
                .deltas
                .iter()
                .any(|d| d.path.contains("served_p50_probe_rounds") && d.failed),
            "probe-round regression must gate: {report:?}"
        );
    }

    #[test]
    fn failover_width_gates_stable() {
        // The degraded extra width is deterministic — it is exactly the
        // lost group's weight fraction — so it gates tight.
        let (dir, noisy) = classify("degraded_extra_width_frac");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        assert_eq!(classify("replicas").0, Direction::Ignore);

        let base = Json::parse(
            r#"{"service": {"failover": {"groups": 2, "replicas": 2,
                 "degraded_extra_width_frac": 0.5}}}"#,
        )
        .unwrap();
        // Widening growing past the tight threshold gates (the coordinator
        // started over-pricing missing groups).
        let service = base.get("service").unwrap();
        let mut worse = base.clone();
        worse.set(
            "service",
            with(service, "failover", "degraded_extra_width_frac", 0.9),
        );
        let report = compare(&base, &worse, Thresholds::default());
        assert!(
            report
                .deltas
                .iter()
                .any(|d| d.path.contains("degraded_extra_width_frac") && d.failed),
            "80% wider degraded bounds must gate: {report:?}"
        );
    }

    #[test]
    fn improvements_never_fail() {
        let base = Json::parse(SAMPLE).unwrap();
        let mut better = with(&base, "ingest", "merge_ns_per_item", 5.0);
        let Some(Json::Arr(mut items)) = base.get("datasets").cloned() else {
            unreachable!()
        };
        items[0].set("accuracy_ratio", Json::Num(900.0));
        items[0].set("disk_reads_per_query", Json::Num(10.0));
        better.set("datasets", Json::Arr(items));
        let report = compare(&base, &better, Thresholds::default());
        assert!(report.passed(), "{report:?}");
        assert!(report.deltas.iter().any(|d| d.regression < 0.0));
    }

    #[test]
    fn network_trace_reads_gate_the_miss_rule() {
        // The Network Trace row (Zipf-clumped keys) is what keeps the
        // interpolation search's miss rule honest: every rule measured
        // without it read 47–127 % more on that row and must fail the CI
        // gate, while drift inside the threshold passes.
        let base = Json::parse(include_str!("../../../BENCH_headline.json")).unwrap();
        let Some(Json::Arr(rows)) = base.get("datasets") else {
            panic!("baseline has no datasets")
        };
        let key = "disk_reads_per_query";
        let row = |name: &str| {
            rows.iter()
                .position(|r| r.get("dataset") == Some(&Json::Str(name.into())))
                .unwrap()
        };
        let at = row("Network Trace");
        let Some(&Json::Num(reads)) = rows[at].get(key) else {
            panic!("Network Trace row has no {key}")
        };
        let ci = Thresholds {
            stable: 0.25,
            timing: 2.0,
        };
        let gate = |fresh_reads: f64| {
            let mut fresh_rows = rows.clone();
            fresh_rows[at].set(key, Json::Num(fresh_reads));
            let mut fresh = base.clone();
            fresh.set("datasets", Json::Arr(fresh_rows));
            compare(&base, &fresh, ci).passed()
        };
        assert!(gate(reads * 1.2), "a 20 % rise is inside the gate");
        assert!(!gate(reads * 1.26), "a rise past 25 % must fail");
        // First read of each probe only, alternate with bisection, keep
        // guessing while the window halves, never stop guessing.
        for variant in [179.6, 192.0, 224.4, 276.2] {
            assert!(!gate(variant), "{variant} reads must fail the gate");
        }
    }

    #[test]
    fn scope_builds_gate_as_stable() {
        // `query.ts_builds_per_step` counts `TS` builds per dashboard step
        // (deterministic): a view that is rebuilt for one more query than
        // the full union and the window fails; a scope per query (9) does.
        assert_eq!(
            classify("ts_builds_per_step"),
            (Direction::LowerBetter, false)
        );
        let base = Json::parse(include_str!("../../../BENCH_headline.json")).unwrap();
        let Some(&Json::Num(builds)) = base.get("query").and_then(|q| q.get("ts_builds_per_step"))
        else {
            panic!("baseline has no query.ts_builds_per_step")
        };
        let ci = Thresholds {
            stable: 0.25,
            timing: 2.0,
        };
        let gate = |fresh: f64| {
            compare(
                &base,
                &with(&base, "query", "ts_builds_per_step", fresh),
                ci,
            )
        };
        assert!(gate(builds).passed());
        assert!(
            !gate(builds + 1.0).passed(),
            "one rebuild per step must fail"
        );
        assert!(!gate(9.0).passed(), "a scope per query must fail");
    }

    #[test]
    fn dataset_rows_match_by_name_not_index() {
        let base = Json::parse(
            r#"{"datasets": [{"dataset": "A", "disk_reads_per_query": 10},
                             {"dataset": "B", "disk_reads_per_query": 100}]}"#,
        )
        .unwrap();
        let fresh = Json::parse(
            r#"{"datasets": [{"dataset": "B", "disk_reads_per_query": 100},
                             {"dataset": "A", "disk_reads_per_query": 10}]}"#,
        )
        .unwrap();
        let report = compare(&base, &fresh, Thresholds::default());
        assert!(report.passed(), "{report:?}");
        assert_eq!(report.deltas.len(), 2);
    }

    #[test]
    fn missing_metric_fails() {
        let base = Json::parse(r#"{"ingest": {"merge_ns_per_item": 20.0}}"#).unwrap();
        // A vanished section, and a metric that is no longer a number.
        for (fresh, named) in [
            (r#"{"other": 1}"#, "ingest"),
            (
                r#"{"ingest": {"merge_ns_per_item": "fast"}}"#,
                "merge_ns_per_item",
            ),
        ] {
            let report = compare(&base, &Json::parse(fresh).unwrap(), Thresholds::default());
            assert_eq!(report.missing.len(), 1, "{fresh}");
            assert!(report.missing[0].contains(named), "{report:?}");
            assert!(!report.passed(), "a vanished metric must fail the gate");
        }
    }

    /// Remove the `n`-th leaf (depth-first) of `v`; false when `v` has no
    /// more than `n` leaves (`n` is left reduced by the leaves seen).
    fn remove_leaf(v: &mut Json, n: &mut usize) -> bool {
        let len = match v {
            Json::Obj(fields) => fields.len(),
            Json::Arr(items) => items.len(),
            _ => return false,
        };
        for i in 0..len {
            let child = match v {
                Json::Obj(fields) => &mut fields[i].1,
                Json::Arr(items) => &mut items[i],
                _ => unreachable!(),
            };
            if matches!(child, Json::Obj(_) | Json::Arr(_)) {
                if remove_leaf(child, n) {
                    return true;
                }
            } else if *n == 0 {
                match v {
                    Json::Obj(fields) => drop(fields.remove(i)),
                    Json::Arr(items) => drop(items.remove(i)),
                    _ => unreachable!(),
                }
                return true;
            } else {
                *n -= 1;
            }
        }
        false
    }

    #[test]
    fn committed_baseline_gates_every_leaf() {
        let base = Json::parse(include_str!("../../../BENCH_headline.json")).unwrap();
        let same = compare(&base, &base, Thresholds::default());
        assert!(same.passed(), "{same:?}");
        // Every gated leaf is deterministic except the four CPU-cost gates.
        let timing: Vec<&str> = same
            .deltas
            .iter()
            .filter(|d| d.noisy)
            .map(|d| d.path.as_str())
            .collect();
        assert_eq!(
            timing,
            [
                "ingest.merge_ns_per_item",
                "storage.crc64_ns_per_kib",
                "query.combined_build_ns_per_entry",
                "query.stream_extract_ns_per_tuple"
            ]
        );
        // Deleting any one leaf from the fresh run fails the gate.
        let mut leaves = 0;
        loop {
            let mut fresh = base.clone();
            if !remove_leaf(&mut fresh, &mut { leaves }) {
                break;
            }
            let report = compare(&base, &fresh, Thresholds::default());
            assert!(!report.passed(), "leaf {leaves} deleted unnoticed");
            leaves += 1;
        }
        assert!(leaves > same.deltas.len(), "only {leaves} leaves");
    }
}
