//! Benchmark-trend machinery: a dependency-free JSON value model (the
//! container has no registry access, so no `serde`) plus direction-aware
//! comparison of two `BENCH_headline.json` snapshots.
//!
//! Used by the `bench_trend` binary (the CI regression gate) and by
//! `sharded_scaling` (which merges its section into the headline file).
//!
//! ## Comparison semantics
//!
//! Every numeric leaf whose key matches a known metric is compared with a
//! *direction* (is bigger better?) and a *noise class*:
//!
//! * **stable** metrics (accuracy ratios, relative errors, disk reads,
//!   memory words) are deterministic given the code and seeds — they gate
//!   at the tight threshold;
//! * **noisy** metrics (wall-clock seconds, elements/second, speedups)
//!   vary with the machine — they gate at the loose threshold, so a CI
//!   runner differing from the machine that produced the committed
//!   baseline doesn't fail spuriously, while large genuine regressions
//!   still do.
//!
//! Config fields (`steps`, `kappa`, ...) are ignored; metrics present in
//! the baseline but missing from the fresh run are reported as warnings.

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

    /// Numeric value, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
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
    /// Bigger is better (throughput, accuracy ratio).
    HigherBetter,
    /// Smaller is better (error, I/O, latency, memory).
    LowerBetter,
    /// Not a gated metric (configuration fields, ids).
    Ignore,
}

/// Metric classification: direction plus whether the value is wall-clock
/// noisy (machine-dependent) or deterministic given code and seeds.
pub fn classify(leaf: &str) -> (Direction, bool) {
    let l = leaf.to_ascii_lowercase();
    if l.contains("accuracy_ratio") {
        return (Direction::HigherBetter, false);
    }
    if l.contains("hit_rate") {
        return (Direction::HigherBetter, false);
    }
    if [
        "rel_err",
        "disk_reads",
        "memory_words",
        "steady_state",
        "probes",
        "probe_rounds",
        "round_trips",
        "extra_width",
    ]
    .iter()
    .any(|k| l.contains(k))
    {
        return (Direction::LowerBetter, false);
    }
    if ["per_sec", "speedup"].iter().any(|k| l.contains(k)) {
        return (Direction::HigherBetter, true);
    }
    if l.contains("seconds") || l.ends_with("_secs") || l.ends_with("_ms") || l.contains("ns_per_")
    {
        return (Direction::LowerBetter, true);
    }
    (Direction::Ignore, false)
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Dotted path of the metric (array elements keyed by `dataset` /
    /// `shards` when present).
    pub path: String,
    /// Baseline value.
    pub base: f64,
    /// Fresh value.
    pub fresh: f64,
    /// Fractional change in the *worse* direction (negative = improved).
    pub regression: f64,
    /// Machine-dependent metric (gated at the loose threshold).
    pub noisy: bool,
    /// Inside a section marked `"informational": true` (e.g. sharded
    /// scaling recorded with a single worker): reported, never gated.
    pub informational: bool,
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
        // The tight gate is the ISSUE-mandated 25%; wall-clock metrics get
        // slack for runner variance but still fail on large regressions.
        Thresholds {
            stable: 0.25,
            timing: 0.75,
        }
    }
}

/// Compare two headline snapshots. Returns the per-metric deltas and
/// warnings (baseline metrics missing from the fresh run, shape
/// mismatches).
pub fn compare(base: &Json, fresh: &Json, t: Thresholds) -> (Vec<MetricDelta>, Vec<String>) {
    let mut deltas = Vec::new();
    let mut warnings = Vec::new();
    walk(
        base,
        fresh,
        String::new(),
        t,
        false,
        &mut deltas,
        &mut warnings,
    );
    (deltas, warnings)
}

/// An object opting its subtree out of gating (deltas are still listed).
/// Written by benches whose numbers are only meaningful on the machine
/// that produced them — e.g. `sharded_scaling` when it ran with a single
/// worker, where fan-out speedups are structurally ~1x.
fn is_informational(v: &Json) -> bool {
    matches!(v.get("informational"), Some(Json::Bool(true)))
}

/// Identity key of an array element, used to match elements across the
/// two files independent of ordering.
fn element_key(v: &Json) -> Option<String> {
    for id in ["dataset", "shards", "name"] {
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

#[allow(clippy::too_many_arguments)]
fn walk(
    base: &Json,
    fresh: &Json,
    path: String,
    t: Thresholds,
    informational: bool,
    deltas: &mut Vec<MetricDelta>,
    warnings: &mut Vec<String>,
) {
    match (base, fresh) {
        (Json::Obj(fields), _) => {
            // Either side may mark the section informational: a baseline
            // recorded on 1 worker must not gate a multicore fresh run
            // and vice versa.
            let informational = informational || is_informational(base) || is_informational(fresh);
            for (k, bv) in fields {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match fresh.get(k) {
                    Some(fv) => walk(bv, fv, sub, t, informational, deltas, warnings),
                    None => {
                        if metric_in(bv) {
                            warnings.push(format!("{sub}: missing from fresh run"));
                        }
                    }
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
                    Some(fv) => walk(bv, fv, label, t, informational, deltas, warnings),
                    None => {
                        if metric_in(bv) {
                            warnings.push(format!("{label}: missing from fresh run"));
                        }
                    }
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
            deltas.push(MetricDelta {
                path,
                base: *b,
                fresh: *f,
                regression,
                noisy,
                informational,
                failed: !informational && regression > threshold,
            });
        }
        (Json::Num(_), _) => warnings.push(format!("{path}: fresh value is not a number")),
        _ => {}
    }
}

/// Does this subtree contain at least one gated metric? (Used to decide
/// whether a missing subtree warrants a warning.)
fn metric_in(v: &Json) -> bool {
    match v {
        Json::Num(_) => true,
        Json::Arr(items) => items.iter().any(metric_in),
        Json::Obj(fields) => fields.iter().any(|(k, v)| {
            classify(k).0 != Direction::Ignore && matches!(v, Json::Num(_)) || metric_in(v)
        }),
        _ => false,
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
        let change = -d.regression * 100.0; // positive = improved
        let status = if d.failed {
            "REGRESSED"
        } else if d.informational {
            "info"
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
         "query_seconds": 0.0001, "accuracy_ratio": 300.0, "memory_words": 3500}
      ],
      "ingest": {"scalar_elems_per_sec": 1000000, "speedup": 6.0}
    }"#;

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
        assert_eq!(v.get("a").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn weighted_metrics_classify() {
        // Weighted-ingest throughput is wall-clock (loose timing gate);
        // the weighted error ratio and the compaction-A/B fields are
        // deterministic and gate at the tight stable threshold.
        assert_eq!(
            classify("weighted_insert_weight_per_sec"),
            (Direction::HigherBetter, true)
        );
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
    fn identical_snapshots_pass() {
        let v = Json::parse(SAMPLE).unwrap();
        let (deltas, warnings) = compare(&v, &v, Thresholds::default());
        assert!(warnings.is_empty());
        assert!(!deltas.is_empty());
        assert!(deltas.iter().all(|d| !d.failed));
        // Config fields are not gated.
        assert!(deltas.iter().all(|d| !d.path.contains("steps")));
    }

    #[test]
    fn direction_aware_regressions() {
        let base = Json::parse(SAMPLE).unwrap();
        // Accuracy ratio collapses (higher-better, stable): must fail.
        let mut worse = base.clone();
        if let Some(Json::Arr(items)) = worse.get("datasets").cloned() {
            let mut items = items;
            items[0].set("accuracy_ratio", Json::Num(100.0));
            worse.set("datasets", Json::Arr(items));
        }
        let (deltas, _) = compare(&base, &worse, Thresholds::default());
        let d = deltas
            .iter()
            .find(|d| d.path.contains("accuracy_ratio"))
            .unwrap();
        assert!(d.failed, "66% accuracy drop must gate: {d:?}");

        // A 30% throughput drop is within the loose timing threshold...
        let mut slower = base.clone();
        let mut ingest = base.get("ingest").unwrap().clone();
        ingest.set("scalar_elems_per_sec", Json::Num(700_000.0));
        slower.set("ingest", ingest);
        let (deltas, _) = compare(&base, &slower, Thresholds::default());
        let d = deltas
            .iter()
            .find(|d| d.path.contains("scalar_elems_per_sec"))
            .unwrap();
        assert!(!d.failed, "timing metrics gate loosely: {d:?}");

        // ...but an 85% drop is not.
        let mut broken = base.clone();
        let mut ingest = base.get("ingest").unwrap().clone();
        ingest.set("scalar_elems_per_sec", Json::Num(150_000.0));
        broken.set("ingest", ingest);
        let (deltas, _) = compare(&base, &broken, Thresholds::default());
        assert!(deltas.iter().any(|d| d.failed));
    }

    #[test]
    fn retention_metrics_gate_as_stable() {
        // steady_state_bytes is deterministic: a growth past the tight
        // threshold must gate; the config-like byte_cap field must not.
        let base = Json::parse(
            r#"{"retention": {"byte_cap": 262144, "steady_state_bytes": 200000,
                 "window_query_seconds": 0.0001, "window_disk_reads_per_query": 5.0}}"#,
        )
        .unwrap();
        let (dir, noisy) = classify("steady_state_bytes");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        assert_eq!(classify("byte_cap").0, Direction::Ignore);

        let mut worse = base.clone();
        let mut r = base.get("retention").unwrap().clone();
        r.set("steady_state_bytes", Json::Num(300_000.0));
        worse.set("retention", r);
        let (deltas, _) = compare(&base, &worse, Thresholds::default());
        let d = deltas
            .iter()
            .find(|d| d.path.contains("steady_state_bytes"))
            .unwrap();
        assert!(d.failed, "50% storage growth must gate: {d:?}");
        assert!(deltas.iter().all(|d| !d.path.contains("byte_cap")));
    }

    #[test]
    fn query_metrics_gate_probes_stable_and_latency_loose() {
        // Bisection probe counts are deterministic given code and seeds:
        // stable lower-better gate. Latencies and per-entry costs stay
        // loose.
        let (dir, noisy) = classify("summary_p50_probes");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        let (dir, noisy) = classify("domain_p99_probes");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        let (dir, noisy) = classify("combined_build_ns_per_entry");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(noisy);
        let (dir, noisy) = classify("reused_snapshot_query_seconds");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(noisy);
        let (dir, noisy) = classify("radix_speedup");
        assert_eq!(dir, Direction::HigherBetter);
        assert!(noisy);

        let base = Json::parse(
            r#"{"query": {"summary_p50_probes": 5.0, "domain_p50_probes": 33.0,
                 "combined_build_ns_per_entry": 25.0}}"#,
        )
        .unwrap();
        // Probe regression past the tight threshold gates.
        let mut worse = base.clone();
        let mut q = base.get("query").unwrap().clone();
        q.set("summary_p50_probes", Json::Num(9.0));
        worse.set("query", q);
        let (deltas, _) = compare(&base, &worse, Thresholds::default());
        assert!(
            deltas
                .iter()
                .any(|d| d.path.contains("summary_p50_probes") && d.failed),
            "80% more probes must gate: {deltas:?}"
        );
        // A slower combined-summary build within the loose threshold passes.
        let mut slower = base.clone();
        let mut q = base.get("query").unwrap().clone();
        q.set("combined_build_ns_per_entry", Json::Num(35.0));
        slower.set("query", q);
        let (deltas, _) = compare(&base, &slower, Thresholds::default());
        assert!(deltas.iter().all(|d| !d.failed), "{deltas:?}");
    }

    #[test]
    fn service_metrics_gate_rounds_stable_and_latency_loose() {
        // Probe rounds and wire round-trips per served query are
        // deterministic given code and seeds: tight gate. Served-query
        // latency is wall clock: loose gate.
        let (dir, noisy) = classify("served_p50_probe_rounds");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        let (dir, noisy) = classify("round_trips_per_query");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        let (dir, noisy) = classify("served_query_seconds");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(noisy);

        let base = Json::parse(
            r#"{"service": {"nodes": 1, "served_p50_probe_rounds": 3.0,
                 "round_trips_per_query": 3.0, "served_query_seconds": 0.001}}"#,
        )
        .unwrap();
        let mut worse = base.clone();
        let mut s = base.get("service").unwrap().clone();
        s.set("served_p50_probe_rounds", Json::Num(5.0));
        worse.set("service", s);
        let (deltas, _) = compare(&base, &worse, Thresholds::default());
        assert!(
            deltas
                .iter()
                .any(|d| d.path.contains("served_p50_probe_rounds") && d.failed),
            "probe-round regression must gate: {deltas:?}"
        );
    }

    #[test]
    fn failover_metrics_gate_width_stable_and_latency_loose() {
        // The degraded extra width is deterministic — it is exactly the
        // lost group's weight fraction — so it gates tight; the healthy
        // and failover sweep latencies are wall clock and gate loose.
        let (dir, noisy) = classify("degraded_extra_width_frac");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(!noisy);
        let (dir, noisy) = classify("failover_query_seconds");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(noisy);
        let (dir, noisy) = classify("healthy_query_seconds");
        assert_eq!(dir, Direction::LowerBetter);
        assert!(noisy);
        assert_eq!(classify("replicas").0, Direction::Ignore);

        let base = Json::parse(
            r#"{"service": {"failover": {"groups": 2, "replicas": 2,
                 "healthy_query_seconds": 0.0002, "failover_query_seconds": 0.0002,
                 "degraded_extra_width_frac": 0.5}}}"#,
        )
        .unwrap();
        // Widening growing past the tight threshold gates (the coordinator
        // started over-pricing missing groups).
        let mut worse = base.clone();
        let mut s = base.get("service").unwrap().clone();
        let mut f = s.get("failover").unwrap().clone();
        f.set("degraded_extra_width_frac", Json::Num(0.9));
        s.set("failover", f);
        worse.set("service", s);
        let (deltas, _) = compare(&base, &worse, Thresholds::default());
        assert!(
            deltas
                .iter()
                .any(|d| d.path.contains("degraded_extra_width_frac") && d.failed),
            "80% wider degraded bounds must gate: {deltas:?}"
        );
        // A modest failover latency wobble passes the loose gate.
        let mut slower = base.clone();
        let mut s = base.get("service").unwrap().clone();
        let mut f = s.get("failover").unwrap().clone();
        f.set("failover_query_seconds", Json::Num(0.0003));
        s.set("failover", f);
        slower.set("service", s);
        let (deltas, _) = compare(&base, &slower, Thresholds::default());
        assert!(deltas.iter().all(|d| !d.failed), "{deltas:?}");
    }

    #[test]
    fn informational_sections_report_but_never_gate() {
        let base = Json::parse(
            r#"{"sharded": {"workers": 4, "scaling": [
                 {"shards": 4, "speedup_vs_1_shard": 3.5, "ingest_elems_per_sec": 4000000}]}}"#,
        )
        .unwrap();
        // Fresh run on a 1-CPU box: speedups collapse, but the section is
        // marked informational — reported, not gated.
        let fresh = Json::parse(
            r#"{"sharded": {"workers": 1, "informational": true, "scaling": [
                 {"shards": 4, "speedup_vs_1_shard": 0.9, "ingest_elems_per_sec": 900000}]}}"#,
        )
        .unwrap();
        let (deltas, _) = compare(&base, &fresh, Thresholds::default());
        let speedup = deltas
            .iter()
            .find(|d| d.path.contains("speedup_vs_1_shard"))
            .unwrap();
        assert!(speedup.informational);
        assert!(!speedup.failed, "informational sections must not gate");
        assert!(deltas.iter().all(|d| !d.failed), "{deltas:?}");
        // Without the flag the same collapse fails the gate.
        let plain = Json::parse(
            r#"{"sharded": {"workers": 1, "scaling": [
                 {"shards": 4, "speedup_vs_1_shard": 0.9, "ingest_elems_per_sec": 900000}]}}"#,
        )
        .unwrap();
        let (deltas, _) = compare(&base, &plain, Thresholds::default());
        assert!(deltas.iter().any(|d| d.failed));
    }

    #[test]
    fn improvements_never_fail() {
        let base = Json::parse(SAMPLE).unwrap();
        let mut better = base.clone();
        let mut ingest = base.get("ingest").unwrap().clone();
        ingest.set("scalar_elems_per_sec", Json::Num(9_000_000.0));
        ingest.set("speedup", Json::Num(50.0));
        better.set("ingest", ingest);
        let (deltas, _) = compare(&base, &better, Thresholds::default());
        assert!(deltas.iter().all(|d| !d.failed));
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
        let (deltas, warnings) = compare(&base, &fresh, Thresholds::default());
        assert!(warnings.is_empty());
        assert!(deltas.iter().all(|d| !d.failed), "{deltas:?}");
    }

    #[test]
    fn missing_metric_warns() {
        let base = Json::parse(r#"{"ingest": {"speedup": 2.0}}"#).unwrap();
        let fresh = Json::parse(r#"{"other": 1}"#).unwrap();
        let (_, warnings) = compare(&base, &fresh, Thresholds::default());
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("ingest"));
    }
}
