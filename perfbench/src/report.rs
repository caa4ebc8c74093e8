//! The metric catalogue and the result line every run ends with.
//!
//! The names and units here are the benchmark's interface; they must match
//! `BENCHMARK.json` (a unit test holds the two together).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: reported by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 11] = [
    ("insert_eps", "edges/s"),
    ("delete_eps", "edges/s"),
    ("commit_p50_us", "us"),
    ("checkpoint_s", "s"),
    ("recovery_s", "s"),
    ("delta_p50_ms", "ms"),
    ("delta_p95_ms", "ms"),
    ("bfs_p50_ms", "ms"),
    ("pagerank_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: reported by every traced run of every workload. The
/// first is no single layer's: `commit_p99_us` rests on about three commits
/// beyond it in `ingest` (about 300 commits a run), so it varies too much
/// between runs to carry a regression bound.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("commit_p99_us", "us"),
    ("batch.sort_ns_per_edge", "ns/edge"),
    ("batch.group_ns_per_edge", "ns/edge"),
    ("core.insert_ns_per_edge", "ns/edge"),
    ("core.delete_ns_per_edge", "ns/edge"),
    ("core.tier_upgrades", "per_Medge"),
    ("core.ria_cross_block_moves", "per_Medge"),
    ("core.ria_rebuilds", "per_Medge"),
    ("core.lia_vertical_child_creates", "per_Medge"),
    ("core.lia_model_retrains", "per_Medge"),
    ("core.small_batch_us", "us"),
    ("executor.num_threads_us", "us"),
    ("executor.fork_join_us", "us"),
    ("executor.speedup_2t", "ratio"),
    ("snapshot.flip_us", "us"),
    ("snapshot.cow_copies_per_batch", "count"),
    ("snapshot.reclaim_us", "us"),
    ("snapshot.max_backlog", "count"),
    ("queries.quiesce_ms", "ms"),
    ("queries.poll_us", "us"),
    ("queries.delta_entries_per_batch", "count"),
    ("queries.ns_per_delta_entry", "ns"),
    ("analytics.bfs_ns_per_edge", "ns/edge"),
    ("analytics.pagerank_ns_per_edge", "ns/edge"),
    ("analytics.bfs_idle_ms", "ms"),
    ("analytics.pagerank_idle_ms", "ms"),
    ("persist.write_us", "us"),
    ("persist.sync_us", "us"),
    ("persist.wal_bytes_per_edge", "B/edge"),
    ("persist.checkpoint_bytes", "B"),
    ("persist.replay_frames_per_s", "frames/s"),
    ("persist.image_load_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations by kind.
    pub failures: BTreeMap<&'static str, u64>,
    /// Failed correctness checks, by description.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each percentile or median.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn set_with_samples(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Records one correctness check; a failing check fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.check_failures.push(msg);
        }
    }

    /// Counts one operation of kind `what`, failed or not.
    pub fn op(&mut self, what: &'static str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.failures.entry(what).or_default() += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// The result line: the catalogue's metrics for this kind of run, with
    /// units. Errors if a catalogue metric was not measured or is not finite.
    pub fn result_line(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Result<String, String> {
        let mut m = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            if i > 0 {
                m.push_str(", ");
            }
            write!(m, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// Minimal JSON string escaping for provenance values.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
pub mod json {
    //! A small JSON reader for the tests: enough to parse the result line
    //! and `BENCHMARK.json`.

    use std::collections::BTreeMap;

    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn get(&self, k: &str) -> &Value {
            match self {
                Value::Obj(m) => m.get(k).unwrap_or(&Value::Null),
                _ => &Value::Null,
            }
        }
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing input at {i}"));
        }
        Ok(v)
    }

    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        ws(b, i);
        if b.get(*i) == Some(&c) {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {i}", c as char))
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                let mut m = BTreeMap::new();
                ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(Value::Obj(m));
                }
                loop {
                    ws(b, i);
                    let Value::Str(k) = value(b, i)? else {
                        return Err(format!("object key expected at {i}"));
                    };
                    expect(b, i, b':')?;
                    if m.insert(k.clone(), value(b, i)?).is_some() {
                        return Err(format!("duplicate key {k}"));
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(Value::Obj(m));
                        }
                        _ => return Err(format!("',' or '}}' expected at {i}")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                let mut a = Vec::new();
                ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(Value::Arr(a));
                }
                loop {
                    a.push(value(b, i)?);
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(Value::Arr(a));
                        }
                        _ => return Err(format!("',' or ']' expected at {i}")),
                    }
                }
            }
            Some(b'"') => {
                *i += 1;
                let mut s = String::new();
                while let Some(&c) = b.get(*i) {
                    *i += 1;
                    match c {
                        b'"' => return Ok(Value::Str(s)),
                        b'\\' => {
                            let e = *b.get(*i).ok_or("dangling escape")?;
                            *i += 1;
                            match e {
                                b'n' => s.push('\n'),
                                b't' => s.push('\t'),
                                b'u' => {
                                    let hex = std::str::from_utf8(&b[*i..*i + 4])
                                        .map_err(|e| e.to_string())?;
                                    let cp =
                                        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                    s.push(char::from_u32(cp).ok_or("bad code point")?);
                                    *i += 4;
                                }
                                other => s.push(other as char),
                            }
                        }
                        _ => {
                            // Copy one UTF-8 sequence.
                            let start = *i - 1;
                            let len = match c {
                                0..=0x7f => 1,
                                0xc0..=0xdf => 2,
                                0xe0..=0xef => 3,
                                _ => 4,
                            };
                            *i = start + len;
                            s.push_str(
                                std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?,
                            );
                        }
                    }
                }
                Err("unterminated string".into())
            }
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*i..].starts_with(b"null") => {
                *i += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                let t = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
                t.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number {t:?} at {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::{parse, Value};
    use super::*;

    fn full(catalogue: &[(&'static str, &'static str)]) -> Outcome {
        let mut o = Outcome::default();
        for (i, (name, _)) in catalogue.iter().enumerate() {
            // Values with many digits, tiny and large magnitudes.
            o.set(
                name,
                (i as f64 + 1.0) * 1_234.567_890_123_4e-3 + 1e-9 * i as f64,
            );
        }
        o.set("insert_eps", 2.987_654_321e6);
        o
    }

    #[test]
    fn result_line_round_trips() {
        let mut o = full(&END_TO_END);
        o.op("x", true);
        o.op("x", false);
        let line = o.result_line(&END_TO_END).unwrap();
        let v = parse(&line).unwrap();
        let Value::Obj(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), &Value::Bool(false));
        assert_eq!(v.get("attempted"), &Value::Num(2.0));
        assert_eq!(v.get("failed"), &Value::Num(1.0));
        let Value::Obj(ms) = v.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(ms.len(), END_TO_END.len());
        for (name, unit) in END_TO_END {
            let m = v.get("metrics").get(name);
            assert_eq!(m.get("unit"), &Value::Str(unit.to_string()));
            // Every digit survives: the parsed value is bit-identical.
            assert_eq!(m.get("value"), &Value::Num(o.metrics[name]), "{name}");
        }
    }

    #[test]
    fn missing_or_non_finite_metric_is_an_error() {
        let mut o = full(&PER_LAYER);
        o.metrics.remove("trace.spans");
        assert!(o
            .result_line(&PER_LAYER)
            .unwrap_err()
            .contains("trace.spans"));
        let mut o = full(&PER_LAYER);
        o.set("persist.sync_us", f64::NAN);
        assert!(o.result_line(&PER_LAYER).is_err());
    }

    #[test]
    fn failed_check_makes_the_run_incorrect() {
        let mut o = full(&END_TO_END);
        o.op("x", true);
        assert!(o.correct());
        o.check(false, || "oracle mismatch".into());
        assert!(!o.correct());
        let v = parse(&o.result_line(&END_TO_END).unwrap()).unwrap();
        assert_eq!(v.get("correct"), &Value::Bool(false));
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(
            parse(&json_str("a\"b\\c\n")).unwrap(),
            Value::Str("a\"b\\c\n".into())
        );
    }

    /// `BENCHMARK.json` and this catalogue name the same metrics and units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Value::Arr(entries) = doc.get(key) else {
                panic!("{key} is not a list")
            };
            let listed: Vec<(String, String)> = entries
                .iter()
                .map(|e| match (e.get("name"), e.get("unit")) {
                    (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                    other => panic!("bad {key} entry {other:?}"),
                })
                .collect();
            let want: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
        let Value::Arr(workloads) = doc.get("workloads") else {
            panic!("workloads")
        };
        let names: Vec<&Value> = workloads.iter().map(|w| w.get("name")).collect();
        assert_eq!(
            names,
            ["ingest", "trickle"]
                .map(|n| Value::Str(n.into()))
                .iter()
                .collect::<Vec<_>>()
        );
    }
}
