//! The one writer and reader of the `BENCH_*.json` reports, and the one
//! place their naming rule lives.
//!
//! **The rule.**  A value that depends on the host or on thread scheduling
//! (wall-clock throughput and latency, utilisation, steal and migration
//! rates, the core count) is written with [`Record::wall`] and lands in a
//! nested `"wall"` object at the end of its record.  Everything else is
//! written with [`Record::set`] and is deterministic: the simulated clock,
//! cache and imbalance counters, byte sizes, analytic predictions.  Wall
//! time is measured and gated by the `benchmark/` package only; here
//! `bench_regression_check` drops every `"wall"` object ([`without_wall`])
//! and requires the rest to equal the committed `bench/baseline/` file
//! byte for byte.

use crate::{arg_value, cores};

/// Name of the nested object holding a record's host-dependent values.
const WALL: &str = "wall";

/// A JSON scalar as the reports print it.
pub trait Scalar {
    /// The JSON literal.
    fn literal(&self) -> String;
}

impl Scalar for f64 {
    /// Six fixed decimals, so equal values always print equal text.
    fn literal(&self) -> String {
        if self.is_finite() {
            format!("{self:.6}")
        } else {
            "null".to_string()
        }
    }
}

impl Scalar for &str {
    /// Written verbatim: report strings are identifiers chosen by the
    /// binaries, never outside input.
    fn literal(&self) -> String {
        debug_assert!(!self.contains(['"', '\\']), "unescaped report string");
        format!("\"{self}\"")
    }
}

macro_rules! plain_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn literal(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
plain_scalar!(u64, usize, bool);

/// One JSON object of a report: deterministic members in insertion order,
/// then the `"wall"` object if any wall value was recorded.
#[derive(Debug, Clone, Default)]
pub struct Record {
    members: Vec<(&'static str, String)>,
    wall: Vec<(&'static str, String)>,
}

impl Record {
    /// An empty record.
    #[must_use]
    pub fn new() -> Self {
        Record::default()
    }

    /// A deterministic value: bit-equal on every host, worker count and run.
    #[must_use]
    pub fn set(mut self, key: &'static str, value: impl Scalar) -> Self {
        self.members.push((key, value.literal()));
        self
    }

    /// A host- or scheduling-dependent value — reported, never gated.
    #[must_use]
    pub fn wall(mut self, key: &'static str, value: impl Scalar) -> Self {
        self.wall.push((key, value.literal()));
        self
    }

    /// A nested record.
    #[must_use]
    pub fn nested(mut self, key: &'static str, record: &Record) -> Self {
        self.members.push((key, record.render()));
        self
    }

    /// A list of records, one per line.
    #[must_use]
    pub fn list(mut self, key: &'static str, records: &[Record]) -> Self {
        let lines: Vec<String> = records
            .iter()
            .map(|r| format!("    {}", r.render()))
            .collect();
        self.members
            .push((key, format!("[\n{}\n  ]", lines.join(",\n"))));
        self
    }

    /// `"key": value` for every member, the `"wall"` object last.
    fn rendered_members(&self) -> Vec<String> {
        let pair = |(key, value): &(&str, String)| format!("\"{key}\": {value}");
        let mut out: Vec<String> = self.members.iter().map(pair).collect();
        if !self.wall.is_empty() {
            let wall: Vec<String> = self.wall.iter().map(pair).collect();
            out.push(format!("\"{WALL}\": {{{}}}", wall.join(", ")));
        }
        out
    }

    fn render(&self) -> String {
        format!("{{{}}}", self.rendered_members().join(", "))
    }
}

/// The complete document of one bench run: `bench`, `quick`, then `body`'s
/// members one per line, then the top-level `"wall"` object (which always
/// carries the core count the wall values were taken on).
fn report_json(bench: &str, quick: bool, body: Record) -> String {
    let mut report = Record::new().set("bench", bench).set("quick", quick);
    report.members.extend(body.members);
    report.wall = body.wall;
    let report = report.wall("cores", cores());
    format!("{{\n  {}\n}}\n", report.rendered_members().join(",\n  "))
}

/// Writes the report — `bench`, `quick`, `body`'s members, the top-level
/// `"wall"` object — to `--json <path>` (default `BENCH_<bench>.json`); a
/// failed write ends the process with status 1.
pub fn write_report(bench: &str, quick: bool, body: Record) {
    let path = arg_value("--json").unwrap_or_else(|| format!("BENCH_{bench}.json"));
    match std::fs::write(&path, report_json(bench, quick, body)) {
        Ok(()) => println!("wrote {path}"),
        Err(err) => {
            eprintln!("failed to write {path}: {err}");
            std::process::exit(1);
        }
    }
}

/// The deterministic part of a report: `json` with every `"wall"` object
/// (and the comma before it) removed.  This is exactly what a
/// `bench/baseline/` file holds.
#[must_use]
pub fn without_wall(json: &str) -> String {
    let opener = format!("\"{WALL}\": {{");
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some((before, wall)) = rest.split_once(&opener) {
        let before = before.trim_end();
        out.push_str(before.strip_suffix(',').unwrap_or(before));
        // Wall objects hold scalars only, so the first `}` closes them.
        rest = wall.split_once('}').map_or("", |(_, after)| after);
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let point = |mpl: u64, qps: f64| {
            Record::new()
                .set("mpl", mpl)
                .set("strategy", "nothing")
                .set("sim_qps", 2.5 * mpl as f64)
                .wall("qps", qps)
        };
        let body = Record::new()
            .set("bits", 64usize)
            .list("points", &[point(1, 100.0), point(4, f64::NAN)])
            .nested("gate", &Record::new().set("ok", true))
            .wall("cold_ms", 1.25);
        report_json("sample", true, body)
    }

    #[test]
    fn writer_puts_wall_values_last_in_their_record() {
        let cores = cores();
        // Non-finite numbers become null rather than invalid JSON.
        let expected = format!(
            r#"{{
  "bench": "sample",
  "quick": true,
  "bits": 64,
  "points": [
    {{"mpl": 1, "strategy": "nothing", "sim_qps": 2.500000, "wall": {{"qps": 100.000000}}}},
    {{"mpl": 4, "strategy": "nothing", "sim_qps": 10.000000, "wall": {{"qps": null}}}}
  ],
  "gate": {{"ok": true}},
  "wall": {{"cold_ms": 1.250000, "cores": {cores}}}
}}
"#
        );
        assert_eq!(sample(), expected);
    }

    #[test]
    fn without_wall_leaves_the_deterministic_document() {
        let expected = r#"{
  "bench": "sample",
  "quick": true,
  "bits": 64,
  "points": [
    {"mpl": 1, "strategy": "nothing", "sim_qps": 2.500000},
    {"mpl": 4, "strategy": "nothing", "sim_qps": 10.000000}
  ],
  "gate": {"ok": true}
}
"#;
        assert_eq!(without_wall(&sample()), expected);
        assert_eq!(without_wall(expected), expected);
    }

    /// A wall number must not drift back into the exact gate: the committed
    /// baselines hold deterministic fields only.
    #[test]
    fn committed_baselines_hold_no_wall_field() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).expect("bench/baseline exists") {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() {
                // `stdout/`: the reproductions' stdout goldens, not reports.
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable baseline");
            assert!(
                !text.contains(&format!("\"{WALL}\"")) && !text.contains("\"cores\""),
                "{} holds a wall field",
                path.display()
            );
            assert!(text.contains("\"bench\": "), "{} is empty", path.display());
            checked += 1;
        }
        assert_eq!(checked, 5, "one baseline per BENCH_* binary");
    }
}
