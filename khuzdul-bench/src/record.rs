//! What a run produces — one row per (workload, metric) — and the three
//! things done with it: the contract's result line, the flat record file
//! (`--out`, `records/BENCH_<pr>.json`), and `diff` between two records.

use crate::spec::{self, Better};
use crate::stats;
use serde::Value;

/// One measured metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name from [`spec`].
    pub metric: String,
    /// The reported value: the median (or the named percentile) of the
    /// samples.
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// How many samples the value was taken from.
    pub samples: usize,
    /// How far `value` itself is expected to move between two runs of the
    /// same code, as far as one run can tell: the distance between the
    /// quartiles of the run's independent readings of it, over the square
    /// root of their number. The quartiles of the samples (`q1`, `q3`) say
    /// how jobs differ from each other, not how steady their median is.
    /// 0 when the run has a single reading.
    pub noise: f64,
}

impl Row {
    /// The median of independent `samples`.
    pub fn from_samples(metric: &str, samples: &[f64]) -> Row {
        let (q1, q3) = stats::quartiles(samples);
        Row {
            metric: metric.to_string(),
            value: stats::median(samples),
            q1,
            q3,
            samples: samples.len(),
            noise: (q3 - q1) / (samples.len() as f64).sqrt(),
        }
    }

    /// `stat` of all the samples of a run measured in `segments`, each on
    /// a system of its own. Samples of one segment share that system's
    /// luck and the host's mood of the moment, so the independent readings
    /// of `stat` are one per segment.
    pub fn from_segments(metric: &str, segments: &[Vec<f64>], stat: fn(&[f64]) -> f64) -> Row {
        let all: Vec<f64> = segments.iter().flatten().copied().collect();
        let per_segment: Vec<f64> = segments.iter().map(|s| stat(s)).collect();
        let (q1, q3) = stats::quartiles(&all);
        Row {
            metric: metric.to_string(),
            value: stat(&all),
            q1,
            q3,
            samples: all.len(),
            noise: stats::iqr(&per_segment) / (segments.len() as f64).sqrt(),
        }
    }

    /// A value read once per run (a count, a peak, a ratio of medians).
    pub fn single(metric: &str, value: f64) -> Row {
        Row { metric: metric.to_string(), value, q1: value, q3: value, samples: 1, noise: 0.0 }
    }
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name from [`spec::WORKLOADS`].
    pub workload: String,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Jobs and queries whose count was checked against the reference.
    pub attempted: u64,
    /// Those that returned an error or a different count.
    pub failed: u64,
    /// The metrics.
    pub rows: Vec<Row>,
}

impl WorkloadResult {
    /// An empty result to push rows into.
    pub fn new(workload: &str, traced: bool) -> WorkloadResult {
        WorkloadResult {
            workload: workload.to_string(),
            traced,
            attempted: 0,
            failed: 0,
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.metric` is not in the spec: a metric exists in
    /// `BENCHMARK.json` before it is measured.
    pub fn push(&mut self, row: Row) {
        assert!(spec::lookup(&row.metric).is_some(), "{} is not in spec.rs", row.metric);
        assert!(self.row(&row.metric).is_none(), "{} measured twice", row.metric);
        self.rows.push(row);
    }

    /// The row of `metric`, if measured.
    pub fn row(&self, metric: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.metric == metric)
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> Value {
        let metrics = self
            .rows
            .iter()
            .map(|r| {
                let unit = spec::lookup(&r.metric).expect("checked on push").unit;
                let cell = Value::Map(vec![
                    entry("value", Value::Float(r.value)),
                    entry("unit", Value::Str(unit.to_string())),
                ]);
                (r.metric.clone(), cell)
            })
            .collect();
        Value::Map(vec![
            entry("correct", Value::Bool(self.failed == 0)),
            entry("attempted", Value::UInt(self.attempted)),
            entry("failed", Value::UInt(self.failed)),
            entry("metrics", Value::Map(metrics)),
        ])
    }

    /// One line per metric, by name, with its unit.
    pub fn print(&self) {
        let tier = if self.traced { "per-layer" } else { "end-to-end" };
        println!("== {} ({tier}) ==", self.workload);
        for r in &self.rows {
            let unit = spec::lookup(&r.metric).expect("checked on push").unit;
            if r.q1 != r.q3 {
                println!(
                    "{:<40} {:>14.6} {:<6} q1 {:.6} q3 {:.6} n {} noise {:.2}%",
                    r.metric,
                    r.value,
                    unit,
                    r.q1,
                    r.q3,
                    r.samples,
                    100.0 * r.noise / r.value.abs()
                );
            } else {
                println!("{:<40} {:>14.6} {unit}", r.metric, r.value);
            }
        }
        println!(
            "{:<40} {:>14.6} ({} failed of {} attempted)",
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }
}

/// Where and how a record was taken.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Provenance {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Whether `--smoke` shrank the workloads.
    pub smoke: bool,
    /// Logical CPUs available to the process.
    pub nproc: u64,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// The tree the record was taken on, as `git describe` names it.
    pub commit: String,
}

/// A set of workload results with their provenance: the record file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    /// How the record was taken.
    pub provenance: Provenance,
    /// One entry per (workload, tier) run.
    pub results: Vec<WorkloadResult>,
}

/// One key of a JSON object.
pub fn entry(k: &str, v: Value) -> (String, Value) {
    (k.to_string(), v)
}

impl Record {
    /// Operations that failed, over every run in the record.
    pub fn failed(&self) -> u64 {
        self.results.iter().map(|r| r.failed).sum()
    }

    /// The flat JSON form: one object per (workload, metric).
    pub fn to_json(&self) -> Value {
        let p = &self.provenance;
        let mut rows = Vec::new();
        let mut ops = Vec::new();
        for res in &self.results {
            ops.push(Value::Map(vec![
                entry("workload", Value::Str(res.workload.clone())),
                entry("traced", Value::Bool(res.traced)),
                entry("ops_attempted", Value::UInt(res.attempted)),
                entry("ops_failed", Value::UInt(res.failed)),
            ]));
            for r in &res.rows {
                let m = spec::lookup(&r.metric).expect("checked on push");
                rows.push(Value::Map(vec![
                    entry("workload", Value::Str(res.workload.clone())),
                    entry("metric", Value::Str(r.metric.clone())),
                    entry("value", Value::Float(r.value)),
                    entry("unit", Value::Str(m.unit.to_string())),
                    entry("better", Value::Str(m.better.as_str().to_string())),
                    entry("q1", Value::Float(r.q1)),
                    entry("q3", Value::Float(r.q3)),
                    entry("samples", Value::UInt(r.samples as u64)),
                    entry("noise", Value::Float(r.noise)),
                ]));
            }
        }
        Value::Map(vec![
            entry("seed", Value::UInt(p.seed)),
            entry("seconds", Value::UInt(p.seconds)),
            entry("smoke", Value::Bool(p.smoke)),
            entry("nproc", Value::UInt(p.nproc)),
            entry("cpu", Value::Str(p.cpu.clone())),
            entry("commit", Value::Str(p.commit.clone())),
            entry("ops", Value::Seq(ops)),
            entry("rows", Value::Seq(rows)),
        ])
    }

    /// Reads back what [`Record::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// Returns what is missing or mistyped.
    pub fn from_json(v: &Value) -> Result<Record, String> {
        let provenance = Provenance {
            seed: uint(v, "seed")?,
            seconds: uint(v, "seconds")?,
            smoke: matches!(field(v, "smoke")?, Value::Bool(true)),
            nproc: uint(v, "nproc")?,
            cpu: text(v, "cpu")?,
            commit: text(v, "commit")?,
        };
        let mut results = Vec::new();
        for op in seq(v, "ops")? {
            let mut res = WorkloadResult::new(
                &text(op, "workload")?,
                matches!(field(op, "traced")?, Value::Bool(true)),
            );
            res.attempted = uint(op, "ops_attempted")?;
            res.failed = uint(op, "ops_failed")?;
            results.push(res);
        }
        for row in seq(v, "rows")? {
            let (workload, metric) = (text(row, "workload")?, text(row, "metric")?);
            let m = spec::lookup(&metric).ok_or_else(|| format!("unknown metric {metric}"))?;
            let res = results
                .iter_mut()
                .find(|r| r.workload == workload && r.traced == m.bound.is_none())
                .ok_or_else(|| format!("row of {workload} without an ops entry"))?;
            res.rows.push(Row {
                metric,
                value: number(row, "value")?,
                q1: number(row, "q1")?,
                q3: number(row, "q3")?,
                samples: uint(row, "samples")? as usize,
                noise: number(row, "noise")?,
            });
        }
        Ok(Record { provenance, results })
    }

    /// Parses a record file's text.
    ///
    /// # Errors
    ///
    /// Returns the JSON or schema error.
    pub fn parse(text: &str) -> Result<Record, String> {
        Record::from_json(&gpm_obs::parse_json(text)?)
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key}")),
        _ => Err(format!("expected an object holding {key}")),
    }
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    match field(v, key)? {
        Value::Float(f) => Ok(*f),
        Value::UInt(u) => Ok(*u as f64),
        Value::Int(i) => Ok(*i as f64),
        _ => Err(format!("{key} is not a number")),
    }
}

fn uint(v: &Value, key: &str) -> Result<u64, String> {
    match field(v, key)? {
        Value::UInt(u) => Ok(*u),
        _ => Err(format!("{key} is not a whole number")),
    }
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match field(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("{key} is not a string")),
    }
}

fn seq<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(v, key)? {
        Value::Seq(items) => Ok(items),
        _ => Err(format!("{key} is not a list")),
    }
}

/// How one end-to-end row of the candidate compares with the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the base by more than the metric's bound, and by more
    /// than the two values' own noise.
    Worse,
    /// No worse than the bound allows, and steady enough to say so.
    Within,
    /// The two values' noise is wider than the bound and the change does
    /// not stand clear of it: neither worse nor unchanged.
    Unresolved,
    /// The base has the row and the candidate does not.
    Missing,
}

/// One compared (workload, metric) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Compared {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base value.
    pub base: f64,
    /// Candidate value (NaN when missing).
    pub cand: f64,
    /// Change in the worse direction as a share of the base (negative
    /// when the candidate is better).
    pub worse_by: f64,
    /// Noise of the two values together, as a share of the base.
    pub noise: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Compares every end-to-end row of `base` with the candidate's, under
/// the bounds of [`spec::END_TO_END`].
///
/// # Errors
///
/// Refuses records taken with a different seed, run length or scale:
/// their values do not measure the same work.
pub fn diff(base: &Record, cand: &Record) -> Result<Vec<Compared>, String> {
    let (b, c) = (&base.provenance, &cand.provenance);
    if (b.seed, b.seconds, b.smoke) != (c.seed, c.seconds, c.smoke) {
        return Err(format!(
            "records differ in how they were taken: seed {} vs {}, seconds {} vs {}, smoke {} vs {}",
            b.seed, c.seed, b.seconds, c.seconds, b.smoke, c.smoke
        ));
    }
    let mut out = Vec::new();
    for b in base.results.iter().filter(|r| !r.traced) {
        let c = cand.results.iter().find(|r| !r.traced && r.workload == b.workload);
        for m in &spec::END_TO_END {
            let Some(br) = b.row(m.name) else { continue };
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let mut row = Compared {
                workload: b.workload.clone(),
                metric: m.name.to_string(),
                base: br.value,
                cand: f64::NAN,
                worse_by: f64::NAN,
                noise: f64::NAN,
                bound,
                verdict: Verdict::Missing,
            };
            if let Some(cr) = c.and_then(|c| c.row(m.name)) {
                let change = (cr.value - br.value) / br.value.abs();
                row.cand = cr.value;
                row.worse_by = if m.better == Better::Lower { change } else { -change };
                // Two independent runs: their noises add in quadrature.
                row.noise = br.noise.hypot(cr.noise) / br.value.abs();
                row.verdict = judge(row.worse_by, row.noise, bound);
            }
            out.push(row);
        }
    }
    Ok(out)
}

/// The rule of the gate, all three arguments shares of the base value. A
/// change larger than both the bound and the noise never passes; a change
/// inside the bound passes only when the noise is inside it too.
pub fn judge(worse_by: f64, noise: f64, bound: f64) -> Verdict {
    if worse_by > bound && worse_by > noise {
        Verdict::Worse
    } else if noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// What a comparison amounts to; the process exit code of `diff` and
/// `repeat-check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every row within its bound, no operation failed.
    Pass = 0,
    /// A row is worse or missing, or the candidate failed an operation.
    Regressed = 1,
    /// Nothing is worse, but a row is too noisy to be called unchanged.
    Unresolved = 3,
}

/// Prints `rows` and the candidate's failures, and judges the whole.
pub fn print_diff(rows: &[Compared], cand: &Record) -> Outcome {
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "candidate", "worse by", "noise", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Worse => "WORSE",
            Verdict::Within => "within bound",
            Verdict::Unresolved => "UNRESOLVED (noise wider than bound)",
            Verdict::Missing => "MISSING from the candidate",
        };
        println!(
            "{:<14} {:<16} {:>14.6} {:>14.6} {:>+8.1}% {:>6.1}% {:>5.0}%  {verdict}",
            r.workload,
            r.metric,
            r.base,
            r.cand,
            r.worse_by * 100.0,
            r.noise * 100.0,
            r.bound * 100.0
        );
    }
    let failed = cand.failed();
    if failed > 0 {
        println!("candidate failed {failed} operation(s): failed_frac must be 0");
    }
    let any = |v: Verdict| rows.iter().any(|r| r.verdict == v);
    if failed > 0 || rows.is_empty() || any(Verdict::Worse) || any(Verdict::Missing) {
        Outcome::Regressed
    } else if any(Verdict::Unresolved) {
        Outcome::Unresolved
    } else {
        Outcome::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six segments of three jobs each, all within 1 % of `job_wall`.
    fn record(job_wall: f64) -> Record {
        let segment = vec![job_wall * 0.99, job_wall, job_wall * 1.01];
        let mut res = WorkloadResult::new("hub_cliques", false);
        res.attempted = 40;
        res.push(Row::from_segments("job_wall_s", &vec![segment; 6], stats::median));
        res.push(Row::single("net_mb_per_job", 25.0));
        res.push(Row::single("peak_rss_mb", 31.5));
        let mut traced = WorkloadResult::new("hub_cliques", true);
        traced.push(Row::single("core.cache.hit_rate", 0.5));
        Record {
            provenance: Provenance {
                seed: 12,
                seconds: 15,
                cpu: "test \"cpu\"".into(),
                ..Default::default()
            },
            results: vec![res, traced],
        }
    }

    fn verdict(rows: &[Compared], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).expect("compared").verdict
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = record(0.3);
        let text = serde_json::to_string_pretty(&rec.to_json()).unwrap();
        assert_eq!(Record::parse(&text).unwrap(), rec);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = record(0.3).results[0].contract_line();
        let Value::Map(entries) = &line else { panic!("not an object") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let text = serde_json::to_string(&line).unwrap();
        assert!(!text.contains('\n'));
        assert_eq!(gpm_obs::parse_json(&text).unwrap(), line);
    }

    #[test]
    fn noise_is_the_spread_of_the_segment_medians_not_of_the_jobs() {
        // Jobs differ by a factor of four inside every segment, yet every
        // segment has the same median: the median is steady.
        let row = Row::from_segments("job_wall_s", &vec![vec![0.1, 0.2, 0.4]; 6], stats::median);
        assert_eq!((row.value, row.samples, row.noise), (0.2, 18, 0.0));
        assert!(row.q3 - row.q1 > 0.1);
        // Segment medians 1..=6: quartiles 1.75 and 5.25, over sqrt(6).
        let segments: Vec<Vec<f64>> = (1..=6).map(|m| vec![f64::from(m)]).collect();
        let row = Row::from_segments("job_wall_s", &segments, stats::median);
        assert!((row.noise - 3.5 / 6f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn the_gate_at_a_tenth_flags_fifteen_percent_and_passes_three() {
        assert_eq!(judge(0.15, 0.01, 0.10), Verdict::Worse);
        assert_eq!(judge(0.03, 0.01, 0.10), Verdict::Within);
        assert_eq!(judge(-0.30, 0.01, 0.10), Verdict::Within);
        // Noise wider than the bound: +15 % cannot be told from it, +3 %
        // cannot be called unchanged, and +200 % is worse all the same.
        assert_eq!(judge(0.15, 0.20, 0.10), Verdict::Unresolved);
        assert_eq!(judge(0.03, 0.20, 0.10), Verdict::Unresolved);
        assert_eq!(judge(2.00, 0.20, 0.10), Verdict::Worse);
    }

    #[test]
    fn diff_flags_a_change_past_the_bound_and_passes_three_percent() {
        let bound = spec::lookup("job_wall_s").and_then(|m| m.bound).expect("bounded");
        let base = record(0.300);
        let slow = record(0.300 * (1.0 + 2.0 * bound));
        let rows = diff(&base, &slow).unwrap();
        assert_eq!(verdict(&rows, "job_wall_s"), Verdict::Worse);
        assert_eq!(verdict(&rows, "net_mb_per_job"), Verdict::Within);
        assert_eq!(print_diff(&rows, &slow), Outcome::Regressed);

        let close = record(0.309);
        let rows = diff(&base, &close).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Within));
        assert_eq!(print_diff(&rows, &close), Outcome::Pass);

        let faster = diff(&base, &record(0.2)).unwrap();
        assert!(faster.iter().all(|r| r.verdict == Verdict::Within));
    }

    /// A job-to-job spread wider than the bound hides nothing: three times
    /// the wall is worse however much the jobs of one run differ.
    #[test]
    fn a_change_clear_of_bound_and_noise_is_worse_whatever_the_job_spread() {
        let wide = |wall: f64| {
            let mut rec = record(wall);
            let segment = vec![wall * 0.5, wall, wall * 1.5];
            rec.results[0].rows[0] =
                Row::from_segments("job_wall_s", &vec![segment; 6], stats::median);
            rec
        };
        let rows = diff(&wide(0.3), &wide(0.9)).unwrap();
        assert_eq!(verdict(&rows, "job_wall_s"), Verdict::Worse);
    }

    #[test]
    fn unresolved_missing_and_failed_rows_do_not_pass() {
        let base = record(0.3);
        // Segment medians from 0.2 to 0.7: noise of 37 % of the base, so
        // the run cannot tell +20 % from it, nor call it unchanged.
        let mut noisy = record(0.36);
        let segments: Vec<Vec<f64>> = [0.2, 0.3, 0.34, 0.38, 0.5, 0.7].map(|m| vec![m]).to_vec();
        noisy.results[0].rows[0] = Row::from_segments("job_wall_s", &segments, stats::median);
        let rows = diff(&base, &noisy).unwrap();
        assert_eq!(verdict(&rows, "job_wall_s"), Verdict::Unresolved);
        let mut quiet = rows.clone();
        quiet.retain(|r| r.metric == "job_wall_s");
        assert_eq!(print_diff(&quiet, &noisy), Outcome::Unresolved);

        let mut truncated = record(0.3);
        truncated.results[0].rows.pop();
        let rows = diff(&base, &truncated).unwrap();
        assert_eq!(verdict(&rows, "peak_rss_mb"), Verdict::Missing);
        assert_eq!(print_diff(&rows, &truncated), Outcome::Regressed);
        truncated.results.remove(0);
        let rows = diff(&base, &truncated).unwrap();
        assert!(rows.len() == 3 && rows.iter().all(|r| r.verdict == Verdict::Missing));

        let mut failing = record(0.3);
        failing.results[0].failed = 1;
        assert_eq!(print_diff(&diff(&base, &failing).unwrap(), &failing), Outcome::Regressed);
    }

    #[test]
    fn records_taken_differently_are_not_compared() {
        let base = record(0.3);
        for change in [
            |p: &mut Provenance| p.seed = 7919,
            |p: &mut Provenance| p.seconds = 5,
            |p: &mut Provenance| p.smoke = true,
        ] {
            let mut other = record(0.3);
            change(&mut other.provenance);
            assert!(diff(&base, &other).is_err());
        }
    }
}
