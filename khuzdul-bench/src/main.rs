//! `khuzdul-bench` — the repository's benchmark.
//!
//! ```text
//! khuzdul-bench --workload NAME --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command does)
//! khuzdul-bench [--seed N] [--trace 1] [--smoke] [--out FILE]      every workload, each in a child process
//! khuzdul-bench diff BASE.json CAND.json                           compare two records under the bounds
//! khuzdul-bench repeat-check [--seed N]                            run the end-to-end set twice and diff
//! khuzdul-bench spec                                               print BENCHMARK.json
//! ```
//!
//! `diff` and `repeat-check` exit 0 when every row is within its bound, 1
//! when a row is worse or missing or an operation failed, 3 when nothing is
//! worse but a row is too noisy to be called unchanged.
//!
//! See `README.md` beside this crate for what each metric is for and how
//! two commits are compared.

mod probes;
mod record;
mod spec;
mod stats;
mod trace;
mod workloads;

use record::{Outcome, Provenance, Record, WorkloadResult};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;
use workloads::{Kind, Params};

/// Marks the line on which a child hands its full rows to its parent.
const RECORD_MARK: &str = "#record ";

/// The parsed command line of a measuring invocation.
#[derive(Debug, Clone, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    traced: bool,
    smoke: bool,
    trace_out: Option<String>,
    out: Option<String>,
    emit_record: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => cli.workload = Some(value()?),
                "--seed" => cli.seed = Some(number(flag, &value()?)?),
                "--seconds" => cli.seconds = Some(number(flag, &value()?)?),
                "--trace" => cli.traced = number(flag, &value()?)? != 0,
                "--smoke" => cli.smoke = true,
                "--trace-out" => cli.trace_out = Some(value()?),
                "--out" => cli.out = Some(value()?),
                "--emit-record" => cli.emit_record = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(cli)
    }

    fn seed(&self) -> u64 {
        self.seed.unwrap_or(spec::DEFAULT_SEED)
    }

    /// `--smoke` measures a second per workload unless told otherwise, so
    /// that both tiers of all four workloads end within half a minute.
    fn seconds(&self) -> u64 {
        self.seconds.unwrap_or(if self.smoke { 1 } else { spec::RUN_SECONDS })
    }

    fn params(&self) -> Params {
        Params { seed: self.seed(), seconds: self.seconds() as f64, smoke: self.smoke }
    }

    fn provenance(&self) -> Provenance {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
            .unwrap_or_default();
        Provenance {
            seed: self.seed(),
            seconds: self.seconds(),
            smoke: self.smoke,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            cpu,
            commit: String::new(),
        }
    }
}

/// The tree this binary's sources are in, as git names it; `unknown` in a
/// checkout that is not a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "describe", "--always", "--dirty", "--abbrev=12"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn number(flag: &str, text: &str) -> Result<u64, String> {
    text.parse().map_err(|_| format!("{flag} wants a whole number, not {text}"))
}

/// Measures one tier of one workload in this process.
fn run_one(kind: Kind, params: &Params, traced: bool, trace_out: Option<&str>) -> WorkloadResult {
    let result = if traced {
        let mut tracer = Tracer::new(true);
        let result = workloads::per_layer(kind, params, &mut tracer);
        if let Some(path) = trace_out {
            let spans =
                serde_json::to_string(&tracer.to_json(kind.name())).expect("in-memory JSON");
            std::fs::write(path, spans).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("{} harness spans written to {path}", tracer.len());
        }
        result
    } else {
        workloads::end_to_end(kind, params)
    };
    let tier: &[spec::MetricSpec] = if traced { &spec::PER_LAYER } else { &spec::END_TO_END };
    let emitted: Vec<&str> = result.rows.iter().map(|r| r.metric.as_str()).collect();
    for m in tier {
        assert!(emitted.contains(&m.name), "{} is in spec.rs but was not measured", m.name);
    }
    assert_eq!(emitted.len(), tier.len(), "a metric of the other tier was measured");
    result
}

fn write_record(path: &str, record: &Record) {
    let mut text = serde_json::to_string_pretty(&record.to_json()).expect("in-memory JSON");
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("record written to {path}");
}

/// `--workload NAME`: one run in this process, ending with the result line.
fn single(cli: &Cli, name: &str) -> Result<bool, String> {
    let kind = Kind::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let result = run_one(kind, &cli.params(), cli.traced, cli.trace_out.as_deref());
    result.print();
    let ok = result.failed == 0;
    let line = serde_json::to_string(&result.contract_line()).expect("in-memory JSON");
    // The driver's runs ask for neither. A child's provenance is dropped by
    // its parent, which has asked git already.
    if cli.out.is_some() || cli.emit_record {
        let mut provenance = cli.provenance();
        if cli.out.is_some() {
            provenance.commit = commit();
        }
        let record = Record { provenance, results: vec![result] };
        if let Some(path) = &cli.out {
            write_record(path, &record);
        }
        if cli.emit_record {
            println!(
                "{RECORD_MARK}{}",
                serde_json::to_string(&record.to_json()).expect("in-memory JSON")
            );
        }
    }
    println!("{line}");
    Ok(ok)
}

/// Runs one tier of one workload in a child process of this program, so
/// that its peak memory is its own, and waits for it to end.
fn child(cli: &Cli, kind: Kind, traced: bool) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--emit-record"])
        .args(["--seed", &cli.seed().to_string(), "--seconds", &cli.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(prefix)) = (traced, &cli.trace_out) {
        cmd.args(["--trace-out", &format!("{prefix}.{}.json", kind.name())]);
    }
    let output = cmd.output().map_err(|e| format!("starting the {} child: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop(); // the result line, for the driver
    let record = lines.pop().and_then(|l| l.strip_prefix(RECORD_MARK)).map(Record::parse);
    for line in lines {
        println!("{line}");
    }
    match record {
        Some(Ok(mut record)) if record.results.len() == 1 => Ok(record.results.remove(0)),
        Some(Err(e)) => Err(format!("{} child's record: {e}", kind.name())),
        _ => Err(format!("{} child ended with {} and no record", kind.name(), output.status)),
    }
}

/// Every workload's end-to-end run, and with `--trace 1` its traced run
/// too, each in a child process.
fn all_workloads(cli: &Cli) -> Result<Record, String> {
    let provenance = Provenance { commit: commit(), ..cli.provenance() };
    let mut record = Record { provenance, results: Vec::new() };
    for kind in Kind::ALL {
        record.results.push(child(cli, kind, false)?);
        if cli.traced {
            record.results.push(child(cli, kind, true)?);
        }
    }
    Ok(record)
}

fn measure(cli: &Cli) -> Result<Outcome, String> {
    let ok = match &cli.workload {
        Some(name) => single(cli, name)?,
        None => {
            let record = all_workloads(cli)?;
            if let Some(path) = &cli.out {
                write_record(path, &record);
            }
            record.failed() == 0
        }
    };
    Ok(if ok { Outcome::Pass } else { Outcome::Regressed })
}

fn diff(args: &[String]) -> Result<Outcome, String> {
    let [base, cand] = args else {
        return Err("usage: khuzdul-bench diff BASE.json CAND.json".to_string());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Record::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, cand) = (read(base)?, read(cand)?);
    Ok(record::print_diff(&record::diff(&base, &cand)?, &cand))
}

/// Two end-to-end sets from one invocation of the same code, diffed under
/// the benchmark's own bounds: they must agree, or the benchmark is too
/// noisy to judge anything else.
fn repeat_check(cli: &Cli) -> Result<Outcome, String> {
    let first = all_workloads(cli)?;
    let second = all_workloads(cli)?;
    let outcome = record::print_diff(&record::diff(&first, &second)?, &second);
    Ok(if first.failed() > 0 { Outcome::Regressed } else { outcome })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&spec::benchmark_json()).expect("in-memory JSON")
            );
            Ok(Outcome::Pass)
        }
        Some("diff") => diff(&args[1..]),
        Some("repeat-check") => Cli::parse(&args[1..]).and_then(|cli| repeat_check(&cli)),
        _ => Cli::parse(&args).and_then(|cli| measure(&cli)),
    };
    match outcome {
        Ok(outcome) => ExitCode::from(outcome as u8),
        Err(e) => {
            eprintln!("khuzdul-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    /// The names under `key` in the `BENCHMARK.json` on disk.
    fn listed(key: &str) -> BTreeSet<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let Value::Map(top) = gpm_obs::parse_json(&text).expect("BENCHMARK.json parses") else {
            panic!("BENCHMARK.json is not an object");
        };
        let Some((_, Value::Seq(items))) = top.iter().find(|(k, _)| k == key) else {
            panic!("BENCHMARK.json has no list {key}");
        };
        items
            .iter()
            .map(|item| match item {
                Value::Map(fields) => match fields.iter().find(|(k, _)| k == "name") {
                    Some((_, Value::Str(name))) => name.clone(),
                    _ => panic!("an entry of {key} has no name"),
                },
                _ => panic!("an entry of {key} is not an object"),
            })
            .collect()
    }

    /// A smoke run of every workload emits exactly the names
    /// `BENCHMARK.json` lists, in both tiers, and fails no operation.
    #[test]
    fn a_smoke_run_emits_exactly_the_listed_metrics() {
        let workloads: BTreeSet<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(workloads, listed("workloads"));
        let params = Params { seed: spec::DEFAULT_SEED, seconds: 0.2, smoke: true };
        for kind in Kind::ALL {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let result = run_one(kind, &params, traced, None);
                let emitted: BTreeSet<String> =
                    result.rows.iter().map(|r| r.metric.clone()).collect();
                assert_eq!(emitted, listed(key), "{} {key}", kind.name());
                assert!(result.attempted >= 1, "{} {key}", kind.name());
                assert_eq!(result.failed, 0, "{} {key}", kind.name());
                assert!(result.rows.iter().all(|r| r.value.is_finite()), "{} {key}", kind.name());
            }
        }
    }

    #[test]
    fn the_contract_flags_parse_and_strays_are_refused() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli =
            Cli::parse(&args("--workload steal_msg --seed 3 --seconds 15 --trace 1")).unwrap();
        assert_eq!(
            (cli.workload.as_deref(), cli.seed(), cli.seconds(), cli.traced),
            (Some("steal_msg"), 3, 15, true)
        );
        assert!(Cli::parse(&args("--traced")).is_err());
        let cli = Cli::parse(&args("--smoke")).unwrap();
        assert_eq!((cli.seed(), cli.seconds(), cli.traced), (spec::DEFAULT_SEED, 1, false));
        assert_eq!(Cli::parse(&[]).unwrap().seconds(), spec::RUN_SECONDS);
        assert!(Cli::parse(&args("--seed")).is_err());
        assert!(Cli::parse(&args("--seed twelve")).is_err());
        assert!(Cli::parse(&args("--wrkload x")).is_err());
    }
}
