//! Table printing and JSON result emission.

use serde::{Serialize, Value};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Formats a duration the way the paper's tables do (`35.3ms`, `2.2s`,
/// `1.1h`).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 3600.0 {
        format!("{:.1}h", s / 3600.0)
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Formats a byte count (`33.8GB`, `962.1MB`, …).
pub fn fmt_bytes(b: u64) -> String {
    let b = b as f64;
    const KB: f64 = 1024.0;
    if b >= KB * KB * KB * KB {
        format!("{:.1}TB", b / (KB * KB * KB * KB))
    } else if b >= KB * KB * KB {
        format!("{:.1}GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1}MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1}KB", b / KB)
    } else {
        format!("{b:.0}B")
    }
}

/// An aligned plain-text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (short rows are padded).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate().take(cols) {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Writes experiment rows as JSON next to the repository (for
/// EXPERIMENTS.md bookkeeping and plotting), stamped:
/// `{commit, date, rows}`, with the tree that produced them as
/// `git describe --always --dirty` names it and the UTC date they were
/// measured on (`unknown` where either command fails).
pub fn write_stamped<R: Serialize>(experiment: &str, rows: Vec<R>) -> std::io::Result<PathBuf> {
    let run = |cmd: &str, args: &[&str]| -> String {
        let out = std::process::Command::new(cmd).args(args).output().ok();
        let out = out.filter(|out| out.status.success());
        out.map_or_else(
            || "unknown".into(),
            |out| String::from_utf8_lossy(&out.stdout).trim().into(),
        )
    };
    let stamped = Value::Map(vec![
        (
            "commit".into(),
            run("git", &["describe", "--always", "--dirty", "--abbrev=12"]).to_value(),
        ),
        ("date".into(), run("date", &["-u", "+%F"]).to_value()),
        ("rows".into(), rows.to_value()),
    ]);
    write_json(experiment, &stamped)
}

/// Writes `doc` as pretty JSON to `$GPM_BENCH_OUT/{experiment}.json`
/// (`bench_results/` by default).
fn write_json<T: Serialize>(experiment: &str, doc: &T) -> std::io::Result<PathBuf> {
    let dir = std::env::var("GPM_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("bench_results"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{experiment}.json"));
    let file = std::fs::File::create(&path)?;
    serde_json::to_writer_pretty(file, doc)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500µs");
        assert_eq!(fmt_duration(Duration::from_millis(35)), "35.0ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(2.25)), "2.25s");
        assert_eq!(fmt_duration(Duration::from_secs(3960)), "1.1h");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(5 << 20), "5.0MB");
        assert_eq!(fmt_bytes(3 << 30), "3.0GB");
        assert_eq!(fmt_bytes(2 << 40), "2.0TB");
    }

    #[test]
    fn table_alignment() {
        let mut t = Table::new(["app", "runtime"]);
        t.row(["TC", "35.3ms"]);
        t.row(["5-CC-long-name", "1.1h"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[2].contains("35.3ms"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["x"]);
        assert!(t.render().lines().count() == 3);
    }
}
