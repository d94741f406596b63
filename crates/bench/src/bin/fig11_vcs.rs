//! **Figure 11** — speedup from vertical computation sharing (VCS).
//!
//! 4-CC and 5-CC on mc / pt / lj / fr stand-ins with and without the
//! intermediate-result reuse annotations (§5.1, Figure 9). The paper's
//! shape: ~2× average speedup, smallest on pt where extensions are cheap.
//!
//! Usage: `cargo run -p gpm-bench --release --bin fig11_vcs [--quick]`

use gpm_bench::report::{fmt_duration, write_stamped, Table};
use gpm_bench::workloads::App;
use gpm_bench::{build_dataset, Scale, PAPER_MACHINES};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::PlanOptions;
use khuzdul::{Engine, EngineConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    app: &'static str,
    graph: &'static str,
    with_vcs_s: f64,
    without_vcs_s: f64,
    speedup: f64,
}

fn main() {
    let scale = Scale::from_args();
    let mut table = Table::new(["App", "Graph", "With VCS", "Without VCS", "Speedup"]);
    let mut rows = Vec::new();
    for id in [DatasetId::Mico, DatasetId::Patents, DatasetId::LiveJournal, DatasetId::Friendster] {
        let g = build_dataset(id, scale);
        let engine =
            Engine::new(PartitionedGraph::new(&g, PAPER_MACHINES, 1), EngineConfig::default());
        for app in [App::FourCc, App::FiveCc] {
            let base = PlanOptions::graphpi();
            let with = app.run_khuzdul(&engine, &base);
            engine.reset_caches();
            let without = app.run_khuzdul(&engine, &PlanOptions { vertical_reuse: false, ..base });
            engine.reset_caches();
            assert_eq!(with.count, without.count);
            let speedup = without.elapsed.as_secs_f64() / with.elapsed.as_secs_f64();
            table.row([
                app.name().to_string(),
                id.abbr().to_string(),
                fmt_duration(with.elapsed),
                fmt_duration(without.elapsed),
                format!("{speedup:.2}x"),
            ]);
            rows.push(Row {
                app: app.name(),
                graph: id.abbr(),
                with_vcs_s: with.elapsed.as_secs_f64(),
                without_vcs_s: without.elapsed.as_secs_f64(),
                speedup,
            });
        }
        engine.shutdown();
    }
    println!("Figure 11: Speedup by Vertical Computation Sharing (k-GraphPi)\n");
    table.print();
    if let Ok(p) = write_stamped("fig11_vcs", rows) {
        println!("\nwrote {}", p.display());
    }
}
