//! **Figure 12** — effect of horizontal data sharing (HDS).
//!
//! 4-CC and 5-CC on mc / pt / lj / fr stand-ins with and without the
//! in-chunk share table (§5.2), the only dedup before the wire. Reports
//! network traffic and critical-path communication time normalized to the
//! without-HDS run. The paper's shape: large traffic cuts on skewed
//! graphs, moderate on pt; CI fails a `--quick` run with a row not below 1.
//!
//! Usage: `cargo run -p gpm-bench --release --bin fig12_hds [--quick]`

use gpm_bench::report::{fmt_bytes, write_stamped, Table};
use gpm_bench::workloads::App;
use gpm_bench::{build_dataset, Scale, PAPER_MACHINES};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::PlanOptions;
use khuzdul::{CacheConfig, Engine, EngineConfig, RunStats};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    app: &'static str,
    graph: &'static str,
    norm_traffic: f64,
    norm_comm_time: f64,
    with_bytes: u64,
    without_bytes: u64,
}

fn comm_time(r: &RunStats) -> Duration {
    r.per_part.iter().map(|p| p.network).sum()
}

fn main() {
    let scale = Scale::from_args();
    let mut table = Table::new([
        "App",
        "Graph",
        "Norm.Traffic",
        "Norm.CommTime",
        "Traffic(HDS)",
        "Traffic(none)",
    ]);
    let mut rows = Vec::new();
    for id in [DatasetId::Mico, DatasetId::Patents, DatasetId::LiveJournal, DatasetId::Friendster] {
        let g = build_dataset(id, scale);
        for app in [App::FourCc, App::FiveCc] {
            let run = |horizontal: bool| {
                // One compute thread per part, so the bytes repeat exactly.
                let cfg = EngineConfig {
                    compute_threads: 1,
                    horizontal_sharing: horizontal,
                    // Isolate HDS: no cache, as the ablation intends.
                    cache: CacheConfig::disabled(),
                    ..EngineConfig::default()
                };
                let engine = Engine::new(PartitionedGraph::new(&g, PAPER_MACHINES, 1), cfg);
                let r = app.run_khuzdul(&engine, &PlanOptions::graphpi());
                engine.shutdown();
                r
            };
            let with = run(true);
            let without = run(false);
            assert_eq!(with.count, without.count);
            let norm_traffic =
                with.traffic.network_bytes as f64 / without.traffic.network_bytes.max(1) as f64;
            let norm_comm =
                comm_time(&with).as_secs_f64() / comm_time(&without).as_secs_f64().max(1e-12);
            table.row([
                app.name().to_string(),
                id.abbr().to_string(),
                format!("{norm_traffic:.3}"),
                format!("{norm_comm:.3}"),
                fmt_bytes(with.traffic.network_bytes),
                fmt_bytes(without.traffic.network_bytes),
            ]);
            rows.push(Row {
                app: app.name(),
                graph: id.abbr(),
                norm_traffic,
                norm_comm_time: norm_comm,
                with_bytes: with.traffic.network_bytes,
                without_bytes: without.traffic.network_bytes,
            });
        }
    }
    println!("Figure 12: Effect of Horizontal Data Sharing (k-GraphPi, normalized to no-HDS)\n");
    table.print();
    if let Ok(p) = write_stamped("fig12_hds", rows) {
        println!("\nwrote {}", p.display());
    }
}
