//! **Figure 19** — network bandwidth utilization (k-GraphPi).
//!
//! For mc / pt / lj / fr stand-ins × TC / 3-MC / 4-CC / 5-CC, reports the
//! achieved network utilization under the paper's 56 Gbps InfiniBand
//! model: measured cross-machine bytes divided by the bandwidth available
//! over the run. The paper's shape: the system is compute-bound almost
//! everywhere, so utilization stays low.
//!
//! Usage: `cargo run -p gpm-bench --release --bin fig19_net_util [--quick]`

use gpm_bench::report::{fmt_bytes, fmt_duration, write_stamped, Table};
use gpm_bench::workloads::App;
use gpm_bench::{build_dataset, Scale, PAPER_MACHINES};
use gpm_cluster::NetworkModel;
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::PlanOptions;
use khuzdul::{Engine, EngineConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    app: &'static str,
    graph: &'static str,
    runtime_s: f64,
    network_bytes: u64,
    utilization: f64,
}

fn main() {
    let scale = Scale::from_args();
    let model = NetworkModel::infiniband_56g();
    let mut table = Table::new(["App", "Graph", "Runtime", "Net.Traffic", "Utilization"]);
    let mut rows = Vec::new();
    for id in [DatasetId::Mico, DatasetId::Patents, DatasetId::LiveJournal, DatasetId::Friendster] {
        let g = build_dataset(id, scale);
        // One compute thread per part, so the bytes repeat exactly.
        let cfg =
            EngineConfig { compute_threads: 1, network: Some(model), ..EngineConfig::default() };
        let engine = Engine::new(PartitionedGraph::new(&g, PAPER_MACHINES, 1), cfg);
        for app in App::ALL {
            let run = app.run_khuzdul(&engine, &PlanOptions::graphpi());
            engine.reset_caches();
            // Source everything from the RunReport so the figure and the
            // `--report-out` artifact agree by construction.
            let report = engine.report(&run, "khuzdul-graphpi");
            let util = report.network_utilization(model.bandwidth_gbps, PAPER_MACHINES);
            table.row([
                app.name().to_string(),
                id.abbr().to_string(),
                fmt_duration(run.elapsed),
                fmt_bytes(report.traffic.network_bytes),
                format!("{:.2}%", util * 100.0),
            ]);
            rows.push(Row {
                app: app.name(),
                graph: id.abbr(),
                runtime_s: report.elapsed_ns as f64 / 1e9,
                network_bytes: report.traffic.network_bytes,
                utilization: util,
            });
        }
        engine.shutdown();
    }
    println!(
        "Figure 19: Network Bandwidth Utilization (k-GraphPi, {PAPER_MACHINES} machines, \
         56 Gbps model)\n"
    );
    table.print();
    if let Ok(p) = write_stamped("fig19_net_util", rows) {
        println!("\nwrote {}", p.display());
    }
}
