//! **Table 7** — NUMA-aware support (k-GraphPi, single node, 2 sockets).
//!
//! With NUMA support, the node's partition is split into one sub-partition
//! per socket and each socket runs the hybrid exploration independently
//! (§5.4); without, the node is one monolithic part. 4-CC and 5-CC on
//! pt / lj / fr stand-ins.
//!
//! Usage: `cargo run -p gpm-bench --release --bin table7_numa [--quick]`

use gpm_bench::report::{fmt_duration, write_stamped, Table};
use gpm_bench::workloads::App;
use gpm_bench::{build_dataset, Scale};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::PlanOptions;
use khuzdul::{Engine, EngineConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    app: &'static str,
    graph: &'static str,
    numa_s: f64,
    no_numa_s: f64,
    speedup: f64,
}

fn main() {
    let scale = Scale::from_args();
    let total_threads = 4;
    let mut table = Table::new(["App", "Graph", "With NUMA", "No NUMA", "Speedup"]);
    let mut rows = Vec::new();
    for id in [DatasetId::Patents, DatasetId::LiveJournal, DatasetId::Friendster] {
        let g = build_dataset(id, scale);
        for app in [App::FourCc, App::FiveCc] {
            // NUMA-aware: 2 socket parts, half the threads each.
            let numa = {
                let cfg =
                    EngineConfig { compute_threads: total_threads / 2, ..EngineConfig::default() };
                let engine = Engine::new(PartitionedGraph::new(&g, 1, 2), cfg);
                let run = app.run_khuzdul(&engine, &PlanOptions::graphpi());
                engine.shutdown();
                run
            };
            // NUMA-oblivious: one part, all threads on one shared state.
            let flat = {
                let cfg =
                    EngineConfig { compute_threads: total_threads, ..EngineConfig::default() };
                let engine = Engine::new(PartitionedGraph::new(&g, 1, 1), cfg);
                let run = app.run_khuzdul(&engine, &PlanOptions::graphpi());
                engine.shutdown();
                run
            };
            assert_eq!(numa.count, flat.count);
            let speedup = flat.elapsed.as_secs_f64() / numa.elapsed.as_secs_f64();
            table.row([
                app.name().to_string(),
                id.abbr().to_string(),
                format!("{} ({speedup:.2}x)", fmt_duration(numa.elapsed)),
                fmt_duration(flat.elapsed),
                format!("{speedup:.2}x"),
            ]);
            rows.push(Row {
                app: app.name(),
                graph: id.abbr(),
                numa_s: numa.elapsed.as_secs_f64(),
                no_numa_s: flat.elapsed.as_secs_f64(),
                speedup,
            });
        }
    }
    println!("Table 7: NUMA-Aware Support (1 node, 2 sockets, {total_threads} threads)\n");
    table.print();
    if let Ok(p) = write_stamped("table7_numa", rows) {
        println!("\nwrote {}", p.display());
    }
}
