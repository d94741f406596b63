//! **Figure 18** — sensitivity to chunk size (k-GraphPi, lj stand-in).
//!
//! Chunk capacity swept across four orders of magnitude for TC / 3-MC /
//! 4-CC / 5-CC. The paper's shape: larger chunks help (more parallelism,
//! more in-chunk reuse) until memory pressure; tiny chunks pay heavy
//! pause/resume and per-batch overheads.
//!
//! Usage: `cargo run -p gpm-bench --release --bin fig18_chunk_size [--quick]`

use gpm_bench::report::{fmt_bytes, fmt_duration, write_stamped, Table};
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
    chunk_capacity: usize,
    approx_chunk_bytes: usize,
    runtime_s: f64,
    network_bytes: u64,
}

/// Approximate bytes one chunk occupies at a given embedding capacity
/// (embedding record + amortized fetched-list share).
const APPROX_EMB_BYTES: usize = 64;

fn main() {
    let scale = Scale::from_args();
    let g = build_dataset(DatasetId::LiveJournal, scale);
    let capacities = [64usize, 512, 4 * 1024, 32 * 1024, 256 * 1024];
    let mut table =
        Table::new(["App", "Chunk(embeddings)", "~Chunk bytes", "Runtime", "Net.Traffic"]);
    let mut rows = Vec::new();
    for app in App::ALL {
        for &cap in &capacities {
            let cfg = EngineConfig { chunk_capacity: cap, ..EngineConfig::default() };
            let engine = Engine::new(PartitionedGraph::new(&g, PAPER_MACHINES, 1), cfg);
            let run = app.run_khuzdul(&engine, &PlanOptions::graphpi());
            engine.shutdown();
            table.row([
                app.name().to_string(),
                cap.to_string(),
                fmt_bytes((cap * APPROX_EMB_BYTES) as u64),
                fmt_duration(run.elapsed),
                fmt_bytes(run.traffic.network_bytes),
            ]);
            rows.push(Row {
                app: app.name(),
                chunk_capacity: cap,
                approx_chunk_bytes: cap * APPROX_EMB_BYTES,
                runtime_s: run.elapsed.as_secs_f64(),
                network_bytes: run.traffic.network_bytes,
            });
        }
    }
    println!("Figure 18: Varying Chunk Size (k-GraphPi, lj stand-in)\n");
    table.print();
    if let Ok(p) = write_stamped("fig18_chunk_size", rows) {
        println!("\nwrote {}", p.display());
    }
}
