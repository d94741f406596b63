//! **Figure 17** — varying the cache size (k-GraphPi).
//!
//! Static-cache capacity swept from 1% to 50% of the graph size on the lj
//! and fr stand-ins (TC and 4-CC); reports network traffic and runtime
//! normalized to the 1% point plus the cache hit rate. The paper's shape:
//! traffic falls and hit rate rises with capacity, with diminishing
//! runtime returns once communication is hidden.
//!
//! Usage: `cargo run -p gpm-bench --release --bin fig17_cache_size [--quick]`

use gpm_bench::report::{write_stamped, Table};
use gpm_bench::workloads::App;
use gpm_bench::{build_dataset, Scale, PAPER_MACHINES};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::PlanOptions;
use khuzdul::{CacheConfig, CachePolicy, Engine, EngineConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: String,
    cache_fraction: f64,
    norm_traffic: f64,
    hit_rate: f64,
    norm_runtime: f64,
}

fn main() {
    let scale = Scale::from_args();
    let fractions = [0.01f64, 0.05, 0.10, 0.20, 0.30, 0.50];
    let mut table =
        Table::new(["Workload", "Cache/Graph", "Norm.Traffic", "HitRate", "Norm.Runtime"]);
    let mut rows = Vec::new();
    for id in [DatasetId::LiveJournal, DatasetId::Friendster] {
        let g = build_dataset(id, scale);
        for app in [App::Tc, App::FourCc] {
            let mut base: Option<(f64, f64)> = None; // (traffic, runtime)
            for &frac in &fractions {
                // One compute thread per part, so the bytes repeat exactly.
                let cfg = EngineConfig {
                    compute_threads: 1,
                    cache: CacheConfig {
                        policy: CachePolicy::Static,
                        capacity_per_machine: ((g.size_bytes() as f64 * frac) as usize)
                            .max(1 << 10),
                        degree_threshold: 8,
                    },
                    ..EngineConfig::default()
                };
                let engine = Engine::new(PartitionedGraph::new(&g, PAPER_MACHINES, 1), cfg);
                let run = app.run_khuzdul(&engine, &PlanOptions::graphpi());
                engine.shutdown();
                let (bt, br) = *base.get_or_insert((
                    run.traffic.network_bytes.max(1) as f64,
                    run.elapsed.as_secs_f64(),
                ));
                let norm_traffic = run.traffic.network_bytes as f64 / bt;
                let norm_runtime = run.elapsed.as_secs_f64() / br;
                let hit_rate = run.traffic.cache_hit_rate().unwrap_or(0.0);
                let workload = format!("{}-{}", id.abbr(), app.name());
                table.row([
                    workload.clone(),
                    format!("{:.0}%", frac * 100.0),
                    format!("{norm_traffic:.3}"),
                    format!("{:.1}%", hit_rate * 100.0),
                    format!("{norm_runtime:.2}"),
                ]);
                rows.push(Row {
                    workload,
                    cache_fraction: frac,
                    norm_traffic,
                    hit_rate,
                    norm_runtime,
                });
            }
        }
    }
    println!("Figure 17: Varying Cache Size (k-GraphPi, normalized to the 1% point)\n");
    table.print();
    if let Ok(p) = write_stamped("fig17_cache_size", rows) {
        println!("\nwrote {}", p.display());
    }
}
