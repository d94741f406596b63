//! **Figure 16** — comparing cache replacement policies (k-GraphPi).
//!
//! FIFO / LIFO / LRU / MRU / STATIC on lj and fr stand-ins across TC /
//! 3-MC / 4-CC / 5-CC; runtime and network traffic normalized to STATIC.
//! The paper's shape: replacement policies sometimes save a little
//! traffic, but STATIC wins runtime because it pays no per-lookup
//! bookkeeping and no allocator churn.
//!
//! Usage: `cargo run -p gpm-bench --release --bin fig16_cache_policies [--quick]`

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
    policy: String,
    runtime_s: f64,
    network_bytes: u64,
    norm_runtime: f64,
    norm_traffic: f64,
}

const POLICIES: [CachePolicy; 5] =
    [CachePolicy::Fifo, CachePolicy::Lifo, CachePolicy::Lru, CachePolicy::Mru, CachePolicy::Static];

fn main() {
    let scale = Scale::from_args();
    let mut table = Table::new(["Workload", "Policy", "Norm.Runtime", "Norm.Net.Traffic"]);
    let mut rows = Vec::new();
    for id in [DatasetId::LiveJournal, DatasetId::Friendster] {
        let g = build_dataset(id, scale);
        for app in App::ALL {
            let mut results = Vec::new();
            for policy in POLICIES {
                // One compute thread per part, so the bytes repeat exactly.
                let cfg = EngineConfig {
                    compute_threads: 1,
                    cache: CacheConfig {
                        policy,
                        capacity_per_machine: (g.size_bytes() / 20).max(32 << 10),
                        degree_threshold: 16,
                    },
                    ..EngineConfig::default()
                };
                let engine = Engine::new(PartitionedGraph::new(&g, PAPER_MACHINES, 1), cfg);
                let run = app.run_khuzdul(&engine, &PlanOptions::graphpi());
                engine.shutdown();
                results.push((policy, run));
            }
            let counts: Vec<u64> = results.iter().map(|(_, r)| r.count).collect();
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "policy changed counts");
            let (_, static_run) = results.last().expect("static last");
            let st = static_run.elapsed.as_secs_f64();
            let sb = static_run.traffic.network_bytes.max(1) as f64;
            let workload = format!("{}-{}", id.abbr(), app.name());
            for (policy, run) in &results {
                let nr = run.elapsed.as_secs_f64() / st;
                let nt = run.traffic.network_bytes as f64 / sb;
                table.row([
                    workload.clone(),
                    format!("{policy:?}"),
                    format!("{nr:.2}"),
                    format!("{nt:.2}"),
                ]);
                rows.push(Row {
                    workload: workload.clone(),
                    policy: format!("{policy:?}"),
                    runtime_s: run.elapsed.as_secs_f64(),
                    network_bytes: run.traffic.network_bytes,
                    norm_runtime: nr,
                    norm_traffic: nt,
                });
            }
        }
    }
    println!("Figure 16: Comparing Different Cache Policies (k-GraphPi, normalized to STATIC)\n");
    table.print();
    if let Ok(p) = write_stamped("fig16_cache_policies", rows) {
        println!("\nwrote {}", p.display());
    }
}
