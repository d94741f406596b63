//! **Table 5** — scaling to the largest graphs (18 machines, orientation
//! optimization).
//!
//! TC and 4-CC on the cl / uk14 / wdc stand-ins, comparing k-Automine on
//! an 18-machine cluster against AutomineIH on one big machine. Both rank
//! their input by degree, so the symmetry-broken AutoMine plan reads the
//! degree-oriented windows of the paper's orientation optimization. The
//! shape to
//! reproduce: the distributed engine wins by exploiting cluster-wide
//! parallelism, and replication-based systems are excluded by memory
//! (reported as the per-replica footprint).
//!
//! Usage: `cargo run -p gpm-bench --release --bin table5_large_graphs [--quick]`

use gpm_baselines::single::SingleMachine;
use gpm_bench::report::{fmt_bytes, fmt_duration, write_stamped, Table};
use gpm_bench::{build_dataset, Scale};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use khuzdul::{Engine, EngineConfig};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    graph: &'static str,
    vertices: usize,
    edges: usize,
    app: &'static str,
    count: u64,
    k_automine_18node_s: f64,
    automine_ih_s: f64,
    speedup: f64,
    graph_bytes: usize,
}

/// Quarter-scale variant of a large web stand-in (same recipe, two fewer
/// R-MAT levels) used for the 4-CC cells.
fn reduced_variant(id: DatasetId) -> gpm_graph::Graph {
    match id {
        DatasetId::Clueweb12 => gpm_graph::gen::rmat(14, 20, (0.65, 0.15, 0.15), 0x636c),
        DatasetId::Uk2014 => gpm_graph::gen::rmat(14, 27, (0.66, 0.15, 0.14), 0x3134),
        DatasetId::Wdc12 => gpm_graph::gen::rmat(15, 18, (0.65, 0.15, 0.15), 0x7764),
        other => other.build(),
    }
}

fn main() {
    let scale = Scale::from_args();
    let machines = 18;
    let mut table = Table::new([
        "Graph",
        "|V|/|E|",
        "App",
        "k-Automine(18n)",
        "AutomineIH",
        "Speedup",
        "Replica size",
    ]);
    let mut rows = Vec::new();
    for id in [DatasetId::Clueweb12, DatasetId::Uk2014, DatasetId::Wdc12] {
        for (app, k) in [("TC", 3usize), ("4-CC", 4)] {
            // 4-CC on the full web stand-ins is past laptop scale even
            // with orientation (dense RMAT cores); it runs on a
            // quarter-scale variant of the same recipe, as the paper's
            // multi-hour 4-CC cells would.
            let g = if k == 4 && scale == Scale::Full {
                reduced_variant(id)
            } else {
                build_dataset(id, scale)
            };
            // Sequential parts + simulated makespan: the host has fewer
            // cores than 18 simulated machines (see fig13's note).
            let engine = Engine::new(
                PartitionedGraph::new(&g, machines, 1),
                EngineConfig {
                    sequential_parts: true,
                    compute_threads: 1,
                    cache: khuzdul::CacheConfig {
                        capacity_per_machine: (g.size_bytes() / 25).max(64 << 10),
                        ..Default::default()
                    },
                    ..EngineConfig::default()
                },
            );
            let single = SingleMachine::automine_ih(g.clone(), 1);
            let plan =
                MatchingPlan::compile(&Pattern::clique(k), &PlanOptions::automine()).unwrap();
            let run = engine.count(&plan);
            let sim = run.simulated_makespan();
            let t0 = Instant::now();
            let s = single.count_plan(&plan);
            let t_single = t0.elapsed();
            engine.shutdown();
            assert_eq!(run.count, s.count, "count mismatch on {}", id.abbr());
            let speedup = t_single.as_secs_f64() / sim.as_secs_f64();
            table.row([
                id.abbr().to_string(),
                format!("{}/{}", g.vertex_count(), g.edge_count()),
                app.to_string(),
                fmt_duration(sim),
                fmt_duration(t_single),
                format!("{speedup:.1}x"),
                fmt_bytes(g.size_bytes() as u64),
            ]);
            rows.push(Row {
                graph: id.abbr(),
                vertices: g.vertex_count(),
                edges: g.edge_count(),
                app,
                count: run.count,
                k_automine_18node_s: sim.as_secs_f64(),
                automine_ih_s: t_single.as_secs_f64(),
                speedup,
                graph_bytes: g.size_bytes(),
            });
        }
    }
    println!("Table 5: Performance on Large-Scale Graphs (degree-ranked input)\n");
    table.print();
    println!(
        "\nReplication-based systems need one full replica per machine \
         (x{machines}); the partitioned engine needs 1/{machines} per machine."
    );
    if let Ok(p) = write_stamped("table5_large_graphs", rows) {
        println!("wrote {}", p.display());
    }
}
