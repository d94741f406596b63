//! **Figure 13** — inter-node scalability (lj stand-in).
//!
//! Runtime of k-GraphPi vs. replicated GraphPi over 1 / 2 / 4 / 8
//! machines for TC, 3-MC, 4-CC, 5-CC. The paper's shape: k-GraphPi scales
//! near-linearly (≈6.8× at 8 nodes) and at least as well as the
//! replicated system.
//!
//! **Methodology note:** the benchmark host may have fewer physical cores
//! than simulated machines (the CI box has one), so wall clock measures
//! core contention, not the cluster. The engine therefore runs its parts
//! *sequentially* and the reported runtime is the **simulated makespan**:
//! the busiest machine's accounted time, the standard work-span estimate
//! (see `EXPERIMENTS.md`). The replicated baseline is scaled the same way
//! (total root work divided over machines, busiest block measured).
//!
//! Usage: `cargo run -p gpm-bench --release --bin fig13_internode [--quick]`

use gpm_bench::report::{fmt_duration, write_stamped, Table};
use gpm_bench::workloads::App;
use gpm_bench::{build_dataset, Scale};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::interp;
use gpm_pattern::plan::PlanOptions;
use khuzdul::{Engine, EngineConfig};
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Row {
    app: &'static str,
    machines: usize,
    k_graphpi_s: f64,
    graphpi_replicated_s: f64,
    k_graphpi_speedup_vs_1: f64,
    replicated_speedup_vs_1: f64,
}

/// Replicated GraphPi under the same work-span methodology: machines
/// process static root blocks (coarse first-loop parallelism); the
/// simulated runtime is the busiest machine's block, measured alone.
fn replicated_makespan(g: &gpm_graph::Graph, app: App, machines: usize) -> Duration {
    let n = g.vertex_count();
    let span = n.div_ceil(machines);
    let plans = app.plans(&PlanOptions::graphpi());
    let mut worst = Duration::ZERO;
    let mut bufs = interp::Buffers::default();
    for m in 0..machines {
        let t0 = Instant::now();
        for plan in &plans {
            for v in (m * span)..((m + 1) * span).min(n) {
                interp::count_from_root(g, plan, v as u32, &mut bufs);
            }
        }
        worst = worst.max(t0.elapsed());
    }
    worst
}

fn main() {
    let scale = Scale::from_args();
    let machine_counts = [1usize, 2, 4, 8];
    let g = build_dataset(DatasetId::LiveJournal, scale);
    let mut table = Table::new([
        "App",
        "#Machines",
        "k-GraphPi (sim)",
        "GraphPi(repl, sim)",
        "k-GraphPi speedup",
        "repl speedup",
    ]);
    let mut rows = Vec::new();
    for app in App::ALL {
        let mut kg_base: Option<Duration> = None;
        let mut repl_base: Option<Duration> = None;
        for &machines in &machine_counts {
            let engine = Engine::new(
                PartitionedGraph::new(&g, machines, 1),
                EngineConfig {
                    sequential_parts: true,
                    compute_threads: 1,
                    ..EngineConfig::default()
                },
            );
            let run = app.run_khuzdul(&engine, &PlanOptions::graphpi());
            engine.shutdown();
            let kg = run.simulated_makespan();
            let repl = replicated_makespan(&g, app, machines);
            let kg_b = *kg_base.get_or_insert(kg);
            let repl_b = *repl_base.get_or_insert(repl);
            let kg_speedup = kg_b.as_secs_f64() / kg.as_secs_f64();
            let repl_speedup = repl_b.as_secs_f64() / repl.as_secs_f64();
            table.row([
                app.name().to_string(),
                machines.to_string(),
                fmt_duration(kg),
                fmt_duration(repl),
                format!("{kg_speedup:.2}x"),
                format!("{repl_speedup:.2}x"),
            ]);
            rows.push(Row {
                app: app.name(),
                machines,
                k_graphpi_s: kg.as_secs_f64(),
                graphpi_replicated_s: repl.as_secs_f64(),
                k_graphpi_speedup_vs_1: kg_speedup,
                replicated_speedup_vs_1: repl_speedup,
            });
        }
    }
    println!("Figure 13: Inter-Node Scalability (graph: lj stand-in, simulated makespans)\n");
    table.print();
    if let Ok(p) = write_stamped("fig13_internode", rows) {
        println!("\nwrote {}", p.display());
    }
}
