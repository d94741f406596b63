//! **Table 2** — Khuzdul-based systems vs. GraphPi (replicated graph) and
//! G-thinker (partitioned graph), 8 machines.
//!
//! For each graph × application the harness prints the runtime of
//! k-Automine, k-GraphPi, replicated GraphPi and G-thinker, plus the
//! speedups over G-thinker. The paper's headline shape — Khuzdul beats
//! G-thinker by one to two orders of magnitude and matches or beats
//! replicated GraphPi — should reproduce.
//!
//! Usage: `cargo run -p gpm-bench --release --bin table2_distributed [--quick]`

use gpm_baselines::gthinker::{GThinker, GThinkerConfig};
use gpm_baselines::replicated::{ReplicatedCluster, ReplicatedConfig};
use gpm_bench::report::{fmt_duration, write_stamped, Table};
use gpm_bench::workloads::{engine_for, App};
use gpm_bench::{build_dataset, Scale, PAPER_MACHINES};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::PlanOptions;
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Row {
    app: &'static str,
    graph: &'static str,
    count: u64,
    k_automine_s: f64,
    k_graphpi_s: f64,
    graphpi_replicated_s: f64,
    gthinker_s: f64,
    speedup_ka_over_gt: f64,
    speedup_kg_over_gt: f64,
}

fn main() {
    let scale = Scale::from_args();
    let machines = PAPER_MACHINES;
    let mut table = Table::new([
        "App",
        "G.",
        "k-Automine",
        "k-GraphPi",
        "GraphPi(repl)",
        "G-thinker",
        "KA/GT",
        "KG/GT",
    ]);
    let mut rows = Vec::new();
    for id in DatasetId::SMALL {
        let g = build_dataset(id, scale);
        let engine = engine_for(&g, machines, 1, 2);
        for app in App::ALL {
            let ka = app.run_khuzdul(&engine, &PlanOptions::automine());
            engine.reset_caches();
            let kg = app.run_khuzdul(&engine, &PlanOptions::graphpi());
            engine.reset_caches();

            let repl = {
                let cluster = ReplicatedCluster::new(
                    g.clone(),
                    ReplicatedConfig { machines, threads_per_machine: 2, task_block: 256 },
                );
                let t0 = Instant::now();
                let mut count = 0u64;
                for plan in app.plans(&PlanOptions::graphpi()) {
                    count += cluster.count(&plan).count;
                }
                (count, t0.elapsed())
            };

            let gt = {
                let pg = PartitionedGraph::new(&g, machines, 1);
                let sys = GThinker::new(pg, GThinkerConfig::default());
                let t0 = Instant::now();
                let mut count = 0u64;
                for (p, induced) in app.patterns() {
                    let opts = PlanOptions { induced, ..PlanOptions::automine() };
                    count += sys.count(&p, &opts).expect("gthinker run").count;
                }
                (count, t0.elapsed())
            };

            assert_eq!(ka.count, kg.count, "system disagreement");
            assert_eq!(ka.count, repl.0, "replicated disagreement");
            assert_eq!(ka.count, gt.0, "gthinker disagreement");

            let speedup = |b: Duration, a: Duration| b.as_secs_f64() / a.as_secs_f64();
            table.row([
                app.name().to_string(),
                id.abbr().to_string(),
                fmt_duration(ka.elapsed),
                fmt_duration(kg.elapsed),
                fmt_duration(repl.1),
                fmt_duration(gt.1),
                format!("{:.1}x", speedup(gt.1, ka.elapsed)),
                format!("{:.1}x", speedup(gt.1, kg.elapsed)),
            ]);
            rows.push(Row {
                app: app.name(),
                graph: id.abbr(),
                count: ka.count,
                k_automine_s: ka.elapsed.as_secs_f64(),
                k_graphpi_s: kg.elapsed.as_secs_f64(),
                graphpi_replicated_s: repl.1.as_secs_f64(),
                gthinker_s: gt.1.as_secs_f64(),
                speedup_ka_over_gt: speedup(gt.1, ka.elapsed),
                speedup_kg_over_gt: speedup(gt.1, kg.elapsed),
            });
        }
        engine.shutdown();
    }
    println!("Table 2: Comparing with GraphPi/G-thinker ({machines} machines)\n");
    table.print();
    if let Ok(p) = write_stamped("table2_distributed", rows) {
        println!("\nwrote {}", p.display());
    }
}
