//! **Figure 14** — intra-node scalability and the COST metric.
//!
//! k-Automine on one machine using 1–8 cores for TC / 3-MC / 4-CC on the
//! lj stand-in, against the best single-thread runtime among the in-repo
//! single-machine systems (the COST reference of McSherry et al.).
//!
//! **Methodology note:** the benchmark host may have a single physical
//! core, so real threads cannot speed anything up. Cores are therefore
//! modeled as NUMA-socket parts executed sequentially (each socket is one
//! core's worth of independent work, exactly the engine's §5.4 per-socket
//! exploration), and the reported runtime is the simulated makespan — the
//! busiest core. The single-thread reference is measured directly (it is
//! accurate on one core).
//!
//! Usage: `cargo run -p gpm-bench --release --bin fig14_intranode [--quick]`

use gpm_baselines::single::SingleMachine;
use gpm_bench::report::{fmt_duration, write_stamped, Table};
use gpm_bench::workloads::App;
use gpm_bench::{build_dataset, Scale};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::PlanOptions;
use khuzdul::{Engine, EngineConfig};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    app: &'static str,
    cores: usize,
    runtime_s: f64,
    speedup_vs_1: f64,
    reference_s: f64,
}

fn best_single_thread(g: &gpm_graph::Graph, app: App) -> Duration {
    [SingleMachine::automine_ih(g.clone(), 1), SingleMachine::peregrine_like(g.clone(), 1)]
        .iter()
        .map(|sys| app.run_single(sys).1)
        .min()
        .expect("two systems")
}

fn main() {
    let scale = Scale::from_args();
    let g = build_dataset(DatasetId::LiveJournal, scale);
    let core_counts = [1usize, 2, 4, 8];
    let mut table =
        Table::new(["App", "#Cores", "Runtime (sim)", "Speedup", "1-thread ref", "Beats ref?"]);
    let mut rows = Vec::new();
    let mut cost_metrics: Vec<(&str, Option<usize>)> = Vec::new();
    for app in [App::Tc, App::ThreeMc, App::FourCc] {
        let reference = best_single_thread(&g, app);
        let mut base: Option<Duration> = None;
        let mut cost: Option<usize> = None;
        for &cores in &core_counts {
            // One machine, `cores` NUMA-socket parts run sequentially.
            let engine = Engine::new(
                PartitionedGraph::new(&g, 1, cores),
                EngineConfig {
                    sequential_parts: true,
                    compute_threads: 1,
                    ..EngineConfig::default()
                },
            );
            let run = app.run_khuzdul(&engine, &PlanOptions::automine());
            engine.shutdown();
            let sim = run.simulated_makespan();
            let base_t = *base.get_or_insert(sim);
            let speedup = base_t.as_secs_f64() / sim.as_secs_f64();
            let beats = sim < reference;
            if beats && cost.is_none() {
                cost = Some(cores);
            }
            table.row([
                app.name().to_string(),
                cores.to_string(),
                fmt_duration(sim),
                format!("{speedup:.2}x"),
                fmt_duration(reference),
                if beats { "yes" } else { "no" }.to_string(),
            ]);
            rows.push(Row {
                app: app.name(),
                cores,
                runtime_s: sim.as_secs_f64(),
                speedup_vs_1: speedup,
                reference_s: reference.as_secs_f64(),
            });
        }
        cost_metrics.push((app.name(), cost));
    }
    println!(
        "Figure 14: Intra-Node Scalability (lj stand-in, cores modeled as \
         sequential socket parts)\n"
    );
    table.print();
    println!("\nCOST metric (cores to beat the best single-thread system):");
    for (app, cost) in cost_metrics {
        match cost {
            Some(c) => println!("  {app}: {c}"),
            None => println!("  {app}: not reached at 8 cores"),
        }
    }
    if let Ok(p) = write_stamped("fig14_intranode", rows) {
        println!("\nwrote {}", p.display());
    }
}
