//! **Figure 15** — runtime breakdown of G-thinker vs. k-Automine.
//!
//! For mc / pt / lj stand-ins × TC / 3-MC / 4-CC / 5-CC, prints the
//! fraction of accounted runtime spent in network / compute / scheduler /
//! cache for both systems. The paper's shape: G-thinker drowns in
//! scheduler + cache bookkeeping (≈86% combined), k-Automine is compute-
//! dominated, with pt the outlier where extensions are too cheap to
//! amortize scheduling.
//!
//! Usage: `cargo run -p gpm-bench --release --bin fig15_breakdown [--quick]`

use gpm_baselines::gthinker::{GThinker, GThinkerConfig};
use gpm_bench::report::{write_stamped, Table};
use gpm_bench::workloads::{engine_for, App};
use gpm_bench::{build_dataset, Scale, PAPER_MACHINES};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_obs::RunReport;
use gpm_pattern::plan::PlanOptions;
use khuzdul::RunStats;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    system: &'static str,
    app: &'static str,
    graph: &'static str,
    compute: f64,
    network: f64,
    scheduler: f64,
    cache: f64,
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Adds one row, sourced from the `RunReport`'s breakdown fractions —
/// the same artifact `--report-out` writes, so figure and report agree
/// by construction.
fn add(
    table: &mut Table,
    rows: &mut Vec<Row>,
    system: &'static str,
    app: App,
    graph: &'static str,
    report: &RunReport,
) {
    let b = report.breakdown;
    table.row([
        system.to_string(),
        app.name().to_string(),
        graph.to_string(),
        pct(b.compute),
        pct(b.network),
        pct(b.scheduler),
        pct(b.cache),
    ]);
    rows.push(Row {
        system,
        app: app.name(),
        graph,
        compute: b.compute,
        network: b.network,
        scheduler: b.scheduler,
        cache: b.cache,
    });
}

fn gthinker_run(g: &gpm_graph::Graph, app: App) -> RunStats {
    let sys = GThinker::new(PartitionedGraph::new(g, PAPER_MACHINES, 1), GThinkerConfig::default());
    let mut total = RunStats::default();
    for (p, induced) in app.patterns() {
        let opts = PlanOptions { induced, ..PlanOptions::automine() };
        total.absorb(&sys.count(&p, &opts).expect("gthinker run"));
    }
    total
}

fn main() {
    let scale = Scale::from_args();
    let mut table = Table::new(["System", "App", "G.", "compute", "network", "scheduler", "cache"]);
    let mut rows = Vec::new();
    for id in DatasetId::SMALL {
        let g = build_dataset(id, scale);
        let engine = engine_for(&g, PAPER_MACHINES, 1, 2);
        for app in App::ALL {
            let ka = app.run_khuzdul(&engine, &PlanOptions::automine());
            engine.reset_caches();
            let ka_report = engine.report(&ka, "khuzdul-automine");
            add(&mut table, &mut rows, "k-Automine", app, id.abbr(), &ka_report);
            let gt = gthinker_run(&g, app);
            let gt_report = gt.to_report("gthinker");
            assert_eq!(gt_report.count, ka_report.count);
            add(&mut table, &mut rows, "G-thinker", app, id.abbr(), &gt_report);
        }
        engine.shutdown();
    }
    println!("Figure 15: Runtime Breakdown of G-thinker/k-Automine ({PAPER_MACHINES} machines)\n");
    table.print();
    if let Ok(p) = write_stamped("fig15_breakdown", rows) {
        println!("\nwrote {}", p.display());
    }
}
