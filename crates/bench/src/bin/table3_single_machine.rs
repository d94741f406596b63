//! **Table 3** — k-Automine's single-node mode vs. single-machine systems.
//!
//! Columns: k-Automine on 1 machine (with all its distributed machinery
//! still in place), the in-house AutomineIH and a Peregrine-like system
//! (pattern-aware with cost-model schedules). The paper's shape:
//! k-Automine is competitive but pays a modest engine overhead vs. the
//! leanest single-machine loops. Every system ranks its input by degree,
//! so Pangolin's orientation is already every column's input order, and
//! AutomineIH reads the windows a Pangolin-like system would.
//!
//! Usage: `cargo run -p gpm-bench --release --bin table3_single_machine [--quick]`

use gpm_baselines::single::SingleMachine;
use gpm_bench::report::{fmt_duration, write_stamped, Table};
use gpm_bench::workloads::{engine_for, App};
use gpm_bench::{build_dataset, Scale};
use gpm_graph::datasets::DatasetId;
use gpm_pattern::plan::PlanOptions;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    app: &'static str,
    graph: &'static str,
    count: u64,
    k_automine_1node_s: f64,
    automine_ih_s: f64,
    peregrine_like_s: f64,
}

fn main() {
    let scale = Scale::from_args();
    let threads = 4;
    let mut table = Table::new(["App", "Graph", "k-Automine(1n)", "AutomineIH", "Peregrine-like"]);
    let mut rows = Vec::new();
    for id in DatasetId::SMALL {
        let g = build_dataset(id, scale);
        let engine = engine_for(&g, 1, 1, threads);
        let ih = SingleMachine::automine_ih(g.clone(), threads);
        let peregrine = SingleMachine::peregrine_like(g.clone(), threads);
        for app in App::ALL {
            let ka = app.run_khuzdul(&engine, &PlanOptions::automine());
            engine.reset_caches();
            let (c_ih, t_ih) = app.run_single(&ih);
            let (c_pg, t_pg) = app.run_single(&peregrine);
            assert_eq!(ka.count, c_ih);
            assert_eq!(ka.count, c_pg);
            table.row([
                app.name().to_string(),
                id.abbr().to_string(),
                fmt_duration(ka.elapsed),
                fmt_duration(t_ih),
                fmt_duration(t_pg),
            ]);
            rows.push(Row {
                app: app.name(),
                graph: id.abbr(),
                count: ka.count,
                k_automine_1node_s: ka.elapsed.as_secs_f64(),
                automine_ih_s: t_ih.as_secs_f64(),
                peregrine_like_s: t_pg.as_secs_f64(),
            });
        }
        engine.shutdown();
    }
    println!("Table 3: Comparing with Single-Machine Systems (1 node, {threads} threads)\n");
    table.print();
    if let Ok(p) = write_stamped("table3_single_machine", rows) {
        println!("\nwrote {}", p.display());
    }
}
