//! **Table 3** — k-Automine's single-node mode vs. single-machine systems.
//!
//! Columns: k-Automine on 1 machine (with all its distributed machinery
//! still in place), the in-house AutomineIH, a Peregrine-like system
//! (pattern-aware with cost-model schedules) and a Pangolin-like system
//! (orientation preprocessing; cliques only, like the optimization it
//! models). The paper's shape: k-Automine is competitive but pays a
//! modest engine overhead vs. the leanest single-machine loops.
//!
//! Usage: `cargo run -p gpm-bench --release --bin table3_single_machine [--quick]`

use gpm_baselines::single::SingleMachine;
use gpm_bench::report::{fmt_duration, write_stamped, Table};
use gpm_bench::workloads::{engine_for, App};
use gpm_bench::{build_dataset, Scale};
use gpm_graph::datasets::DatasetId;
use gpm_pattern::plan::PlanOptions;
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Row {
    app: &'static str,
    graph: &'static str,
    count: u64,
    k_automine_1node_s: f64,
    automine_ih_s: f64,
    peregrine_like_s: f64,
    pangolin_like_s: Option<f64>,
}

fn run_single(sys: &SingleMachine, app: App) -> Option<(u64, Duration)> {
    let t0 = Instant::now();
    let mut count = 0u64;
    for (p, induced) in app.patterns() {
        if induced && sys.compile(&p).is_err() {
            return None;
        }
        match sys.compile(&p) {
            Ok(mut plan) => {
                if induced {
                    let opts = PlanOptions { induced: true, ..plan.options().clone() };
                    plan = gpm_pattern::plan::MatchingPlan::compile(&p, &opts).ok()?;
                }
                count += sys.count_plan(&plan).count;
            }
            Err(_) => return None,
        }
    }
    Some((count, t0.elapsed()))
}

fn main() {
    let scale = Scale::from_args();
    let threads = 4;
    let mut table = Table::new([
        "App",
        "Graph",
        "k-Automine(1n)",
        "AutomineIH",
        "Peregrine-like",
        "Pangolin-like",
    ]);
    let mut rows = Vec::new();
    for id in DatasetId::SMALL {
        let g = build_dataset(id, scale);
        let engine = engine_for(&g, 1, 1, threads);
        let ih = SingleMachine::automine_ih(g.clone(), threads);
        let peregrine = SingleMachine::peregrine_like(g.clone(), threads);
        let pangolin = SingleMachine::pangolin_like(g.clone(), threads);
        for app in App::ALL {
            let ka = app.run_khuzdul(&engine, &PlanOptions::automine());
            engine.reset_caches();
            let (c_ih, t_ih) = run_single(&ih, app).expect("automine supports all apps");
            let (c_pg, t_pg) = run_single(&peregrine, app).expect("peregrine run");
            let pan = run_single(&pangolin, app);
            assert_eq!(ka.count, c_ih);
            assert_eq!(ka.count, c_pg);
            if let Some((c, _)) = pan {
                assert_eq!(ka.count, c, "orientation count mismatch");
            }
            table.row([
                app.name().to_string(),
                id.abbr().to_string(),
                fmt_duration(ka.elapsed),
                fmt_duration(t_ih),
                fmt_duration(t_pg),
                pan.map_or("n/a".to_string(), |(_, t)| fmt_duration(t)),
            ]);
            rows.push(Row {
                app: app.name(),
                graph: id.abbr(),
                count: ka.count,
                k_automine_1node_s: ka.elapsed.as_secs_f64(),
                automine_ih_s: t_ih.as_secs_f64(),
                peregrine_like_s: t_pg.as_secs_f64(),
                pangolin_like_s: pan.map(|(_, t)| t.as_secs_f64()),
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
