//! **Table 6** — effect of the static data cache (k-GraphPi).
//!
//! Network traffic and runtime with the static cache vs. no cache, for
//! TC / 4-CC / 5-CC on pt, lj and fr stand-ins. The paper's shape: large
//! traffic reductions everywhere, largest on skewed graphs, and runtime
//! gains where communication isn't already hidden.
//!
//! Usage: `cargo run -p gpm-bench --release --bin table6_static_cache [--quick]`

use gpm_bench::report::{fmt_bytes, fmt_duration, write_stamped, Table};
use gpm_bench::workloads::App;
use gpm_bench::{build_dataset, Scale, PAPER_MACHINES};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::PlanOptions;
use khuzdul::{CacheConfig, CachePolicy, Engine, EngineConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    app: &'static str,
    graph: &'static str,
    with_cache_bytes: u64,
    no_cache_bytes: u64,
    with_cache_s: f64,
    no_cache_s: f64,
    traffic_reduction: f64,
}

fn run(g: &gpm_graph::Graph, app: App, policy: CachePolicy) -> khuzdul::RunStats {
    // One compute thread per part, so the columns differ by the cache only:
    // with two, the order a part's threads fill chunks moves its bytes.
    let cfg = EngineConfig {
        compute_threads: 1,
        cache: CacheConfig {
            policy,
            capacity_per_machine: (g.size_bytes() / 10).max(64 << 10),
            degree_threshold: 16,
        },
        ..EngineConfig::default()
    };
    let engine = Engine::new(PartitionedGraph::new(g, PAPER_MACHINES, 1), cfg);
    let run = app.run_khuzdul(&engine, &PlanOptions::graphpi());
    engine.shutdown();
    run
}

fn main() {
    let scale = Scale::from_args();
    let mut table = Table::new([
        "App",
        "G.",
        "Traffic(cache)",
        "Traffic(none)",
        "Time(cache)",
        "Time(none)",
        "Reduction",
    ]);
    let mut rows = Vec::new();
    for id in [DatasetId::Patents, DatasetId::LiveJournal, DatasetId::Uk2005, DatasetId::Friendster]
    {
        let g = build_dataset(id, scale);
        // The paper's headline row is TC on the extremely skewed uk
        // graph; its clique workloads are multi-hour cells there.
        let apps: &[App] =
            if id == DatasetId::Uk2005 { &[App::Tc] } else { &[App::Tc, App::FourCc, App::FiveCc] };
        for &app in apps {
            let with = run(&g, app, CachePolicy::Static);
            let without = run(&g, app, CachePolicy::Disabled);
            assert_eq!(with.count, without.count);
            let reduction = 1.0
                - with.traffic.network_bytes as f64 / without.traffic.network_bytes.max(1) as f64;
            table.row([
                app.name().to_string(),
                id.abbr().to_string(),
                fmt_bytes(with.traffic.network_bytes),
                fmt_bytes(without.traffic.network_bytes),
                fmt_duration(with.elapsed),
                fmt_duration(without.elapsed),
                format!("{:.1}%", reduction * 100.0),
            ]);
            rows.push(Row {
                app: app.name(),
                graph: id.abbr(),
                with_cache_bytes: with.traffic.network_bytes,
                no_cache_bytes: without.traffic.network_bytes,
                with_cache_s: with.elapsed.as_secs_f64(),
                no_cache_s: without.elapsed.as_secs_f64(),
                traffic_reduction: reduction,
            });
        }
    }
    println!("Table 6: Analyzing the Static Data Cache (k-GraphPi, {PAPER_MACHINES} machines)\n");
    table.print();
    if let Ok(p) = write_stamped("table6_static_cache", rows) {
        println!("\nwrote {}", p.display());
    }
}
