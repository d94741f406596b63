//! **Figure 10** — comparing with aDFS (moving computation to data).
//!
//! Triangle counting on Skitter / Orkut / Friendster stand-ins: the
//! aDFS-like `ctd` baseline vs. k-Automine and k-GraphPi on the same
//! 8-machine cluster. The paper's shape: the "move data to computation"
//! engines win by up to an order of magnitude, and the ctd policy's
//! carried-list traffic dwarfs the engines' fetch traffic.
//!
//! Usage: `cargo run -p gpm-bench --release --bin fig10_adfs [--quick]`

use gpm_baselines::ctd::CtdCluster;
use gpm_bench::report::{fmt_bytes, fmt_duration, write_stamped, Table};
use gpm_bench::workloads::{engine_for, App};
use gpm_bench::{build_dataset, Scale, PAPER_MACHINES};
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_pattern::plan::PlanOptions;
use gpm_pattern::Pattern;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    graph: &'static str,
    adfs_like_s: f64,
    k_automine_s: f64,
    k_graphpi_s: f64,
    adfs_like_bytes: u64,
    k_automine_bytes: u64,
}

fn main() {
    let scale = Scale::from_args();
    let mut table = Table::new([
        "Graph",
        "aDFS-like",
        "k-Automine",
        "k-GraphPi",
        "aDFS traffic",
        "Khuzdul traffic",
    ]);
    let mut rows = Vec::new();
    for id in [DatasetId::Skitter, DatasetId::Orkut, DatasetId::Friendster] {
        let g = build_dataset(id, scale);
        let ctd = CtdCluster::new(PartitionedGraph::new(&g, PAPER_MACHINES, 1));
        let adfs =
            ctd.count(&Pattern::triangle(), &PlanOptions::automine()).expect("ctd triangle run");
        let engine = engine_for(&g, PAPER_MACHINES, 1, 2);
        let ka = App::Tc.run_khuzdul(&engine, &PlanOptions::automine());
        engine.reset_caches();
        let kg = App::Tc.run_khuzdul(&engine, &PlanOptions::graphpi());
        engine.shutdown();
        assert_eq!(adfs.count, ka.count);
        assert_eq!(adfs.count, kg.count);
        table.row([
            id.abbr().to_string(),
            fmt_duration(adfs.elapsed),
            fmt_duration(ka.elapsed),
            fmt_duration(kg.elapsed),
            fmt_bytes(adfs.traffic.network_bytes),
            fmt_bytes(ka.traffic.network_bytes),
        ]);
        rows.push(Row {
            graph: id.abbr(),
            adfs_like_s: adfs.elapsed.as_secs_f64(),
            k_automine_s: ka.elapsed.as_secs_f64(),
            k_graphpi_s: kg.elapsed.as_secs_f64(),
            adfs_like_bytes: adfs.traffic.network_bytes,
            k_automine_bytes: ka.traffic.network_bytes,
        });
    }
    println!("Figure 10: Comparing with aDFS (TC, {PAPER_MACHINES} machines)\n");
    table.print();
    if let Ok(p) = write_stamped("fig10_adfs", rows) {
        println!("\nwrote {}", p.display());
    }
}
