//! **Table 4** — FSM performance across support thresholds.
//!
//! Runs frequent subgraph mining (≤ 3-edge labeled patterns, MNI support)
//! on labeled stand-ins of mc and pt at three thresholds each, comparing
//! k-Automine on 1 and 8 machines against the single-machine AutomineIH.
//! The paper's shape: distributed FSM wins on big workloads, while the
//! single-node engine pays a per-pattern startup cost.
//!
//! Usage: `cargo run -p gpm-bench --release --bin table4_fsm [--quick]`

use gpm_apps::fsm::{fsm, fsm_single, FsmConfig};
use gpm_bench::report::{fmt_duration, write_stamped, Table};
use gpm_bench::workloads::engine_for;
use gpm_bench::{build_dataset, Scale, PAPER_MACHINES};
use gpm_graph::datasets::DatasetId;
use gpm_graph::gen;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    graph: &'static str,
    threshold: u64,
    frequent: usize,
    evaluated: usize,
    k_automine_1node_s: f64,
    k_automine_8node_s: f64,
    automine_ih_s: f64,
}

fn main() {
    let scale = Scale::from_args();
    let label_count = 4;
    // Thresholds chosen per graph so the frequent set is non-trivial at
    // stand-in scale (the paper's absolute thresholds target the real
    // datasets).
    // FSM evaluates every embedding of every candidate pattern, so the
    // stand-ins are scaled below the counting benchmarks' (the paper's
    // Table 4 graphs are also its smallest).
    let spec: [(DatasetId, [u64; 3]); 2] =
        [(DatasetId::Mico, [300, 400, 500]), (DatasetId::Patents, [500, 600, 700])];
    let mut table = Table::new([
        "Graph",
        "Threshold",
        "#Frequent",
        "#Evaluated",
        "k-Automine(1n)",
        "k-Automine(8n)",
        "AutomineIH",
    ]);
    let mut rows = Vec::new();
    for (id, thresholds) in spec {
        let g = gen::with_random_labels(&build_dataset(id, scale), label_count, 0x4653_4d00);
        let engine1 = engine_for(&g, 1, 1, 2);
        let engine8 = engine_for(&g, PAPER_MACHINES, 1, 2);
        for threshold in thresholds {
            let threshold = if scale == Scale::Quick { threshold / 10 } else { threshold };
            // Early-exit support evaluation (the Peregrine optimization):
            // decisions are exact, and frequent patterns stop enumerating
            // once the threshold is proven.
            let cfg =
                FsmConfig { support_threshold: threshold, max_edges: 3, exact_supports: false };
            let r1 = fsm(&engine1, &cfg);
            engine1.reset_caches();
            let r8 = fsm(&engine8, &cfg);
            engine8.reset_caches();
            let rih = fsm_single(&g, &cfg);
            assert_eq!(r1.frequent.len(), rih.frequent.len(), "FSM disagreement");
            assert_eq!(r8.frequent.len(), rih.frequent.len(), "FSM disagreement");
            table.row([
                id.abbr().to_string(),
                threshold.to_string(),
                rih.frequent.len().to_string(),
                rih.evaluated.to_string(),
                fmt_duration(r1.elapsed),
                fmt_duration(r8.elapsed),
                fmt_duration(rih.elapsed),
            ]);
            rows.push(Row {
                graph: id.abbr(),
                threshold,
                frequent: rih.frequent.len(),
                evaluated: rih.evaluated,
                k_automine_1node_s: r1.elapsed.as_secs_f64(),
                k_automine_8node_s: r8.elapsed.as_secs_f64(),
                automine_ih_s: rih.elapsed.as_secs_f64(),
            });
        }
        engine1.shutdown();
        engine8.shutdown();
    }
    println!("Table 4: FSM Performance (MNI support, patterns up to 3 edges)\n");
    table.print();
    if let Ok(p) = write_stamped("table4_fsm", rows) {
        println!("\nwrote {}", p.display());
    }
}
