//! **Table 1** — dataset statistics.
//!
//! Prints `|V|`, `|E|`, max degree and in-memory size for every dataset
//! stand-in, mirroring the paper's Table 1 columns (values differ because
//! the stand-ins are laptop-scale; the *skew class* column shows what is
//! preserved).
//!
//! Usage: `cargo run -p gpm-bench --release --bin table1_datasets [--quick]`

use gpm_bench::report::{fmt_bytes, write_stamped, Table};
use gpm_bench::{build_dataset, Scale};
use gpm_graph::datasets::{stats, DatasetId};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: &'static str,
    abbr: &'static str,
    vertices: usize,
    edges: usize,
    max_degree: u32,
    size_bytes: usize,
    recipe: &'static str,
}

fn main() {
    let scale = Scale::from_args();
    let mut table =
        Table::new(["Graph", "Abbr.", "|V|", "|E|", "Max.Degree", "Size", "Stand-in recipe"]);
    let mut rows = Vec::new();
    for id in DatasetId::ALL {
        let g = build_dataset(id, scale);
        let s = stats(&g);
        table.row([
            id.name().to_string(),
            id.abbr().to_string(),
            s.vertices.to_string(),
            s.edges.to_string(),
            s.max_degree.to_string(),
            fmt_bytes(s.size_bytes as u64),
            id.recipe().to_string(),
        ]);
        rows.push(Row {
            name: id.name(),
            abbr: id.abbr(),
            vertices: s.vertices,
            edges: s.edges,
            max_degree: s.max_degree,
            size_bytes: s.size_bytes,
            recipe: id.recipe(),
        });
    }
    println!("Table 1: Graph Datasets (synthetic stand-ins)\n");
    table.print();
    if let Ok(p) = write_stamped("table1_datasets", rows) {
        println!("\nwrote {}", p.display());
    }
}
