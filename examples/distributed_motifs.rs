//! Motif counting across a simulated 8-machine cluster — the paper's
//! k-MC workload on the LiveJournal stand-in.
//!
//! Counts every connected 4-vertex pattern's induced embeddings under
//! both client systems on the same engine, and shows the per-pattern
//! distribution (motif signature) of the graph. k-Automine counts each
//! pattern induced; k-GraphPi counts each non-induced and solves for the
//! induced counts (the route Table 2 times). The counts agree; the time
//! and the traffic show what each route costs.
//!
//! ```text
//! cargo run --release --example distributed_motifs
//! ```

use khuzdul_repro::apps::counting;
use khuzdul_repro::engine::{Engine, EngineConfig};
use khuzdul_repro::graph::datasets::DatasetId;
use khuzdul_repro::graph::partition::PartitionedGraph;
use khuzdul_repro::pattern::plan::PlanOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = DatasetId::LiveJournal.build();
    println!(
        "dataset: {} ({}), {} vertices / {} edges",
        DatasetId::LiveJournal.name(),
        DatasetId::LiveJournal.recipe(),
        graph.vertex_count(),
        graph.edge_count()
    );

    let engine = Engine::new(PartitionedGraph::new(&graph, 8, 1), EngineConfig::default());

    for (label, opts) in
        [("k-Automine", PlanOptions::automine()), ("k-GraphPi", PlanOptions::graphpi())]
    {
        let motifs = counting::motif_count(&engine, 4, &opts)?;
        let run = &motifs.run;
        println!("\n{label}: 4-motif counting in {:?}", run.elapsed);
        println!("  {:<28}  count", "pattern");
        for (p, c) in &motifs.per_pattern {
            let share = *c as f64 / run.count.max(1) as f64 * 100.0;
            println!("  {:<28}  {c} ({share:.2}%)", p.to_string());
        }
        println!("  total connected 4-subgraphs: {}", run.count);
        let t = &run.traffic;
        println!("  network traffic: {} bytes in {} fetches", t.network_bytes, t.requests);
        engine.reset_caches();
    }

    engine.shutdown();
    Ok(())
}
