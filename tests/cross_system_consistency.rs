//! Cross-crate integration: every system in the workspace must produce
//! identical counts on the same workloads.

use khuzdul_repro::baselines::ctd::CtdCluster;
use khuzdul_repro::baselines::gthinker::{GThinker, GThinkerConfig};
use khuzdul_repro::baselines::replicated::{ReplicatedCluster, ReplicatedConfig};
use khuzdul_repro::baselines::single::SingleMachine;
use khuzdul_repro::engine::{Engine, EngineConfig};
use khuzdul_repro::graph::partition::PartitionedGraph;
use khuzdul_repro::graph::{gen, Graph};
use khuzdul_repro::pattern::plan::{MatchingPlan, PlanOptions};
use khuzdul_repro::pattern::{oracle, Pattern};

fn all_system_counts(g: &Graph, p: &Pattern, machines: usize) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    let plan_am = MatchingPlan::compile(p, &PlanOptions::automine()).unwrap();
    let plan_gp = MatchingPlan::compile(p, &PlanOptions::graphpi()).unwrap();

    let engine = Engine::new(PartitionedGraph::new(g, machines, 1), EngineConfig::default());
    out.push(("k-automine", engine.count(&plan_am).count));
    out.push(("k-graphpi", engine.count(&plan_gp).count));
    engine.shutdown();

    let repl = ReplicatedCluster::new(
        g.clone(),
        ReplicatedConfig { machines, ..ReplicatedConfig::default() },
    );
    out.push(("replicated", repl.count(&plan_gp).count));

    let gt = GThinker::new(PartitionedGraph::new(g, machines, 1), GThinkerConfig::default());
    out.push(("gthinker", gt.count(p, &PlanOptions::automine()).unwrap().count));

    let ctd = CtdCluster::new(PartitionedGraph::new(g, machines, 1));
    out.push(("ctd", ctd.count(p, &PlanOptions::automine()).unwrap().count));

    let single = SingleMachine::automine_ih(g.clone(), 2);
    out.push(("automine-ih", single.count(p).unwrap().count));

    out
}

#[test]
fn every_system_agrees_with_the_oracle() {
    let g = gen::erdos_renyi(120, 550, 17);
    for p in [Pattern::triangle(), Pattern::clique(4), Pattern::cycle(4), Pattern::path(4)] {
        let expect = oracle::count_subgraphs(&g, &p, false);
        for (name, count) in all_system_counts(&g, &p, 4) {
            assert_eq!(count, expect, "{name} disagrees on {p}");
        }
    }
}

#[test]
fn every_system_agrees_on_a_skewed_graph() {
    let g = gen::barabasi_albert(250, 5, 23);
    let expect = oracle::count_subgraphs(&g, &Pattern::clique(4), false);
    for (name, count) in all_system_counts(&g, &Pattern::clique(4), 3) {
        assert_eq!(count, expect, "{name} disagrees");
    }
}

#[test]
fn orientation_pipeline_agrees_end_to_end() {
    // Every system ranks its input by degree, so the symmetry-broken
    // clique plan reads the degree-oriented windows on each of them.
    let g = gen::barabasi_albert(400, 6, 3);
    let expect = oracle::count_subgraphs(&g, &Pattern::clique(4), false);

    // Distributed counting, and the enumerated cliques in the input's ids.
    let engine = Engine::new(PartitionedGraph::new(&g, 4, 1), EngineConfig::default());
    let plan = MatchingPlan::compile(&Pattern::clique(4), &PlanOptions::automine()).unwrap();
    assert_eq!(engine.count(&plan).count, expect);
    let cliques = std::sync::Mutex::new(std::collections::BTreeSet::new());
    engine.enumerate(&plan, |m| {
        let mut c = m.to_vec();
        c.sort_unstable();
        assert!(c.iter().enumerate().all(|(i, &u)| c[i + 1..].iter().all(|&v| g.has_edge(u, v))));
        assert!(cliques.lock().unwrap().insert(c), "a clique enumerated twice");
    });
    assert_eq!(cliques.into_inner().unwrap().len() as u64, expect);
    engine.shutdown();

    // Single-machine counting.
    let single = SingleMachine::automine_ih(g, 2);
    assert_eq!(single.count(&Pattern::clique(4)).unwrap().count, expect);
}

#[test]
fn numa_and_flat_partitions_agree() {
    let g = gen::erdos_renyi(200, 900, 31);
    let p = Pattern::tailed_triangle();
    let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
    let expect = oracle::count_subgraphs(&g, &p, false);
    for (machines, sockets) in [(1, 2), (2, 2), (4, 2), (2, 4)] {
        let engine =
            Engine::new(PartitionedGraph::new(&g, machines, sockets), EngineConfig::default());
        assert_eq!(engine.count(&plan).count, expect, "{machines}x{sockets}");
        engine.shutdown();
    }
}

#[test]
fn labeled_workload_agrees_across_systems() {
    let g = gen::with_random_labels(&gen::erdos_renyi(100, 450, 7), 3, 11);
    let p = Pattern::triangle().with_labels(vec![0, 1, 2]).unwrap();
    let expect = oracle::count_subgraphs(&g, &p, false);

    let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
    let engine = Engine::new(PartitionedGraph::new(&g, 3, 1), EngineConfig::default());
    assert_eq!(engine.count(&plan).count, expect);
    engine.shutdown();

    let gt = GThinker::new(PartitionedGraph::new(&g, 3, 1), GThinkerConfig::default());
    assert_eq!(gt.count(&p, &PlanOptions::automine()).unwrap().count, expect);

    let ctd = CtdCluster::new(PartitionedGraph::new(&g, 3, 1));
    assert_eq!(ctd.count(&p, &PlanOptions::automine()).unwrap().count, expect);
}
