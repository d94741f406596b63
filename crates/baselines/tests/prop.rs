//! Property-based tests: every baseline system agrees with the reference
//! interpreter on arbitrary small graphs and patterns.

use gpm_baselines::ctd::CtdCluster;
use gpm_baselines::gthinker::{GThinker, GThinkerConfig};
use gpm_baselines::oblivious;
use gpm_baselines::replicated::{ReplicatedCluster, ReplicatedConfig};
use gpm_baselines::single::SingleMachine;
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::GraphBuilder;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::{interp, Pattern};
use proptest::prelude::*;

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::edge()),
        Just(Pattern::triangle()),
        Just(Pattern::path(3)),
        Just(Pattern::path(4)),
        Just(Pattern::star(4)),
        Just(Pattern::cycle(4)),
        Just(Pattern::clique(4)),
        Just(Pattern::tailed_triangle()),
    ]
}

fn arb_graph() -> impl Strategy<Value = gpm_graph::Graph> {
    prop::collection::vec((0u32..40, 0u32..40), 20..120)
        .prop_map(|edges| edges.into_iter().collect::<GraphBuilder>().build())
        .prop_filter("non-trivial", |g| g.vertex_count() >= 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_baselines_agree(
        g in arb_graph(),
        p in arb_pattern(),
        machines in 1usize..4,
        induced in any::<bool>(),
        graphpi in any::<bool>(),
    ) {
        let base = if graphpi { PlanOptions::graphpi() } else { PlanOptions::automine() };
        let opts = PlanOptions { induced, ..base };
        let plan = MatchingPlan::compile(&p, &opts).unwrap();
        let expect = interp::count_embeddings(&g, &plan);

        let single = SingleMachine::automine_ih(g.clone(), 1);
        prop_assert_eq!(single.count_plan(&plan).count, expect);

        let repl = ReplicatedCluster::new(
            g.clone(),
            ReplicatedConfig { machines, threads_per_machine: 1, task_block: 16 },
        );
        prop_assert_eq!(repl.count(&plan).count, expect);

        let gt = GThinker::new(
            PartitionedGraph::new(&g, machines, 1),
            GThinkerConfig { max_active_tasks: 8, cache_capacity: 1 << 14 },
        );
        prop_assert_eq!(gt.count(&p, &opts).unwrap().count, expect);

        let ctd = CtdCluster::new(PartitionedGraph::new(&g, machines, 1));
        prop_assert_eq!(ctd.count(&p, &opts).unwrap().count, expect);
    }

    #[test]
    fn oblivious_census_matches_pattern_aware(g in arb_graph(), k in 3usize..5) {
        let census = oblivious::induced_census(&g, k);
        for p in gpm_pattern::genpat::connected_patterns(k) {
            let code = gpm_pattern::iso::canonical_code(&p);
            let expected = {
                let opts = PlanOptions { induced: true, ..PlanOptions::automine() };
                let plan = MatchingPlan::compile(&p, &opts).unwrap();
                interp::count_embeddings(&g, &plan)
            };
            prop_assert_eq!(census.get(&code).copied().unwrap_or(0), expected);
        }
    }
}
