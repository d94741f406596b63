//! The paper's four counting workloads, runnable on every system.

use gpm_apps::counting;
use gpm_baselines::single::SingleMachine;
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::Graph;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use khuzdul::{Engine, EngineConfig, RunStats};
use serde::Serialize;
use std::time::{Duration, Instant};

/// One of the evaluation applications (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum App {
    /// Triangle counting.
    Tc,
    /// 3-motif counting.
    ThreeMc,
    /// 4-clique counting.
    FourCc,
    /// 5-clique counting.
    FiveCc,
}

impl App {
    /// The full workload set of Table 2.
    pub const ALL: [App; 4] = [App::Tc, App::ThreeMc, App::FourCc, App::FiveCc];

    /// Paper row label.
    pub fn name(self) -> &'static str {
        match self {
            App::Tc => "TC",
            App::ThreeMc => "3-MC",
            App::FourCc => "4-CC",
            App::FiveCc => "5-CC",
        }
    }

    /// The patterns this app enumerates (with induced semantics for
    /// motif counting).
    pub fn patterns(self) -> Vec<(Pattern, bool)> {
        match self {
            App::Tc => vec![(Pattern::triangle(), false)],
            App::ThreeMc => {
                gpm_pattern::genpat::connected_patterns(3).into_iter().map(|p| (p, true)).collect()
            }
            App::FourCc => vec![(Pattern::clique(4), false)],
            App::FiveCc => vec![(Pattern::clique(5), false)],
        }
    }

    /// Compiles this app's plans, induced for motif counting, under the
    /// options a baseline runs them with.
    pub fn plans(self, base: &PlanOptions) -> Vec<MatchingPlan> {
        self.patterns()
            .into_iter()
            .map(|(p, induced)| {
                let opts = PlanOptions { induced, ..base.clone() };
                MatchingPlan::compile(&p, &opts).expect("workload patterns compile")
            })
            .collect()
    }

    /// Runs the app on a Khuzdul engine, summing over its patterns.
    ///
    /// Motif counting takes the client system's route through
    /// [`counting::motif_count`]: with IEP enabled (k-GraphPi) the counts
    /// come from non-induced enumeration plus the inclusion–exclusion
    /// solve — the "better pattern matching algorithm" the paper credits
    /// for k-GraphPi's 3-MC advantage.
    pub fn run_khuzdul(self, engine: &Engine, base: &PlanOptions) -> RunStats {
        let run = match self {
            App::Tc => counting::clique_count(engine, 3, base),
            App::ThreeMc => counting::motif_count(engine, 3, base).map(|m| m.run),
            App::FourCc => counting::clique_count(engine, 4, base),
            App::FiveCc => counting::clique_count(engine, 5, base),
        };
        run.expect("workload patterns compile")
    }

    /// Runs the app on a single-machine system, timing its patterns
    /// (each induced one recompiled induced under the system's options):
    /// the total count and the wall time.
    pub fn run_single(self, sys: &SingleMachine) -> (u64, Duration) {
        let t0 = Instant::now();
        let mut count = 0u64;
        for (p, induced) in self.patterns() {
            let mut plan = sys.compile(&p).expect("workload patterns compile");
            if induced {
                let opts = PlanOptions { induced: true, ..plan.options().clone() };
                plan = MatchingPlan::compile(&p, &opts).expect("workload patterns compile");
            }
            count += sys.count_plan(&plan).count;
        }
        (count, t0.elapsed())
    }
}

/// Builds a Khuzdul engine for a benchmark, with the cache sized to the
/// paper's recommended fraction of the graph (§7.6 uses at most 15%).
pub fn engine_for(g: &Graph, machines: usize, sockets: usize, threads: usize) -> Engine {
    let cfg = EngineConfig {
        compute_threads: threads,
        cache: khuzdul::CacheConfig {
            capacity_per_machine: (g.size_bytes() / 10).max(64 << 10),
            degree_threshold: 64,
            ..Default::default()
        },
        ..EngineConfig::default()
    };
    Engine::new(PartitionedGraph::new(g, machines, sockets), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;
    use gpm_pattern::oracle;

    #[test]
    fn apps_compile_and_run() {
        let g = gen::erdos_renyi(80, 350, 1);
        let engine = engine_for(&g, 2, 1, 1);
        for app in App::ALL {
            let run = app.run_khuzdul(&engine, &PlanOptions::automine());
            let expect: u64 = app
                .patterns()
                .iter()
                .map(|(p, induced)| oracle::count_subgraphs(&g, p, *induced))
                .sum();
            assert_eq!(run.count, expect, "{}", app.name());
        }
        engine.shutdown();
    }

    /// A multi-plan app reports everything its plans did, not a chosen
    /// few fields: on two engines built alike (stealing is off, so
    /// traffic repeats exactly), the app's totals are the field-wise sums
    /// of its plans run one by one — induced plans under k-Automine,
    /// non-induced ones under k-GraphPi's IEP route — and its count is
    /// the census total either way.
    #[test]
    fn a_two_plan_app_totals_every_field_of_its_runs() {
        let g = gen::barabasi_albert(300, 4, 5);
        let census: u64 =
            App::ThreeMc.patterns().iter().map(|(p, _)| oracle::count_subgraphs(&g, p, true)).sum();
        for base in [PlanOptions::automine(), PlanOptions::graphpi()] {
            let opts = PlanOptions { induced: !base.iep, ..base.clone() };
            let plans: Vec<MatchingPlan> = (App::ThreeMc.patterns().iter())
                .map(|(p, _)| MatchingPlan::compile(p, &opts).unwrap())
                .collect();
            assert_eq!(plans.len(), 2);
            let engine = engine_for(&g, 2, 1, 1);
            let total = App::ThreeMc.run_khuzdul(&engine, &base);
            engine.shutdown();
            let engine = engine_for(&g, 2, 1, 1);
            let runs: Vec<RunStats> = plans.iter().map(|p| engine.count(p)).collect();
            engine.shutdown();

            let sum = |f: fn(&RunStats) -> u64| runs.iter().map(f).sum::<u64>();
            assert_eq!(total.count, census, "{base:?}");
            assert_eq!(total.traffic.network_bytes, sum(|r| r.traffic.network_bytes));
            assert_eq!(total.traffic.cross_socket_bytes, sum(|r| r.traffic.cross_socket_bytes));
            assert_eq!(total.traffic.requests, sum(|r| r.traffic.requests));
            assert_eq!(total.traffic.cache_hits, sum(|r| r.traffic.cache_hits));
            assert_eq!(total.traffic.cache_misses, sum(|r| r.traffic.cache_misses));
            assert_eq!(total.traffic.coalesced, sum(|r| r.traffic.coalesced));
            assert_eq!(total.traffic.retries, sum(|r| r.traffic.retries));
            assert!(total.traffic.requests > 0, "a field the old IEP total dropped");
            assert_eq!(total.failures, Default::default());
            assert_eq!(total.control.sent, sum(|r| r.control.sent));
            assert_eq!(total.control.retried, sum(|r| r.control.retried));
            assert_eq!(total.control.dropped, sum(|r| r.control.dropped));
            assert_eq!(total.per_part.len(), 2);
            for (p, part) in total.per_part.iter().enumerate() {
                assert_eq!(part.count, runs.iter().map(|r| r.per_part[p].count).sum::<u64>());
                let peak = runs.iter().map(|r| r.per_part[p].peak_embeddings).max();
                assert_eq!(Some(part.peak_embeddings), peak);
                assert!(part.peak_embeddings > 0, "a field the old hand-rolled merge dropped");
            }
        }
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = App::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
