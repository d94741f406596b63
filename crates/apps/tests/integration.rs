//! Application-level integration tests.

use gpm_apps::counting::{motif_count, motif_count_noninduced};
use gpm_apps::fsm::{fsm_single, FsmConfig};
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::{gen, GraphBuilder};
use gpm_pattern::plan::PlanOptions;
use gpm_pattern::{interp, iso};
use khuzdul::{Engine, EngineConfig};

fn engine(g: &gpm_graph::Graph, machines: usize) -> Engine {
    Engine::new(PartitionedGraph::new(g, machines, 1), EngineConfig::default())
}

#[test]
fn motif_identity_sum_of_noninduced_counts() {
    // Non-induced count of pattern p == Σ_q copies(p in q) × induced(q):
    // the inclusion–exclusion identity the GraphPi-style route relies on,
    // checked end to end against direct engine counts.
    let g = gen::barabasi_albert(120, 4, 31);
    let e = engine(&g, 3);
    let induced = motif_count(&e, 4, &PlanOptions::automine()).unwrap();
    for p in gpm_pattern::genpat::connected_patterns(4) {
        let plan = gpm_pattern::plan::MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
        let noninduced = e.count(&plan).count;
        let via_identity: u64 = induced
            .per_pattern
            .iter()
            .map(|(q, c)| {
                let mut b = GraphBuilder::new(q.size());
                for (u, v) in q.edges() {
                    b.add_edge(u as u32, v as u32);
                }
                gpm_pattern::oracle::count_subgraphs(&b.build(), &p, false) * c
            })
            .sum();
        assert_eq!(noninduced, via_identity, "identity fails for {p}");
    }
    e.shutdown();
}

#[test]
fn motif_routes_agree_on_five_motifs() {
    let g = gen::erdos_renyi(35, 130, 21);
    let e = engine(&g, 2);
    let direct = motif_count(&e, 5, &PlanOptions::automine()).unwrap();
    let via = motif_count_noninduced(&e, 5, &PlanOptions::graphpi()).unwrap();
    e.shutdown();
    assert_eq!(direct.per_pattern.len(), 21);
    for ((p, a), (_, b)) in direct.per_pattern.iter().zip(&via.per_pattern) {
        assert_eq!(a, b, "5-motif mismatch for {p}");
    }
}

#[test]
fn fsm_results_monotone_in_max_edges() {
    let g = gen::with_random_labels(&gen::erdos_renyi(70, 280, 9), 2, 4);
    let small =
        fsm_single(&g, &FsmConfig { support_threshold: 8, max_edges: 1, ..FsmConfig::default() });
    let large =
        fsm_single(&g, &FsmConfig { support_threshold: 8, max_edges: 3, ..FsmConfig::default() });
    let codes = |r: &gpm_apps::fsm::FsmResult| -> std::collections::HashSet<Vec<u8>> {
        r.frequent.iter().map(|(p, _)| iso::canonical_code(p)).collect()
    };
    assert!(codes(&small).is_subset(&codes(&large)));
    assert!(large.evaluated >= small.evaluated);
}

#[test]
fn fsm_single_edge_patterns_match_direct_counts() {
    // MNI support of a labeled edge (a)-(b), a != b: number of distinct
    // endpoints on the rarer side == min over the two image sets, which
    // can be computed directly from the adjacency.
    let g = gen::with_random_labels(&gen::erdos_renyi(50, 200, 2), 2, 6);
    let res =
        fsm_single(&g, &FsmConfig { support_threshold: 1, max_edges: 1, ..FsmConfig::default() });
    for (p, support) in &res.frequent {
        let [la, lb] = [p.label(0).unwrap(), p.label(1).unwrap()];
        let mut img_a = std::collections::HashSet::new();
        let mut img_b = std::collections::HashSet::new();
        for (u, v) in g.edges() {
            for (x, y) in [(u, v), (v, u)] {
                if g.label(x) == Some(la) && g.label(y) == Some(lb) {
                    img_a.insert(x);
                    img_b.insert(y);
                }
            }
        }
        let expect = img_a.len().min(img_b.len()) as u64;
        assert_eq!(*support, expect, "support mismatch for labels {la},{lb}");
    }
}

#[test]
fn labeled_motifs_through_the_engine() {
    // Vertex-labeled triangle census: sum over ordered label choices of
    // labeled-triangle counts equals the unlabeled triangle count.
    let g = gen::with_random_labels(&gen::erdos_renyi(60, 260, 14), 2, 3);
    let e = engine(&g, 2);
    let total = {
        let plan = gpm_pattern::plan::MatchingPlan::compile(
            &gpm_pattern::Pattern::triangle(),
            &PlanOptions::automine(),
        )
        .unwrap();
        e.count(&plan).count
    };
    let mut labeled_sum = 0u64;
    let mut seen = std::collections::HashSet::new();
    for a in 0..2u16 {
        for b in 0..2u16 {
            for c in 0..2u16 {
                let p = gpm_pattern::Pattern::triangle().with_labels(vec![a, b, c]).unwrap();
                if !seen.insert(iso::canonical_code(&p)) {
                    continue;
                }
                let plan =
                    gpm_pattern::plan::MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
                labeled_sum += e.count(&plan).count;
            }
        }
    }
    e.shutdown();
    assert_eq!(labeled_sum, total);
}

#[test]
fn cli_and_library_agree() {
    let g = gen::barabasi_albert(150, 4, 44);
    let dir = std::env::temp_dir().join("gpm_cli_it.txt");
    gpm_graph::io::write_edge_list_text(&g, std::fs::File::create(&dir).unwrap()).unwrap();
    let out = gpm_apps::cli::run(&[
        "--graph".into(),
        dir.to_str().unwrap().into(),
        "--pattern".into(),
        "triangle".into(),
        "--machines".into(),
        "2".into(),
        "--quiet".into(),
    ])
    .unwrap();
    let plan = gpm_pattern::plan::MatchingPlan::compile(
        &gpm_pattern::Pattern::triangle(),
        &PlanOptions::automine(),
    )
    .unwrap();
    assert_eq!(out.trim().parse::<u64>().unwrap(), interp::count_embeddings(&g, &plan));
    let _ = std::fs::remove_file(dir);
}

#[test]
fn gpm_exits_2_on_a_usage_error_and_1_on_a_failure() {
    let gpm = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_gpm"))
            .args(args)
            .output()
            .expect("gpm starts");
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (out.status.code(), text(&out.stdout), text(&out.stderr))
    };
    let hint = "run with --help for usage";
    // A command line that does not parse: status 2, and the hint.
    for args in [
        &["--bogus"][..],
        &["--gen", "ba:100,3"],
        &["--gen", "zzz:1", "--pattern", "triangle"],
        &["report", "diff", "only-one.json"],
        &["incident", "frobnicate"],
    ] {
        let (code, _, err) = gpm(args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains(hint), "{args:?}: {err}");
    }
    // A command that ran and failed: status 1, and no hint.
    let dir = std::env::temp_dir().join(format!("gpm-exit-status-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).display().to_string();
    std::fs::write(path("bad.json"), "{\"schema_version\": 99}").unwrap();
    for pattern in ["triangle", "path:3"] {
        let out = path(&format!("{pattern}.json"));
        let run = ["--gen", "er:120,500,7", "--pattern", pattern, "--machines", "2", "--quiet"];
        assert_eq!(gpm(&[&run[..], &["--report-out", &out]].concat()).0, Some(0), "{pattern}");
    }
    let failures = [
        // A refused file.
        vec!["report-validate".to_string(), path("bad.json")],
        // A regression verdict: the counts differ.
        vec!["report".into(), "diff".into(), path("triangle.json"), path("path:3.json")],
        // A failed run: a crash with no replica to recover from.
        "--gen er:120,500,7 --pattern triangle --machines 3 --quiet --fault-crash 1@0"
            .split(' ')
            .map(String::from)
            .collect(),
    ];
    for args in failures {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (code, out, err) = gpm(&args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(err.starts_with("error: ") && !err.contains(hint), "{args:?}: {err}");
        if args[0] == "report" {
            // The verdict's comparison goes to stdout, as a PASS's does;
            // stderr carries the one-line reason only.
            assert!(out.contains("REGRESSION: ") && out.contains("FAIL: "), "{out}");
            assert_eq!(err.lines().count(), 1, "{err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
