//! Property-based tests for the graph substrate.

use gpm_graph::partition::{GraphPart, PartitionedGraph, Partitioner};
use gpm_graph::rank::rank_by_degree;
use gpm_graph::{set_ops, GraphBuilder, VertexId};
use proptest::prelude::*;

fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = Vec<(VertexId, VertexId)>> {
    prop::collection::vec((0..max_v, 0..max_v), 0..max_e)
}

fn arb_sorted_set(max: u32) -> impl Strategy<Value = Vec<VertexId>> {
    arb_sorted_set_of(max, 63)
}

/// Up to `max_len` distinct ids below `max`, ascending.
fn arb_sorted_set_of(max: u32, max_len: usize) -> impl Strategy<Value = Vec<VertexId>> {
    prop::collection::btree_set(0..max, 0..max_len + 1).prop_map(|s| s.into_iter().collect())
}

/// Two ascending id lists shaped to reach every intersection kernel: each
/// up to 40 long or a few hundred (every residue mod 8 on either side; at
/// 16× apart they gallop), ids from a shared range 2× (dense: most ids
/// shared) or 50× (sparse) the longer length, which half the time ends at
/// `u32::MAX`.
fn arb_list_pair() -> impl Strategy<Value = (Vec<VertexId>, Vec<VertexId>)> {
    let len = || prop_oneof![0usize..41, 200usize..460];
    (len(), len(), prop_oneof![Just(2u32), Just(50)], any::<bool>()).prop_flat_map(
        |(la, lb, spread, top)| {
            let range = (la.max(lb) as u32 + 1) * spread;
            let base = if top { VertexId::MAX - (range - 1) } else { 0 };
            let list = move |len| {
                arb_sorted_set_of(range, len)
                    .prop_map(move |s| s.into_iter().map(|v| v + base).collect::<Vec<_>>())
            };
            (list(la), list(lb))
        },
    )
}

/// Whether `set_ops::intersect_*` run this pair through the vector block
/// loop where `set_ops::kernel()` is `"avx2"` (elsewhere: the scalar
/// merge): a whole block of 8 on the shorter side, lengths within 16×.
fn reaches_block_loop(a: &[VertexId], b: &[VertexId]) -> bool {
    let (short, long) = (a.len().min(b.len()), a.len().max(b.len()));
    short >= 8 && long / short < 16
}

/// An optional bound, sometimes beyond every value in the lists.
fn arb_bound(max: u32) -> impl Strategy<Value = Option<VertexId>> {
    (any::<bool>(), 0..max).prop_map(|(some, v)| some.then_some(v))
}

proptest! {
    #[test]
    fn builder_output_is_canonical(edges in arb_edges(64, 200)) {
        let g = edges.iter().copied().collect::<GraphBuilder>().build();
        // Sorted, no duplicates, no self-loops, symmetric.
        for v in g.vertices() {
            let n = g.neighbors(v);
            prop_assert!(n.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!n.contains(&v));
            for &u in n {
                prop_assert!(g.has_edge(u, v));
            }
        }
        // Every input edge (non-loop) is present.
        for (u, v) in edges {
            if u != v {
                prop_assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn intersection_equals_naive(a in arb_sorted_set(128), b in arb_sorted_set(128)) {
        let mut out = Vec::new();
        set_ops::intersect_into(&a, &b, &mut out);
        let naive: Vec<VertexId> =
            a.iter().copied().filter(|x| b.contains(x)).collect();
        prop_assert_eq!(&out, &naive);
        prop_assert_eq!(set_ops::intersect_count(&a, &b), naive.len());
    }

    /// The kernel `set_ops` picks for a pair equals a filter and equals the
    /// scalar merge called directly, whatever the pair's shape. The lists
    /// start `off` elements into their allocations, so block loads are
    /// unaligned, and `out` arrives non-empty with no spare capacity.
    #[test]
    fn every_kernel_equals_the_scalar_merge(
        (a, b) in arb_list_pair(),
        off in (0usize..4, 0usize..4),
    ) {
        let (pa, pb) = ([vec![0; off.0], a].concat(), [vec![0; off.1], b].concat());
        let (a, b) = (&pa[off.0..], &pb[off.1..]);
        let naive: Vec<VertexId> =
            a.iter().copied().filter(|x| b.binary_search(x).is_ok()).collect();
        let mut scalar = Vec::new();
        set_ops::merge_intersect_into(a, b, &mut scalar);
        prop_assert_eq!(&scalar, &naive);
        prop_assert_eq!(set_ops::merge_intersect_count(a, b), naive.len());
        for (x, y) in [(a, b), (b, a)] {
            let mut out = vec![7, 9];
            out.shrink_to_fit();
            set_ops::intersect_into(x, y, &mut out);
            prop_assert_eq!(&out[..2], &[7, 9][..]);
            prop_assert_eq!(&out[2..], &naive[..]);
            prop_assert_eq!(set_ops::intersect_count(x, y), naive.len());
        }
    }

    /// The generator above is not all short or skewed pairs: a third or
    /// more of its draws are rows for the block loop.
    #[test]
    fn a_fair_share_of_generated_pairs_reaches_the_block_loop(
        pairs in prop::collection::vec(arb_list_pair(), 64..65),
    ) {
        let block = pairs.iter().filter(|(a, b)| reaches_block_loop(a, b)).count();
        prop_assert!(block >= 12, "{block} of 64");
    }

    #[test]
    fn subtraction_equals_naive(a in arb_sorted_set(128), b in arb_sorted_set(128)) {
        let mut out = Vec::new();
        set_ops::subtract_into(&a, &b, &mut out);
        let naive: Vec<VertexId> =
            a.iter().copied().filter(|x| !b.contains(x)).collect();
        prop_assert_eq!(out, naive);
    }

    /// Three lists, short or a few hundred long: intermediates and the
    /// final pair go through whichever kernel their lengths select.
    #[test]
    fn many_way_intersection_equals_pairwise(
        (a, b) in arb_list_pair(),
        c_stride in 1usize..4,
    ) {
        // `c`: every `c_stride`-th id of the union, so all three overlap.
        let mut c: Vec<VertexId> = a.iter().chain(&b).copied().collect();
        c.sort_unstable();
        c.dedup();
        let c: Vec<VertexId> = c.into_iter().step_by(c_stride).collect();
        let naive: Vec<VertexId> = a
            .iter()
            .copied()
            .filter(|x| b.binary_search(x).is_ok() && c.binary_search(x).is_ok())
            .collect();
        let (mut ab, mut pairwise) = (Vec::new(), Vec::new());
        set_ops::intersect_into(&a, &b, &mut ab);
        set_ops::intersect_into(&ab, &c, &mut pairwise);
        prop_assert_eq!(&pairwise, &naive);
        // Stale contents of either buffer must not leak into the result.
        let (mut tmp, mut out) = (vec![7], vec![9]);
        set_ops::intersect_many_into(&mut [&a, &b, &c], &mut tmp, &mut out);
        prop_assert_eq!(&out, &naive);
        prop_assert_eq!(
            set_ops::intersect_many_count(&mut [&c, &a, &b], &mut tmp, &mut out),
            naive.len()
        );
    }

    /// Pushing a `(lo, hi)` window into the intersection — clamp both
    /// inputs, then intersect — equals intersecting the full lists and
    /// filtering the result, on every kernel path: which one runs depends
    /// on the *clamped* lengths. Against a dense `b`, an `a` of several
    /// hundred ids stays within 16× of it (block loop, or the scalar merge
    /// once the window leaves under 8), and thinned to a handful by
    /// `a_stride` 40 it crosses the gallop threshold as the window moves.
    #[test]
    fn bounded_intersection_equals_filtered_unbounded(
        a in arb_sorted_set_of(4096, 600),
        dense_len in 0u32..4096,
        a_stride in prop_oneof![Just(1usize), Just(40)],
        lo in arb_bound(5000),
        hi in arb_bound(5000),
    ) {
        let a: Vec<VertexId> = a.into_iter().step_by(a_stride).collect();
        let b: Vec<VertexId> = (0..dense_len).collect();
        let mut full = Vec::new();
        set_ops::intersect_into(&a, &b, &mut full);
        let naive: Vec<VertexId> = a.iter().copied().filter(|&x| x < dense_len).collect();
        prop_assert_eq!(&full, &naive);
        let expect: Vec<VertexId> = full
            .into_iter()
            .filter(|&x| lo.is_none_or(|l| x > l) && hi.is_none_or(|h| x < h))
            .collect();

        let (ca, cb) = (set_ops::clamp(&a, lo, hi), set_ops::clamp(&b, lo, hi));
        prop_assert!(ca.iter().chain(cb).all(|&x| lo.is_none_or(|l| x > l) && hi.is_none_or(|h| x < h)));
        let mut out = Vec::new();
        set_ops::intersect_into(ca, cb, &mut out);
        prop_assert_eq!(&out, &expect);
        prop_assert_eq!(set_ops::intersect_count(ca, cb), expect.len());
        // Argument order is irrelevant to either kernel.
        prop_assert_eq!(set_ops::intersect_count(cb, ca), expect.len());
    }

    #[test]
    fn partition_covers_all_edge_lists(
        edges in arb_edges(48, 150),
        machines in 1usize..5,
        sockets in 1usize..3,
    ) {
        let input = edges.into_iter().collect::<GraphBuilder>().build();
        if input.vertex_count() == 0 { return Ok(()); }
        let pg = PartitionedGraph::new(&input, machines, sockets);
        let g = rank_by_degree(&input).0;
        for v in g.vertices() {
            let owner = pg.owner(v);
            prop_assert!(owner < pg.part_count());
            prop_assert_eq!(pg.part(owner).edge_list(v).unwrap(), g.neighbors(v));
        }
        let total: usize = (0..pg.part_count()).map(|p| pg.part(p).owned_count()).sum();
        prop_assert_eq!(total, g.vertex_count());
    }

    #[test]
    fn edge_list_index_agrees_with_a_search_over_owned(
        edges in arb_edges(48, 150),
        parts in 1usize..6,
        range in any::<bool>(),
    ) {
        let g = edges.into_iter().collect::<GraphBuilder>().build();
        let strategy = if range { Partitioner::Range } else { Partitioner::Hash };
        let pg = PartitionedGraph::with_partitioner(&g, parts, 1, strategy);
        for p in 0..parts {
            let built = pg.part(p);
            let rebuilt = GraphPart::from_csr(
                p,
                built.owned().to_vec(),
                built.offsets().to_vec(),
                built.neighbors().to_vec(),
                g.vertex_count(),
            );
            // Owned here, owned elsewhere, and past the id range.
            for v in 0..g.vertex_count() as VertexId + 2 {
                let oracle =
                    built.owned().binary_search(&v).ok().map(|r| built.edge_list_by_rank(r));
                prop_assert_eq!(built.edge_list(v), oracle);
                prop_assert_eq!(rebuilt.edge_list(v), oracle);
            }
        }
    }

    #[test]
    fn orientation_preserves_edge_multiset(edges in arb_edges(40, 120)) {
        let g = edges.into_iter().collect::<GraphBuilder>().build();
        if g.vertex_count() == 0 { return Ok(()); }
        let (ranked, original) = rank_by_degree(&g);
        prop_assert_eq!(ranked.edge_count(), g.edge_count());
        let back = |v: VertexId| original[v as usize];
        let mut from_dag: Vec<(VertexId, VertexId)> = ranked
            .edges()
            .map(|(u, v)| (back(u).min(back(v)), back(u).max(back(v))))
            .collect();
        from_dag.sort_unstable();
        let mut from_g: Vec<(VertexId, VertexId)> = g.edges().collect();
        from_g.sort_unstable();
        prop_assert_eq!(from_dag, from_g);
    }

    #[test]
    fn text_io_roundtrip(edges in arb_edges(40, 100)) {
        let g = edges.into_iter().collect::<GraphBuilder>().build();
        let mut buf = Vec::new();
        gpm_graph::io::write_edge_list_text(&g, &mut buf).unwrap();
        let g2 = gpm_graph::io::read_edge_list_text(&buf[..]).unwrap();
        // Roundtrip may shrink vertex count if trailing vertices are
        // isolated; compare edge sets.
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        prop_assert_eq!(e1, e2);
    }
}
