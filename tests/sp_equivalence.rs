//! CH ↔ Dijkstra equivalence over random graphs.
//!
//! The contraction-hierarchy query path promises *bit-identical* answers to
//! plain Dijkstra — same node sequence, same f64 weight — on any graph the
//! engine accepts. These property tests throw random undirected graphs at
//! both modes: zero-weight edges (tie-breaking stress), duplicate arcs
//! between the same endpoints, self loops, and disconnected components all
//! occur naturally under the generator below.
//!
//! Both modes are forced via `with_mode`: without the override every
//! engine resolves to Dijkstra.

use igdb_core::{with_mode, ShortestPathEngine, SpMode, SpWorkspace};
use proptest::prelude::*;

/// Random undirected graph: up to 20 nodes, up to 60 arcs drawn with
/// replacement (duplicates and self loops allowed), weights mixing exact
/// zeros, repeated constants (forcing weight ties), and arbitrary reals.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (1usize..20).prop_flat_map(|n| {
        let w = prop_oneof![
            2 => Just(0.0f64),
            3 => Just(1.0f64),
            2 => Just(2.5f64),
            3 => 0.0f64..50.0,
        ];
        let arc = (0..n, 0..n, w);
        (Just(n), proptest::collection::vec(arc, 0..60))
    })
}

fn build(n: usize, arcs: &[(usize, usize, f64)]) -> ShortestPathEngine {
    ShortestPathEngine::from_undirected(n, arcs.iter().copied())
}

proptest! {
    // Each case checks all O(n²) pairs in both modes; fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline contract: identical `(path, weight)` for every pair,
    /// under both modes, with fresh workspaces.
    #[test]
    fn ch_matches_dijkstra(g in arb_graph()) {
        let (n, arcs) = g;
        let e = build(n, &arcs);
        e.prepare_ch();
        for from in 0..n {
            for to in 0..n {
                let d = with_mode(SpMode::Dijkstra, || {
                    e.shortest_path_with(&mut SpWorkspace::new(), from, to)
                });
                let c = with_mode(SpMode::Ch, || {
                    e.shortest_path_with(&mut SpWorkspace::new(), from, to)
                });
                prop_assert_eq!(&d, &c, "pair ({}, {})", from, to);
                // Weights must be bit-identical, not merely approximately
                // equal — assert_eq on f64 already checks that, but make
                // the intent explicit for the one place it matters.
                if let (Some((_, dw)), Some((_, cw))) = (&d, &c) {
                    prop_assert_eq!(dw.to_bits(), cw.to_bits());
                }
            }
        }
    }

    /// Resumed Dijkstra workspaces and CH answers agree: mirrors the unit
    /// test `resumed_queries_match_fresh_queries`, with CH as the oracle.
    #[test]
    fn resumed_dijkstra_matches_ch(g in arb_graph(), from_seed in any::<usize>()) {
        let (n, arcs) = g;
        let e = build(n, &arcs);
        e.prepare_ch();
        let from = from_seed % n;
        let mut resumed = SpWorkspace::for_engine(&e);
        for to in 0..n {
            let d = with_mode(SpMode::Dijkstra, || {
                e.shortest_path_with(&mut resumed, from, to)
            });
            let c = with_mode(SpMode::Ch, || {
                e.shortest_path_with(&mut SpWorkspace::new(), from, to)
            });
            prop_assert_eq!(d, c, "resumed pair ({}, {})", from, to);
        }
    }

    /// The batched APIs agree with themselves across modes (the CH side
    /// shares one upward search across the batch; the Dijkstra side
    /// resumes one forward search).
    #[test]
    fn batched_distances_are_mode_invariant(g in arb_graph()) {
        let (n, arcs) = g;
        let e = build(n, &arcs);
        e.prepare_ch();
        let sources: Vec<usize> = (0..n).step_by(3).collect();
        let targets: Vec<usize> = (0..n).rev().collect();
        let d = with_mode(SpMode::Dijkstra, || {
            e.many_to_many(&mut SpWorkspace::for_engine(&e), &sources, &targets)
        });
        let c = with_mode(SpMode::Ch, || {
            e.many_to_many(&mut SpWorkspace::for_engine(&e), &sources, &targets)
        });
        prop_assert_eq!(d, c);
    }
}

/// One deterministic non-proptest case so a plain `cargo test` failure here
/// is immediately reproducible without a proptest seed: the lattice from
/// the resume unit test, all pairs, both modes, shared workspaces.
#[test]
fn lattice_all_pairs_agree_across_modes() {
    let mut arcs = Vec::new();
    for i in 0..20usize {
        arcs.push((i, (i + 1) % 20, 1.0 + (i % 3) as f64));
        if i % 4 == 0 {
            arcs.push((i, (i + 7) % 20, 2.5));
        }
    }
    let e = build(20, &arcs);
    e.prepare_ch();
    let mut dws = SpWorkspace::for_engine(&e);
    let mut cws = SpWorkspace::for_engine(&e);
    for from in 0..20 {
        for to in 0..20 {
            let d = with_mode(SpMode::Dijkstra, || e.shortest_path_with(&mut dws, from, to));
            let c = with_mode(SpMode::Ch, || e.shortest_path_with(&mut cws, from, to));
            assert_eq!(d, c, "pair ({from}, {to})");
        }
    }
}
