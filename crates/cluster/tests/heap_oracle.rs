//! Differential test: the Partition(β) race against the lazy-deletion
//! binary-heap race it replaced.
//!
//! The heap race below is the former library implementation, kept verbatim
//! as a test-only oracle. It pops `(key, center, node)` tuples in their
//! total order, so it *defines* the exact tie-breaking the library race
//! must reproduce: equal keys go to the smaller center id, then the smaller
//! node id. The proptest covers random connected graphs, random region
//! labelings and β from the `MIN_BETA` floor up to `1e17` (keys near
//! `−1e-17`, where `key + 1.0` rounds up to exactly `1.0`; the library race
//! never queues such a key, since it cannot beat any node's own seed key
//! `≤ 0`). The deterministic cases clamp shifts onto exact integers and
//! onto the floats next to them, so ties on the key are frequent and the
//! center-id tie-break decides them.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rn_cluster::{ExponentialShifts, Partition};
use rn_graph::{generators, Graph, NodeId, INVALID_NODE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total-order wrapper for `f64` race keys (shifts are continuous, so ties
/// are measure-zero; `total_cmp` still makes the race fully deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The heap race: center per node.
fn heap_race(g: &Graph, shifts: &ExponentialShifts, region: Option<&[u32]>) -> Vec<NodeId> {
    let n = g.n();
    let mut heap = BinaryHeap::new();
    heap.reserve(n + 2 * g.m());
    for u in g.nodes() {
        heap.push(Reverse((Key(-shifts.delta(u)), u, u)));
    }
    let mut center = vec![INVALID_NODE; n];
    while let Some(Reverse((key, c, v))) = heap.pop() {
        if center[v as usize] != INVALID_NODE {
            continue;
        }
        center[v as usize] = c;
        for &w in g.neighbors(v) {
            let crosses = region.is_some_and(|r| r[w as usize] != r[v as usize]);
            if center[w as usize] == INVALID_NODE && !crosses {
                heap.push(Reverse((Key(key.0 + 1.0), c, w)));
            }
        }
    }
    center
}

fn centers(g: &Graph, p: &Partition) -> Vec<NodeId> {
    g.nodes().map(|v| p.center_of(v)).collect()
}

/// A connected graph built from a spanning path plus arbitrary chords.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (3usize..48).prop_flat_map(|n| {
        let edge = (0..n as u32, 1..n as u32).prop_map(move |(u, k)| {
            let v = (u + k) % n as u32;
            if u < v {
                (u, v)
            } else {
                (v, u)
            }
        });
        proptest::collection::vec(edge, 0..80).prop_map(move |mut edges| {
            for v in 1..n as u32 {
                edges.push((v - 1, v));
            }
            Graph::from_edges(n, &edges).expect("valid edges")
        })
    })
}

const BETAS: [f64; 6] = [1e-12, 1e-9, 0.05, 0.5, 1.0, 1e17];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn race_matches_heap_race(g in arb_connected_graph(), seed in any::<u64>(),
                                     beta_i in 0usize..6, regions in 1u32..5,
                                     label_seed in any::<u64>()) {
        let beta = BETAS[beta_i];
        let mut lrng = SmallRng::seed_from_u64(label_seed);
        let region: Vec<u32> = g.nodes().map(|_| rand::Rng::gen_range(&mut lrng, 0..regions)).collect();

        let shifts = ExponentialShifts::sample(g.n(), beta, &mut SmallRng::seed_from_u64(seed));
        let whole = Partition::compute(&g, beta, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(centers(&g, &whole), heap_race(&g, &shifts, None));

        let within =
            Partition::compute_within(&g, beta, &region, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(centers(&g, &within), heap_race(&g, &shifts, Some(&region)));
    }
}

/// Shifts clamped to `cap`: every clipped node shares one key, so the race
/// is decided by the center-id tie-break.
fn clamped(g: &Graph, beta: f64, cap: f64, seed: u64) -> ExponentialShifts {
    let mut s = ExponentialShifts::sample(g.n(), beta, &mut SmallRng::seed_from_u64(seed));
    s.clamp_max(cap);
    s
}

#[test]
fn integer_and_near_integer_key_ties_break_like_the_heap() {
    let graphs = [
        generators::grid(9, 9),
        generators::path(40),
        generators::barbell(8, 6),
        generators::random_geometric(120, 0.15, &mut SmallRng::seed_from_u64(3)),
    ];
    // Exact integers, the floats on either side of an integer, a half, and
    // a cap so small that `key + 1.0` rounds to exactly 1.0.
    let below_three = f64::from_bits(3.0f64.to_bits() - 1);
    let above_two = f64::from_bits(2.0f64.to_bits() + 1);
    let caps = [0.0, 1.0, 3.0, below_three, above_two, 2.5, 1e-17];
    for g in &graphs {
        for &cap in &caps {
            for seed in 0..4 {
                // β = 0.05 puts nearly every shift above the cap.
                let shifts = clamped(g, 0.05, cap, seed);
                let got = centers(g, &Partition::with_shifts(g, &shifts));
                assert_eq!(got, heap_race(g, &shifts, None), "n {} cap {cap:e} seed {seed}", g.n());
            }
        }
    }
}
