//! Oracle-precompute byte-identity regression gate.
//!
//! `Precomputed::build` runs every Partition(β) race and tree schedule the
//! paper's Compete pipeline replays, and the committed benchmark baselines
//! depend on each of them bit for bit. This test pins an order-sensitive
//! SplitMix64 fold over everything the precompute produces — every coarse,
//! fine and background `center_of`, every schedule's parent / depth / slots
//! / window / depth bound, and the charged round count — on two topology
//! families at three seeds. A race or schedule rewrite that changes any
//! tie-break, slot choice or charge shows up here as a fingerprint mismatch
//! before it shows up as a baseline diff.

use rn_cluster::Partition;
use rn_core::{CompeteParams, Precomputed};
use rn_graph::{Graph, TopologySpec};
use rn_schedule::TreeSchedule;
use rn_sim::rng::splitmix64;
use rn_sim::NetParams;

fn fold(h: u64, x: u64) -> u64 {
    splitmix64(h ^ x)
}

fn fold_partition(mut h: u64, g: &Graph, p: &Partition) -> u64 {
    for v in g.nodes() {
        h = fold(h, p.center_of(v) as u64);
    }
    h
}

fn fold_schedule(mut h: u64, g: &Graph, s: &TreeSchedule) -> u64 {
    h = fold(h, (s.window() as u64) << 32 | s.max_depth() as u64);
    for v in g.nodes() {
        h = fold(h, (s.parent(v) as u64) << 32 | s.depth(v) as u64);
        h = fold(h, (s.down_slot(v) as u64) << 32 | s.up_slot(v) as u64);
    }
    h
}

/// Order-sensitive fingerprint: coarse, then fines, then background, then
/// the charge.
fn fingerprint(g: &Graph, pre: &Precomputed) -> u64 {
    let mut h = splitmix64(g.n() as u64);
    h = fold_partition(h, g, &pre.coarse);
    h = fold_schedule(h, g, &pre.coarse_sched);
    for f in pre.fines.iter().chain(&pre.bg) {
        h = fold_partition(h, g, &f.partition);
        h = fold_schedule(h, g, &f.schedule);
    }
    fold(h, pre.charged_rounds)
}

fn graph(spec: &str) -> (Graph, NetParams) {
    let g = spec.parse::<TopologySpec>().expect("spec parses").build(0);
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    (g, net)
}

const SEEDS: [u64; 3] = [0, 7, 42];

#[test]
fn precompute_is_byte_identical() {
    // (spec, per-seed pinned fingerprints).
    let pinned: &[(&str, [u64; 3])] = &[
        ("grid(30x30)", [0x6aa0_0d63_e968_8144, 0x17f6_c11f_193f_6d1f, 0x220d_861c_51ee_ce18]),
        ("rgg(3000,0.04)", [0xa4e9_85e9_e9c5_d4ba, 0x76e7_2095_36e3_a429, 0xee8e_54a7_86df_e92a]),
    ];
    let params = CompeteParams::default();
    for &(spec, want) in pinned {
        let (g, net) = graph(spec);
        for (&seed, &want) in SEEDS.iter().zip(&want) {
            let got = fingerprint(&g, &Precomputed::build(&g, net, &params, seed));
            assert_eq!(
                got, want,
                "precompute bytes changed for {spec} @ seed {seed}: fingerprint \
                 {got:#018x} != pinned {want:#018x} — a race tie-break, slot \
                 colouring or charge moved"
            );
        }
    }
}
