//! The propagation layer on its own: one Compete run (Algorithm 1's main
//! and background ICP schedules plus Algorithm 4) over a fixed, already
//! built `Precomputed`, exactly as a pooled trial runs it after its
//! precompute — `CompeteProtocol::reuse`, then `Simulator::reuse` +
//! `run_with_buf`.
//!
//! Two workloads mirror the repo benchmark's Compete workloads:
//! leader-election candidates (`2·log₂ n / n` self-selection, random ids)
//! on `grid(150x150)`, and one broadcast source on `rgg(20000,0.014)`. The
//! precompute, the sources and the pooled buffers are fixed; each
//! iteration runs the protocol under the next seed, so two builds time the
//! same sequence of runs.
//!
//! ```bash
//! cargo bench --bench propagation
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use rn_core::{CompeteMsg, CompeteParams, CompeteProtocol, CompeteState, Precomputed};
use rn_graph::{Graph, NodeId, TopologySpec};
use rn_sim::{rng, CollisionModel, NetParams, SimScratch, Simulator, TxBuf};

/// Graph-build seed: benches pin one topology instance across all runs.
const TOPOLOGY_SEED: u64 = 0x9C;

/// Seed of the one precompute every iteration runs over.
const PRECOMPUTE_SEED: u64 = 0x9DE;

/// Leader election's candidate self-selection (Algorithm 6 steps 1–2):
/// each node with probability `2·log₂ n / n`, with a random id whose low
/// bits are the node id.
fn election_candidates(g: &Graph, net: NetParams) -> Vec<(NodeId, u64)> {
    let p_cand = (2.0 * net.log2_n() as f64 / g.n() as f64).min(1.0);
    let mut crng = rng::stream_rng(1, 0xCA4D);
    let mut out = Vec::new();
    for v in g.nodes() {
        if crng.gen::<f64>() < p_cand {
            out.push((v, crng.gen::<u64>() & !0xFFFF_FFFFu64 | v as u64));
        }
    }
    assert!(!out.is_empty(), "seed 1 draws candidates");
    out
}

fn bench_propagation(c: &mut Criterion) {
    let params = CompeteParams::default();
    let mut group = c.benchmark_group("propagation");
    group.sample_size(10);
    for (spec, election) in [("grid(150x150)", true), ("rgg(20000,0.014)", false)] {
        let g = spec.parse::<TopologySpec>().expect("topology spec parses").build(TOPOLOGY_SEED);
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        let sources = if election { election_candidates(&g, net) } else { vec![(0, 1)] };
        let pre = Precomputed::build(&g, net, &params, PRECOMPUTE_SEED);
        let mut state = CompeteState::default();
        let mut engine = SimScratch::default();
        let mut tx = TxBuf::<CompeteMsg>::new();
        let label = if election { "election" } else { "broadcast" };
        group.bench_function(format!("{spec}/{label}"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut proto = CompeteProtocol::reuse(&pre, params, &sources, seed, &mut state);
                let mut sim = Simulator::reuse(
                    &mut engine,
                    &g,
                    CollisionModel::NoCollisionDetection,
                    seed,
                    None,
                );
                tx.clear();
                tx.reserve(g.n());
                sim.run_with_buf(&mut proto, &mut tx, params.max_rounds(&net)).rounds
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_propagation);
criterion_main!(benches);
