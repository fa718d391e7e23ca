//! The oracle precompute layer, call by call: the pooled Partition(β) race
//! (global and within regions), the pooled tree-schedule rebuild, and the
//! whole pooled `Precomputed::rebuild` the paper's Compete pipeline runs
//! once per trial.
//!
//! Two graphs bracket the regime: `rgg(20000,0.014)` (mean degree ~12, the
//! `broadcast@rgg` scale) and `grid(150x150)` (degree 4, diameter 298, many
//! small clusters). β values are the ones the precompute itself uses on
//! each graph: the background rate for the global race and the schedule,
//! the finest fine-clustering rate for the race within coarse clusters.
//! Every arm reuses its scratch across iterations, so the numbers are the
//! steady-state cost a pooled trial pays.
//!
//! ```bash
//! cargo bench --bench precompute
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use rn_cluster::{Partition, PartitionScratch};
use rn_core::{CompeteParams, PrecomputeScratch, Precomputed};
use rn_graph::TopologySpec;
use rn_schedule::{SlotPolicy, TreeSchedule, TreeScheduleScratch};
use rn_sim::{rng, NetParams};

/// Graph-build seed: benches pin one topology instance across all runs.
const TOPOLOGY_SEED: u64 = 0x9C;

const TOPOLOGIES: &[&str] = &["rgg(20000,0.014)", "grid(150x150)"];

fn bench_precompute(c: &mut Criterion) {
    let params = CompeteParams::default();
    let mut group = c.benchmark_group("precompute");
    group.sample_size(10);
    for spec in TOPOLOGIES {
        let g = spec.parse::<TopologySpec>().expect("topology spec parses").build(TOPOLOGY_SEED);
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        let bg_beta = params.bg_beta(&net);
        let fine_beta = (2.0f64).powi(-(params.j_values(&net)[0] as i32));
        let coarse = Partition::compute(&g, params.coarse_beta(&net), &mut rng::stream_rng(0, 1));
        let region: Vec<u32> = g.nodes().map(|v| coarse.cluster_index(v)).collect();

        let mut part = Partition::compute(&g, bg_beta, &mut rng::stream_rng(0, 2));
        let mut scratch = PartitionScratch::default();
        group.bench_function(format!("{spec}/partition_recompute"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                part.recompute(&g, bg_beta, &mut rng::stream_rng(seed, 2), &mut scratch);
                part.num_clusters()
            });
        });
        group.bench_function(format!("{spec}/partition_recompute_within"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut r = rng::stream_rng(seed, 3);
                part.recompute_within(&g, fine_beta, &region, &mut r, &mut scratch);
                part.num_clusters()
            });
        });

        let part = Partition::compute(&g, bg_beta, &mut rng::stream_rng(0, 4));
        let mut sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let mut sched_scratch = TreeScheduleScratch::default();
        group.bench_function(format!("{spec}/schedule_rebuild"), |b| {
            b.iter(|| {
                sched.rebuild(&g, &part, SlotPolicy::Auto, &mut sched_scratch);
                sched.window()
            });
        });

        let mut pre = Precomputed::build(&g, net, &params, 0);
        let mut pre_scratch = PrecomputeScratch::default();
        group.bench_function(format!("{spec}/precomputed_rebuild"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                pre.rebuild(&g, net, &params, seed, &mut pre_scratch);
                pre.charged_rounds
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_precompute);
criterion_main!(benches);
