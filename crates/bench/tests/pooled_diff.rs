//! Differential gate for the trial path: every registered protocol family,
//! run through [`rn_sim::Runnable::run_trial_pooled`] with ONE long-lived
//! [`rn_sim::TrialPool`], must produce a [`rn_sim::TrialRecord`]
//! byte-identical to the same trial on a cold pool — across topologies of
//! different sizes and shapes, both collision models, every fault-plan form,
//! and repeated seeds.
//!
//! A cold pool's first trial builds every piece of scenario state with its
//! constructor (`new`, `single_source`, `Partition::compute`, …); the
//! carried pool re-arms the same state with `reset`/`rebuild`. Sharing a
//! single pool across the whole sweep is the point: it forces every
//! scenario-type switch (the pool's `Any` slot is recreated), every
//! graph-size switch (scratch re-arms), and every back-to-back reuse (stale
//! state from the previous trial must be unobservable) that the campaign
//! executor's per-worker pools see in production.

use rn_bench::ProtocolSpec;
use rn_graph::TopologySpec;
use rn_sim::{CollisionModel, FaultPlan, NetParams, TrialPool};

#[test]
fn pooled_trials_match_fresh_trials_across_the_whole_registry() {
    let topologies = [
        TopologySpec::Grid { w: 8, h: 8 },
        TopologySpec::Complete(24),
        TopologySpec::Path(40),
        TopologySpec::Rgg { n: 48, radius: 0.3 },
    ];
    let faults = [FaultPlan::none(), FaultPlan::drop(0.05), FaultPlan::jam(2, 0.5)];
    // One pool for everything — the worst-case reuse schedule.
    let mut carried = TrialPool::new();
    for topo in &topologies {
        let g = topo.build(0xD1FF);
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        for spec in ProtocolSpec::all() {
            if spec.required_nodes() > g.n() {
                continue;
            }
            let runnable = spec.instantiate();
            for model in [CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection]
            {
                for (fi, fault) in faults.iter().enumerate() {
                    for seed in 0..2u64 {
                        let schedule = fault.schedule_for(g.n(), seed);
                        let run = |pool: &mut TrialPool| {
                            runnable.run_trial_pooled(&g, net, model, seed, schedule.as_ref(), pool)
                        };
                        let cold = run(&mut TrialPool::new());
                        assert_eq!(
                            cold,
                            run(&mut carried),
                            "{spec} × {topo} × {model:?} × fault[{fi}] × seed {seed} diverged \
                             between a cold pool and the carried one"
                        );
                    }
                }
            }
        }
    }
}
