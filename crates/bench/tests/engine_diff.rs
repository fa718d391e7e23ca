//! Differential gate for the engine: every public protocol behind the
//! registry families runs wrapped in [`Audit`], the brute-force channel
//! specification in `rn_sim::testing`, across random small topologies, both
//! collision models and every fault-plan form (`none`, `jam`, `drop`,
//! `crash`). The audit recomputes every round from the graph and panics on
//! the first callback, callback order, round-end view bit or frontier where
//! the engine departs from the definition; after each run the engine's
//! metrics and `last_touched` must match the specification's too.
//!
//! This is the cross-crate complement of the in-crate engine tests: those
//! pin the channel on hand-built protocols; this one runs the protocols the
//! campaigns measure, so a new family (or a frontier-aware protocol fast
//! path) cannot drift from the channel definition without failing here.

use proptest::prelude::*;
use rn_baselines::BeepWave;
use rn_bench::ProtocolSpec;
use rn_cluster::{DistributedPartition, DistributedPartitionConfig, Partition};
use rn_core::{CompeteParams, CompeteProtocol, Precomputed};
use rn_decay::{DecayBroadcast, LayeredDecayCd, TruncatedDecayBroadcast};
use rn_graph::{Graph, NodeId, TopologySpec};
use rn_schedule::{
    Downcast, PipelinedDowncast, SlotPolicy, TreeSchedule, Upcast, DEFAULT_SCHEDULE_BETA,
};
use rn_sim::testing::{Audit, NaiveFlood};
use rn_sim::{rng, CollisionModel, FaultPlan, FaultSchedule, NetParams, Protocol, Simulator};

/// Every registry family; `audit_every_protocol` runs the protocol types
/// their trials use.
const AUDITED_FAMILIES: &[&str] = &[
    "broadcast",       // CompeteProtocol
    "broadcast_hw",    // CompeteProtocol, Haeupler–Wajc curtailment
    "compete",         // CompeteProtocol
    "leader_election", // CompeteProtocol, many sources
    "bgi",             // DecayBroadcast
    "truncated",       // TruncatedDecayBroadcast
    "binsearch_le",    // DecayBroadcast, CompeteProtocol, BeepWave
    "decay",           // DecayBroadcast
    "decay_trunc",     // TruncatedDecayBroadcast
    "broadcast_cd",    // BeepWave, LayeredDecayCd
    "compete_cd",      // LayeredDecayCd
    "partition",       // DistributedPartition
    "schedule",        // Downcast, Upcast
];

/// One channel: the graph, model and fault schedule both the engine and the
/// audit are given.
struct Channel<'g> {
    g: &'g Graph,
    model: CollisionModel,
    faults: Option<&'g FaultSchedule>,
    seed: u64,
}

impl Channel<'_> {
    /// Runs `protocol` for at most `budget` rounds (or until `stop`) under
    /// the audit, then checks the run's metrics and last frontier.
    fn audit<P: Protocol>(&self, protocol: P, budget: u64, stop: impl Fn(&P) -> bool) {
        let mut p = Audit::new(protocol, self.g, self.model, self.faults);
        let mut sim = Simulator::with_faults(self.g, self.model, self.seed, self.faults.cloned());
        let stats = sim.run_until(&mut p, budget, |_, a| stop(a.inner()));
        assert_eq!(stats.metrics, p.metrics(), "engine metrics diverge from the definition");
        p.check_last_touched(sim.last_touched());
    }
}

/// Audits every public protocol behind the registry families on one graph
/// and fault plan, under both collision models.
fn audit_every_protocol(topo: &TopologySpec, plan: &FaultPlan, seed: u64) {
    let g = topo.build(seed);
    let n = g.n();
    let net = NetParams::new(n, g.diameter_double_sweep());
    let schedule = (!plan.is_none()).then(|| plan.resolve(n, rng::derive(seed, 0xFA17)));
    let last = (n - 1) as NodeId;
    let sources = [(0, 5), (last / 2, 9), (last, 7)];

    // Precomputed clusterings and schedules depend on the graph only.
    let params = [CompeteParams::default(), CompeteParams::haeupler_wajc()];
    let pre: Vec<Precomputed> =
        params.iter().map(|p| Precomputed::build(&g, net, p, rng::derive(seed, 0x9DE))).collect();
    let part = Partition::compute(&g, DEFAULT_SCHEDULE_BETA, &mut rng::stream_rng(seed, 0x5CED));
    let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
    let radius = sched.max_depth();
    let clusters = part.num_clusters() as u64;

    for model in [CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection] {
        let ch = Channel { g: &g, model, faults: schedule.as_ref(), seed };
        for (params, pre) in params.iter().zip(&pre) {
            for srcs in [&sources[..1], &sources[..]] {
                let p = CompeteProtocol::new(pre, *params, srcs, rng::derive(seed, 0x9D0));
                ch.audit(p, params.max_rounds(&net), |p| p.all_know_target());
            }
        }
        let budget = net.decay_broadcast_budget();
        ch.audit(DecayBroadcast::new(net, &sources, seed), budget, |p| p.all_informed());
        ch.audit(TruncatedDecayBroadcast::new(net, &sources, seed), budget, |p| p.all_informed());
        let cd = LayeredDecayCd::new(net, &sources, seed);
        let cd_budget = cd.budget();
        ch.audit(cd, cd_budget, |p| p.all_know_at_least(9));
        ch.audit(BeepWave::new(n, &[0, last]), n as u64, |p| p.reached_count() == n);
        let dp = DistributedPartition::new(net, 0.5, DistributedPartitionConfig::default(), seed);
        let dp_budget = dp.total_rounds();
        ch.audit(dp, dp_budget, |_| false);
        let values: Vec<Option<u64>> = (1..=clusters).map(Some).collect();
        let down = Downcast::from_center_values(&sched, radius, &values);
        let pass = down.pass_len();
        ch.audit(down, pass, |_| false);
        let up = Upcast::new(&sched, radius, (0..n as u64).map(Some).collect());
        ch.audit(up, pass, |_| false);
        let messages: Vec<Vec<u64>> = (0..clusters).map(|c| vec![c, c + 1, c + 2]).collect();
        let pipe = PipelinedDowncast::new(&sched, radius, &messages);
        let pipe_len = pipe.pass_len();
        ch.audit(pipe, pipe_len, |_| false);
        ch.audit(NaiveFlood::new(n, 0), n as u64, |p| p.informed_count() == n);
    }
}

#[test]
fn every_registered_family_is_audited() {
    for spec in ProtocolSpec::all() {
        let name = spec.to_string();
        let family = name.split(['(', '{']).next().expect("split yields a head");
        assert!(
            AUDITED_FAMILIES.contains(&family),
            "registry family {family:?} has no audited protocol in engine_diff"
        );
    }
}

fn topology() -> impl Strategy<Value = TopologySpec> {
    // The shim's strategy surface has no prop_oneof; an index-mapped pair of
    // ranges draws uniformly over the same shapes. The last three families
    // are dense on purpose: a complete graph or near-critical RGG/Gnp makes
    // the engine's degree-sum trigger flip between the sparse per-edge path
    // and the word-level dense kernel *within* a single run (small frontier
    // early, saturated mid-broadcast), so every proptest case crosses the
    // dispatch boundary both ways.
    (0usize..9, 0usize..64).prop_map(|(family, x)| match family {
        0 => TopologySpec::Path(9 + x % 19),
        1 => TopologySpec::Cycle(9 + x % 19),
        2 => TopologySpec::Star(9 + x % 11),
        3 => TopologySpec::Grid { w: 3 + x % 3, h: 3 + (x / 3) % 3 },
        4 => TopologySpec::RandomTree(9 + x % 15),
        5 => TopologySpec::Rgg { n: 12 + x % 12, radius: 0.45 },
        6 => TopologySpec::Complete(9 + x % 24),
        7 => TopologySpec::Rgg { n: 24 + x % 24, radius: 0.9 },
        _ => TopologySpec::Gnp { n: 24 + x % 24, p: 0.6 },
    })
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (0usize..4, 0usize..2).prop_map(|(kind, x)| match kind {
        0 => FaultPlan::none(),
        1 => FaultPlan::jam(1 + x, [0.3, 0.7][x]),
        2 => FaultPlan::drop([0.05, 0.2][x]),
        _ => format!("crash({})", [0.1, 0.3][x]).parse().expect("crash plan parses"),
    })
}

proptest! {
    // Each case audits every protocol × 2 models on two graphs; a handful
    // of cases already crosses every protocol with every fault form over
    // the run history.
    #![proptest_config(ProptestConfig { cases: 5 })]

    #[test]
    fn frontier_engine_matches_reference_for_every_registered_family(
        topo in topology(),
        fault in fault_plan(),
        seed in any::<u64>(),
    ) {
        // Every case audits the drawn topology *and* a complete graph: the
        // complete graph saturates the degree-sum trigger from round one, so
        // the CD-model word-level dense kernel (whole-frontier collisions,
        // busy-channel noise at every listener) is exercised on every single
        // proptest case, not just when the draw lands on a dense family.
        for topo in [&topo, &TopologySpec::Complete(17 + (seed % 16) as usize)] {
            audit_every_protocol(topo, &fault, seed);
        }
    }
}
