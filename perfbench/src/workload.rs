//! The three workloads, their set-up, and the traced trial split.
//!
//! The untraced trial is one call to the public `Runnable::run_trial_pooled`
//! (the entry point the campaign executor uses). The traced trial makes the
//! same trial out of the public calls behind it, with a span around each:
//! for Compete-based workloads `Precomputed::rebuild`, then
//! `CompeteProtocol::reuse`, then `Simulator::reuse` + `run_with_buf`; for
//! the decay workload the whole `run_trial_pooled` call is the simulator
//! span. Partition and schedule times are measured by replaying the
//! precompute's coarse/fine/background sequence outside the trial span, and
//! the replay is checked against what `Precomputed` built.

use crate::trace::{setup_trial, Tracer};
use rand::Rng;
use rn_cluster::{Partition, PartitionScratch};
use rn_core::{
    CompeteMsg, CompeteParams, CompeteProtocol, CompeteState, PrecomputeScratch, Precomputed,
};
use rn_graph::{Graph, HybridAdjacency, NodeId, TopologySpec};
use rn_schedule::{SlotPolicy, TreeSchedule, TreeScheduleScratch};
use rn_sim::{
    rng, CollisionModel, NetParams, Runnable, SimScratch, Simulator, TrialPool, TrialRecord, TxBuf,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How the traced run splits a trial into public calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// `Compete({node 0})` (the registry's `broadcast`).
    Broadcast,
    /// Candidate self-selection, then Compete on the candidates' ids (the
    /// registry's `leader_election`).
    Election,
    /// No precompute: the whole trial call is the simulator span.
    Whole,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub topology: &'static str,
    pub protocol: &'static str,
    pub split: Split,
    /// Percentile reported as `trial_ms_tail`: the highest multiple of five
    /// that leaves at least ten samples beyond it in a median 35 s run on the
    /// reference machine.
    pub tail_pct: f64,
}

/// Why each is here is recorded in `BENCHMARK.json` and `perfbench/README.md`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "broadcast_rgg",
        topology: "rgg(20000,0.014)",
        protocol: "broadcast",
        split: Split::Broadcast,
        tail_pct: 90.0,
    },
    Workload {
        name: "election_grid",
        topology: "grid(150x150)",
        protocol: "leader_election",
        split: Split::Election,
        tail_pct: 90.0,
    },
    Workload {
        name: "decay_dense",
        topology: "rgg(50000,0.03)",
        protocol: "decay(16)",
        split: Split::Whole,
        tail_pct: 95.0,
    },
];

/// Seeds derived from the workload seed: the program only sees these.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub topology: u64,
    trials: u64,
    warmup: u64,
}

impl Seeds {
    pub fn new(workload_seed: u64) -> Seeds {
        Seeds {
            topology: rng::derive(workload_seed, 0x7090),
            trials: rng::derive(workload_seed, 0x7121),
            warmup: rng::derive(workload_seed, 0xA4A),
        }
    }

    pub fn trial(&self, idx: u64) -> u64 {
        rng::derive(self.trials, idx)
    }

    pub fn warmup(&self, worker: usize) -> u64 {
        rng::derive(self.warmup, worker as u64)
    }
}

/// A built topology with everything a trial needs. The graph is boxed so
/// its address — the key of the engine's dense-kernel cache and of the
/// Compete pool's connectivity memo — survives moves of this value.
pub struct Prepared {
    pub graph: Box<Graph>,
    pub net: NetParams,
    pub model: CollisionModel,
    pub runnable: Box<dyn Runnable>,
}

impl Prepared {
    pub fn run(&self, pool: &mut TrialPool, seed: u64) -> TrialRecord {
        self.runnable.run_trial_pooled(&self.graph, self.net, self.model, seed, None, pool)
    }
}

/// One set-up: the prepared topology, each worker's pool after its warm-up
/// trial on a cold pool, the warm-up records and the wall time it all took.
pub struct Setup {
    pub prepared: Prepared,
    pub pools: Vec<TrialPool>,
    pub warmups: Vec<TrialRecord>,
    pub elapsed: Duration,
}

/// Builds the topology, its diameter and `NetParams`, instantiates the
/// protocol, and runs one warm-up trial per worker (in parallel) on a fresh
/// pool. With a tracer, records the layer calls as spans of
/// [`setup_trial`]`(rep)` and also times a standalone
/// `HybridAdjacency::for_graph` (the engine builds it lazily inside the
/// first dense round, where it cannot be seen from outside); that extra
/// call is excluded from `elapsed`.
pub fn setup(
    wl: &Workload,
    seeds: &Seeds,
    workers: usize,
    rep: usize,
    mut tr: Option<&mut Tracer>,
) -> Setup {
    let trial = setup_trial(rep);
    let root = tr.as_deref_mut().map_or(0, |t| t.begin("setup", 0, trial));
    // rn-lint: allow(no-wall-clock) — set-up time is an end-to-end metric
    let started = Instant::now();
    let spec: TopologySpec = wl.topology.parse().expect("workload topologies parse");
    let graph = span(&mut tr, "graph.build", root, trial, || Box::new(spec.build(seeds.topology)));
    let diameter = span(&mut tr, "graph.diameter", root, trial, || graph.diameter_double_sweep());
    let net = NetParams::new(graph.n(), diameter);
    let mut excluded = Duration::ZERO;
    if let Some(t) = tr.as_deref_mut() {
        // rn-lint: allow(no-wall-clock) — excludes the traced-only call from set-up time
        let h0 = Instant::now();
        t.span("graph.hybrid", root, trial, || black_box(HybridAdjacency::for_graph(&graph)));
        excluded = h0.elapsed();
    }
    let runnable = span(&mut tr, "setup.instantiate", root, trial, || {
        rn_bench::ProtocolSpec::parse(wl.protocol).instantiate()
    });
    let model = runnable.effective_model(CollisionModel::NoCollisionDetection);
    let prepared = Prepared { graph, net, model, runnable };
    let mut pools: Vec<TrialPool> = (0..workers).map(|_| TrialPool::new()).collect();
    let warmups = span(&mut tr, "setup.warmup", root, trial, || {
        std::thread::scope(|s| {
            let handles: Vec<_> = pools
                .iter_mut()
                .enumerate()
                .map(|(w, pool)| {
                    let prepared = &prepared;
                    s.spawn(move || prepared.run(pool, seeds.warmup(w)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("warm-up trial panicked")).collect()
        })
    });
    let elapsed = started.elapsed().saturating_sub(excluded);
    if let Some(t) = tr {
        t.end(root);
    }
    Setup { prepared, pools, warmups, elapsed }
}

/// `f` inside a span when tracing, else just `f`.
fn span<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u64,
    trial: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => t.span(name, parent, trial, f),
        None => f(),
    }
}

/// Per-worker state of the traced split for Compete workloads: the same
/// pooled buffers `rn_core`'s pooled entry point keeps, plus the replay's
/// partitions and schedules.
#[derive(Default)]
pub struct CompeteSplit {
    params: CompeteParams,
    pre: Option<Precomputed>,
    pre_scratch: PrecomputeScratch,
    state: CompeteState,
    tx: TxBuf<CompeteMsg>,
    engine: SimScratch,
    sources: Vec<(NodeId, u64)>,
    replay: Replay,
}

/// Per-worker state of a traced trial.
pub struct TracedWorker {
    pub tracer: Tracer,
    pool: TrialPool,
    compete: CompeteSplit,
}

impl TracedWorker {
    pub fn new(tracer: Tracer) -> TracedWorker {
        TracedWorker { tracer, pool: TrialPool::new(), compete: CompeteSplit::default() }
    }

    /// Runs trial `idx` with spans around each layer call; `Err` when the
    /// replayed partitions or schedules differ from the precompute's.
    pub fn trial(
        &mut self,
        wl: &Workload,
        p: &Prepared,
        idx: u64,
        seed: u64,
    ) -> Result<TrialRecord, String> {
        let tr = &mut self.tracer;
        if wl.split == Split::Whole {
            // No precompute and no protocol reset: those layers' spans are
            // recorded empty, so every workload reports every layer and a
            // layer without work reads the recording floor, not a constant.
            let root = tr.begin("trial", 0, idx);
            for layer in ["core.precompute", "core.reuse"] {
                tr.span(layer, root, idx, || ());
            }
            let pool = &mut self.pool;
            let rec = tr.span("sim.run", root, idx, || p.run(pool, seed));
            tr.end(root);
            let replay = tr.begin("replay", 0, idx);
            for layer in ["cluster.partition", "schedule.rebuild"] {
                tr.span(layer, replay, idx, || ());
            }
            tr.end(replay);
            record_sim_counts(tr, idx, &rec);
            return Ok(rec);
        }
        let CompeteSplit { params, pre, pre_scratch, state, tx, engine, sources, replay } =
            &mut self.compete;
        let (g, net) = (&*p.graph, p.net);
        let root = tr.begin("trial", 0, idx);
        // The pooled entry points' seed streams: candidates (election only),
        // then precompute and protocol streams of the trial seed.
        let seed = match wl.split {
            Split::Election => sample_candidates(g, net, seed, sources),
            _ => {
                sources.clear();
                sources.push((0, 1));
                seed
            }
        };
        let pre_seed = rng::derive(seed, 0x9DE);
        // Built once, by the discarded warm-up trial; rebuilt every trial.
        let pre = pre.get_or_insert_with(|| Precomputed::build(g, net, params, pre_seed));
        tr.span("core.precompute", root, idx, || {
            pre.rebuild(g, net, params, pre_seed, pre_scratch)
        });
        let mut proto = tr.span("core.reuse", root, idx, || {
            CompeteProtocol::reuse(pre, *params, sources, rng::derive(seed, 0x9D0), state)
        });
        let sim_span = tr.begin("sim.run", root, idx);
        let mut sim = Simulator::reuse(engine, g, p.model, seed, None);
        tx.clear();
        tx.reserve(g.n());
        let stats = sim.run_with_buf(&mut proto, tx, params.max_rounds(&net));
        tr.end(sim_span);
        let target = proto.target();
        let unique = sources.iter().filter(|&&(_, id)| id == target).count() == 1;
        let rec = TrialRecord::new(
            proto.all_know_target() && unique,
            stats.rounds + pre.charged_rounds,
            stats.metrics,
        );
        tr.end(root);
        tr.count(idx, "core.charged_rounds", pre.charged_rounds);
        tr.count(idx, "core.candidates", sources.len() as u64);
        record_sim_counts(tr, idx, &rec);
        replay.run(tr, g, net, params, pre_seed, idx);
        replay.matches(g, pre).map(|()| rec)
    }
}

fn record_sim_counts(tr: &mut Tracer, idx: u64, rec: &TrialRecord) {
    tr.count(idx, "sim.rounds", rec.metrics.rounds);
    tr.count(idx, "sim.transmissions", rec.metrics.transmissions);
    tr.count(idx, "sim.deliveries", rec.metrics.deliveries);
    tr.count(idx, "sim.collisions", rec.metrics.collisions);
}

/// Leader election's candidate self-selection (Algorithm 6 steps 1–2) on
/// `rn_core`'s seed streams; returns the seed Compete then runs under.
fn sample_candidates(g: &Graph, net: NetParams, seed: u64, out: &mut Vec<(NodeId, u64)>) -> u64 {
    let p_cand = (2.0 * net.log2_n() as f64 / g.n() as f64).min(1.0);
    let mut cur = seed;
    loop {
        let mut crng = rng::stream_rng(cur, 0xCA4D);
        out.clear();
        for v in g.nodes() {
            if crng.gen::<f64>() < p_cand {
                out.push((v, crng.gen::<u64>() & !0xFFFF_FFFFu64 | v as u64));
            }
        }
        if !out.is_empty() {
            return cur;
        }
        cur = rng::derive(cur, 0x9999);
    }
}

/// The precompute's partition/schedule sequence, replayed through the public
/// `rn_cluster`/`rn_schedule` calls so each can be timed on its own.
#[derive(Default)]
struct Replay {
    part_scratch: PartitionScratch,
    sched_scratch: TreeScheduleScratch,
    coarse_idx: Vec<u32>,
    js: Vec<u32>,
    /// Coarse, then fines, then background — `Precomputed`'s order.
    slots: Vec<(Partition, TreeSchedule)>,
}

impl Replay {
    fn run(
        &mut self,
        tr: &mut Tracer,
        g: &Graph,
        net: NetParams,
        params: &CompeteParams,
        seed: u64,
        idx: u64,
    ) {
        let root = tr.begin("replay", 0, idx);
        params.j_values_into(&net, &mut self.js);
        let copies = params.fine_copies(&net) as usize;
        let fines = self.js.len() * copies;
        let bg = copies.max(2);
        let wanted = 1 + fines + bg;
        while self.slots.len() < wanted {
            // A one-node shell that the first recompute replaces, as
            // `Precomputed` does, so every timed call is a pooled rebuild.
            let g1 = Graph::from_edges(1, &[]).expect("one-node graph");
            let part = Partition::compute(&g1, 1.0, &mut rng::rng_from_seed(0));
            let sched = TreeSchedule::build(&g1, &part, SlotPolicy::Fixed(1));
            self.slots.push((part, sched));
        }
        self.slots.truncate(wanted);
        let mut clusters = 0u64;
        for (i, (part, sched)) in self.slots.iter_mut().enumerate() {
            let ps = &mut self.part_scratch;
            tr.span("cluster.partition", root, idx, || {
                if i == 0 {
                    let mut r = rng::stream_rng(seed, 1);
                    part.recompute(g, params.coarse_beta(&net), &mut r, ps);
                } else if i <= fines {
                    let (ji, t) = ((i - 1) / copies, (i - 1) % copies);
                    let beta = (2.0f64).powi(-(self.js[ji] as i32));
                    let mut r = rng::stream_rng(seed, 1000 + (ji as u64) * 512 + t as u64);
                    part.recompute_within(g, beta, &self.coarse_idx, &mut r, ps);
                } else {
                    let t = (i - 1 - fines) as u64;
                    let mut r = rng::stream_rng(seed, 9000 + t);
                    part.recompute(g, params.bg_beta(&net), &mut r, ps);
                }
            });
            let ss = &mut self.sched_scratch;
            tr.span("schedule.rebuild", root, idx, || sched.rebuild(g, part, SlotPolicy::Auto, ss));
            if i == 0 {
                self.coarse_idx.clear();
                self.coarse_idx.extend(g.nodes().map(|v| part.cluster_index(v)));
            }
            clusters += part.num_clusters() as u64;
        }
        tr.end(root);
        tr.count(idx, "cluster.partitions", wanted as u64);
        tr.count(idx, "cluster.clusters", clusters);
        tr.count(idx, "schedule.rebuilds", wanted as u64);
    }

    /// Whether the replay built what the precompute built: the same cluster
    /// count and center per node for every partition, and the same window
    /// and depth for every schedule. Otherwise the replay times other work.
    fn matches(&self, g: &Graph, pre: &Precomputed) -> Result<(), String> {
        let expected = 1 + pre.fines.len() + pre.bg.len();
        if self.slots.len() != expected {
            return Err(format!(
                "replay built {} clusterings, the precompute {expected}",
                self.slots.len()
            ));
        }
        let built = std::iter::once((&pre.coarse, &pre.coarse_sched))
            .chain(pre.fines.iter().chain(&pre.bg).map(|f| (&f.partition, &f.schedule)));
        for (i, ((part, sched), (rp, rs))) in built.zip(&self.slots).enumerate() {
            if part.num_clusters() != rp.num_clusters()
                || g.nodes().any(|v| part.center_of(v) != rp.center_of(v))
            {
                return Err(format!("replayed partition {i} differs from the precompute's"));
            }
            if sched.window() != rs.window() || sched.max_depth() != rs.max_depth() {
                return Err(format!("replayed schedule {i} differs from the precompute's"));
            }
        }
        Ok(())
    }
}
