use crate::params::CompeteParams;
use crate::precompute::{PrecomputeScratch, Precomputed};
use crate::protocol::{CompeteMsg, CompeteProtocol, CompeteState};
use rand::Rng;
use rn_graph::{Graph, NodeId};
use rn_sim::{
    rng, CollisionModel, FaultSchedule, Metrics, NetParams, RunOutcome, SimScratch, Simulator,
    TxBuf,
};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors from the top-level Compete entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompeteError {
    /// The graph is not connected; global propagation is impossible.
    Disconnected,
    /// No sources were provided.
    NoSources,
    /// A source node id is out of range.
    SourceOutOfRange {
        /// The offending node id.
        node: NodeId,
    },
}

impl fmt::Display for CompeteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompeteError::Disconnected => write!(f, "graph is not connected"),
            CompeteError::NoSources => write!(f, "source set is empty"),
            CompeteError::SourceOutOfRange { node } => {
                write!(f, "source node {node} out of range")
            }
        }
    }
}

impl Error for CompeteError {}

/// Outcome of one Compete (or broadcast / leader election) execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompeteReport {
    /// Whether every node learned the highest source message within budget.
    pub completed: bool,
    /// Rounds of the packet-level propagation phase actually executed.
    pub propagation_rounds: u64,
    /// Rounds charged for precomputation (see `PrecomputeMode`).
    pub charged_precompute_rounds: u64,
    /// `propagation_rounds + charged_precompute_rounds`.
    pub total_rounds: u64,
    /// Channel statistics of the propagation phase.
    pub metrics: Metrics,
    /// The highest source message (what had to be spread).
    pub target: u64,
    /// Number of nodes knowing the target at the end.
    pub nodes_knowing: usize,
    /// The master seed used (for exact reproduction).
    pub seed: u64,
}

/// Outcome of a leader-election execution (Algorithm 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaderElectionReport {
    /// The underlying Compete execution.
    pub compete: CompeteReport,
    /// Number of candidates that self-selected.
    pub num_candidates: usize,
    /// The elected leader (node whose ID won), if election completed cleanly.
    pub leader: Option<NodeId>,
    /// Whether exactly one node holds the winning ID (whp true; collisions
    /// in the ID space are detected and reported here).
    pub unique_winner: bool,
}

fn validate_sources(g: &Graph, sources: &[(NodeId, u64)]) -> Result<(), CompeteError> {
    if sources.is_empty() {
        return Err(CompeteError::NoSources);
    }
    for &(s, _) in sources {
        if s as usize >= g.n() {
            return Err(CompeteError::SourceOutOfRange { node: s });
        }
    }
    Ok(())
}

/// Reusable cross-trial state for the pooled Compete entry points
/// ([`compete_pooled`], [`leader_election_pooled`]): the precompute and its
/// rebuild scratch, the protocol state, the transmission buffer, the
/// leader-election candidate list, and a connectivity-check memo. Keep one
/// pool per worker thread; after the first trial on a given graph shape,
/// further trials allocate nothing on the heap.
#[derive(Debug)]
pub struct CompetePool {
    pre: Option<Precomputed>,
    pre_scratch: PrecomputeScratch,
    state: CompeteState,
    tx: TxBuf<CompeteMsg>,
    candidates: Vec<(NodeId, u64)>,
    /// Source-placement scratch for the compete scenarios: the raw Floyd
    /// sample, the placed node ids, and the `(node, value)` list handed to
    /// the protocol — reused so steady-state placement is allocation-free.
    pub(crate) place_idx: Vec<usize>,
    pub(crate) source_ids: Vec<NodeId>,
    pub(crate) sources: Vec<(NodeId, u64)>,
    /// `(address, n, m)` of the last graph whose connectivity check passed;
    /// a matching key skips the allocating BFS. Callers must keep graphs at
    /// stable addresses for the pool's lifetime (campaign executors cache
    /// them in `OnceLock` cells, which guarantees this).
    connected: Option<(usize, usize, usize)>,
}

impl Default for CompetePool {
    fn default() -> CompetePool {
        CompetePool {
            pre: None,
            pre_scratch: PrecomputeScratch::default(),
            state: CompeteState::default(),
            tx: TxBuf::new(),
            candidates: Vec::new(),
            place_idx: Vec::new(),
            source_ids: Vec::new(),
            sources: Vec::new(),
            connected: None,
        }
    }
}

impl CompetePool {
    /// An empty pool; the first trial populates it.
    pub fn new() -> CompetePool {
        CompetePool::default()
    }

    fn check_connected(&mut self, g: &Graph) -> Result<(), CompeteError> {
        let key = (g as *const Graph as usize, g.n(), g.m());
        if self.connected != Some(key) {
            if !g.is_connected() {
                return Err(CompeteError::Disconnected);
            }
            self.connected = Some(key);
        }
        Ok(())
    }
}

/// The Compete execution core behind every entry point. Callers have
/// validated the sources and connectivity; the precompute, protocol state
/// and buffers come from `engine`/`pool`, and a cold pool's first call runs
/// the same code as every later one (constructors are reset-on-shell).
#[allow(clippy::too_many_arguments)]
fn run_compete(
    g: &Graph,
    net: NetParams,
    sources: &[(NodeId, u64)],
    params: &CompeteParams,
    model: CollisionModel,
    seed: u64,
    faults: Option<&FaultSchedule>,
    engine: &mut SimScratch,
    pool: &mut CompetePool,
) -> CompeteReport {
    if pool.pre.is_none() {
        pool.pre = Some(Precomputed::shell());
    }
    let pre = pool.pre.as_mut().expect("slot was just filled");
    pre.rebuild(g, net, params, rng::derive(seed, 0x9DE), &mut pool.pre_scratch);
    let pre = pool.pre.as_ref().expect("filled above");
    let mut proto =
        CompeteProtocol::reuse(pre, *params, sources, rng::derive(seed, 0x9D0), &mut pool.state);
    let mut sim = Simulator::reuse(engine, g, model, seed, faults.cloned());
    let budget = params.max_rounds(&net);
    // Worst case: every node transmits in one round. Reserving it up front
    // keeps the buffer's capacity from chasing a seed-dependent per-round
    // maximum (which would allocate mid-trial on the unluckiest trial).
    // Clear first — the buffer still holds the previous trial's final round,
    // and `reserve` counts beyond the current length.
    pool.tx.clear();
    pool.tx.reserve(g.n());
    let stats = sim.run_with_buf(&mut proto, &mut pool.tx, budget);
    debug_assert!(matches!(stats.outcome, RunOutcome::ProtocolDone | RunOutcome::BudgetExhausted));
    let completed = proto.all_know_target();
    CompeteReport {
        completed,
        propagation_rounds: stats.rounds,
        charged_precompute_rounds: pre.charged_rounds,
        total_rounds: stats.rounds + pre.charged_rounds,
        metrics: stats.metrics,
        target: proto.target(),
        nodes_knowing: proto.num_knowing(),
        seed,
    }
}

/// Runs Compete(S) under `model` and an optional fault schedule (`None` =
/// fault-free), reusing engine scratch and a [`CompetePool`] across calls —
/// the one Compete trial body. [`compete`], [`compete_with_net`] and
/// [`broadcast`] are this function on a cold pool; a warm pool gives
/// byte-identical reports for every input. Steady-state trials (after the
/// first on a given graph shape) perform no heap allocation, except cloning
/// `faults` when a schedule is supplied.
///
/// Running under [`CollisionModel::CollisionDetection`] is an ablation: the
/// algorithm is analysed without collision detection and ignores the
/// notifications, but the channel's delivery semantics are identical.
///
/// # Errors
///
/// [`CompeteError`] on empty/invalid sources or a disconnected graph.
#[allow(clippy::too_many_arguments)]
pub fn compete_pooled(
    g: &Graph,
    net: NetParams,
    sources: &[(NodeId, u64)],
    params: &CompeteParams,
    model: CollisionModel,
    seed: u64,
    faults: Option<&FaultSchedule>,
    engine: &mut SimScratch,
    pool: &mut CompetePool,
) -> Result<CompeteReport, CompeteError> {
    validate_sources(g, sources)?;
    pool.check_connected(g)?;
    Ok(run_compete(g, net, sources, params, model, seed, faults, engine, pool))
}

/// Runs leader election (Algorithm 6) under `model` and an optional fault
/// schedule on pooled state (see [`compete_pooled`] for the reuse contract);
/// [`leader_election`] and [`leader_election_with_net`] are this function on
/// a cold pool. Steady state is allocation-free apart from rare
/// candidate-list high-water growth.
///
/// # Errors
///
/// [`CompeteError::Disconnected`] on a disconnected graph.
#[allow(clippy::too_many_arguments)]
pub fn leader_election_pooled(
    g: &Graph,
    net: NetParams,
    params: &CompeteParams,
    model: CollisionModel,
    seed: u64,
    faults: Option<&FaultSchedule>,
    engine: &mut SimScratch,
    pool: &mut CompetePool,
) -> Result<LeaderElectionReport, CompeteError> {
    pool.check_connected(g)?;
    let n = g.n();
    let p_cand = (2.0 * net.log2_n() as f64 / n as f64).min(1.0);
    // Step 1: candidates with probability Θ(log n / n); the constant 2 keeps
    // P[no candidate] ≤ n^-2 while |C| = O(log n) whp. The degenerate empty
    // draw restarts on the next seed stream, exactly as restarting the
    // algorithm would.
    let mut cur_seed = seed;
    loop {
        let mut crng = rng::stream_rng(cur_seed, 0xCA4D);
        pool.candidates.clear();
        for v in g.nodes() {
            if crng.gen::<f64>() < p_cand {
                // Step 2: random Θ(log n)-bit IDs (node id in the low bits
                // only as a deterministic tiebreaker against measure-zero
                // collisions).
                let id: u64 = crng.gen::<u64>() & !0xFFFF_FFFFu64 | v as u64;
                pool.candidates.push((v, id));
            }
        }
        if !pool.candidates.is_empty() {
            break;
        }
        cur_seed = rng::derive(cur_seed, 0x9999);
    }
    let candidates = std::mem::take(&mut pool.candidates);
    let report = run_compete(g, net, &candidates, params, model, cur_seed, faults, engine, pool);
    let target = report.target;
    let mut leader = None;
    let mut winners = 0usize;
    for &(v, id) in &candidates {
        if id == target {
            if leader.is_none() {
                leader = Some(v);
            }
            winners += 1;
        }
    }
    let num_candidates = candidates.len();
    pool.candidates = candidates;
    Ok(LeaderElectionReport {
        compete: report,
        num_candidates,
        leader,
        unique_winner: winners == 1,
    })
}

/// Runs **Compete(S)** (Algorithm 1 + 2): spreads the highest source message
/// to every node. Network parameters are derived from the graph with the
/// double-sweep diameter estimate; use [`compete_with_net`] to supply exact
/// values.
///
/// # Errors
///
/// [`CompeteError`] on empty/invalid sources or a disconnected graph.
pub fn compete(
    g: &Graph,
    sources: &[(NodeId, u64)],
    params: &CompeteParams,
    seed: u64,
) -> Result<CompeteReport, CompeteError> {
    // Validate before the diameter sweep, which needs a connected graph;
    // the pool's connectivity memo then spares `compete_pooled` a second BFS.
    let (mut engine, mut pool) = (SimScratch::default(), CompetePool::new());
    validate_sources(g, sources)?;
    pool.check_connected(g)?;
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    let nocd = CollisionModel::NoCollisionDetection;
    compete_pooled(g, net, sources, params, nocd, seed, None, &mut engine, &mut pool)
}

/// As [`compete`], with explicit [`NetParams`] (the `n` and `D` the model
/// assumes known to all nodes): [`compete_pooled`] on a cold pool, fault-free
/// and without collision detection.
///
/// # Errors
///
/// [`CompeteError`] on empty/invalid sources or a disconnected graph.
pub fn compete_with_net(
    g: &Graph,
    net: NetParams,
    sources: &[(NodeId, u64)],
    params: &CompeteParams,
    seed: u64,
) -> Result<CompeteReport, CompeteError> {
    let (mut engine, mut pool) = (SimScratch::default(), CompetePool::new());
    let nocd = CollisionModel::NoCollisionDetection;
    compete_pooled(g, net, sources, params, nocd, seed, None, &mut engine, &mut pool)
}

/// Runs **broadcasting** (Theorem 5.1): `Compete({source})`.
///
/// # Errors
///
/// [`CompeteError`] on an invalid source or a disconnected graph.
pub fn broadcast(
    g: &Graph,
    source: NodeId,
    params: &CompeteParams,
    seed: u64,
) -> Result<CompeteReport, CompeteError> {
    compete(g, &[(source, 1)], params, seed)
}

/// Runs **leader election** (Algorithm 6): nodes self-select as candidates
/// with probability `Θ(log n / n)`, draw random IDs, and Compete on the IDs.
///
/// # Errors
///
/// [`CompeteError::Disconnected`] on a disconnected graph.
pub fn leader_election(
    g: &Graph,
    params: &CompeteParams,
    seed: u64,
) -> Result<LeaderElectionReport, CompeteError> {
    let (mut engine, mut pool) = (SimScratch::default(), CompetePool::new());
    pool.check_connected(g)?;
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    let nocd = CollisionModel::NoCollisionDetection;
    leader_election_pooled(g, net, params, nocd, seed, None, &mut engine, &mut pool)
}

/// As [`leader_election`], with explicit [`NetParams`]:
/// [`leader_election_pooled`] on a cold pool, fault-free and without
/// collision detection.
///
/// # Errors
///
/// [`CompeteError::Disconnected`] on a disconnected graph.
pub fn leader_election_with_net(
    g: &Graph,
    net: NetParams,
    params: &CompeteParams,
    seed: u64,
) -> Result<LeaderElectionReport, CompeteError> {
    let (mut engine, mut pool) = (SimScratch::default(), CompetePool::new());
    let nocd = CollisionModel::NoCollisionDetection;
    leader_election_pooled(g, net, params, nocd, seed, None, &mut engine, &mut pool)
}
