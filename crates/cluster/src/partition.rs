use crate::shifts::ExponentialShifts;
use rand::Rng;
use rn_graph::{traversal, Graph, NodeId, INVALID_NODE};
use std::collections::VecDeque;

/// A clustering of the network produced by Partition(β).
///
/// Guarantees (the paper's §2.1 requirements, upheld by construction and
/// checked by tests):
///
/// * each node identifies exactly one cluster center;
/// * any node that is a cluster center to anyone is its own center;
/// * the subgraph of each cluster is connected, and moreover each node has a
///   shortest path to its center that stays inside the cluster (so *strong*
///   distance to the center equals graph distance).
#[derive(Debug, Clone)]
pub struct Partition {
    beta: f64,
    /// Cluster center per node.
    center: Vec<NodeId>,
    /// Dense cluster index per node.
    cluster_of: Vec<u32>,
    /// Distinct centers; `centers[cluster_of[v]] == center[v]`.
    centers: Vec<NodeId>,
    /// CSR member lists: cluster `i` owns
    /// `member_data[member_start[i]..member_start[i + 1]]`, in ascending
    /// node-id order. Flat (rather than `Vec<Vec<_>>`) so pooled recomputes
    /// reuse two `n`-bounded buffers even when the cluster count changes.
    member_start: Vec<u32>,
    member_data: Vec<NodeId>,
}

/// Reusable workspace for [`Partition::recompute`] /
/// [`Partition::recompute_within`]: the shift vector, the race queue, and
/// the center-index table. All buffers are bounded by `n` and reserved to
/// that bound, so after the first recompute on a given graph subsequent
/// recomputes perform no heap allocation.
#[derive(Debug, Default)]
pub struct PartitionScratch {
    shifts: Option<ExponentialShifts>,
    queue: RaceQueue,
    index_of_center: Vec<u32>,
}

/// The race's priority queue, specialised to its one relaxation
/// `key + 1.0`: two sorted streams of packed `(key, center, node)` entries
/// (see [`pack`]), merged.
///
/// * `seeds` holds every node's own entry `(−δ_u, u, u)`, sorted once.
/// * `log` holds the relaxations in the order they are made. Nodes are
///   claimed in `(key, center)` order, and a relaxation adds exactly `1.0`,
///   so relaxations are appended in `(key, center)` order too and the log
///   is itself a sorted queue. The addition is exact for keys `< −1`
///   (their magnitude is below `2⁵²`: [`ExponentialShifts::MIN_BETA`] keeps
///   shifts under `7.1·10¹⁴`). Relaxed keys `≥ 0`, where it can round, are
///   never queued: every node's own seed key is `≤ 0` and pops first, so
///   such an entry could never claim a node.
/// * `queued` marks nodes already in the log. The first relaxation that
///   reaches a node carries its smallest `(key, center)`; a later one would
///   pop after it and find the node claimed. So each node is queued at most
///   once and the log never exceeds `n` entries.
///
/// Merging the two streams yields exactly the order in which a
/// lazy-deletion binary heap over the same tuples pops them. The one
/// difference is the order of entries with equal `(key, center)`, which the
/// log keeps in relaxation order rather than node order; they claim
/// different nodes and queue identical entries, so the clustering —
/// including every tie broken by center id — is identical to the heap
/// race's.
#[derive(Debug, Default)]
struct RaceQueue {
    seeds: Vec<u128>,
    log: Vec<u128>,
    queued: Vec<bool>,
}

/// Packs a race entry so that integer order is `(key, center, node)` order
/// with keys compared by `f64::total_cmp`: the key's sign-flipped bits
/// (order-preserving for all floats), then the center, then the node.
#[inline]
fn pack(key: f64, center: NodeId, node: NodeId) -> u128 {
    let bits = key.to_bits();
    let ordered = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    (ordered as u128) << 64 | (center as u128) << 32 | node as u128
}

/// Inverse of [`pack`].
#[inline]
fn unpack(e: u128) -> (f64, NodeId, NodeId) {
    let ordered = (e >> 64) as u64;
    let bits = if ordered >> 63 == 1 { ordered ^ 1 << 63 } else { !ordered };
    (f64::from_bits(bits), (e >> 32) as NodeId, e as NodeId)
}

/// Fills (or refreshes) the pooled shift slot and returns a shared borrow.
/// The slot starts `None` so the first use goes through the ordinary
/// [`ExponentialShifts::sample`]; thereafter `resample` replays the same
/// draw sequence with zero heap traffic.
fn resample_into<'s>(
    slot: &'s mut Option<ExponentialShifts>,
    n: usize,
    beta: f64,
    rng: &mut impl rand::Rng,
) -> &'s ExponentialShifts {
    if let Some(s) = slot.as_mut() {
        s.resample(n, beta, rng);
    } else {
        *slot = Some(ExponentialShifts::sample(n, beta, rng));
    }
    slot.as_ref().expect("slot was just filled")
}

impl Partition {
    /// Runs the oracle Partition(β) construction: samples fresh exponential
    /// shifts and resolves the shifted BFS race exactly.
    ///
    /// # Panics
    ///
    /// Panics if `beta < ExponentialShifts::MIN_BETA`.
    pub fn compute(g: &Graph, beta: f64, rng: &mut impl Rng) -> Partition {
        let shifts = ExponentialShifts::sample(g.n(), beta, rng);
        Partition::with_shifts(g, &shifts)
    }

    /// Resolves the race for pre-sampled shifts: node `v` joins the cluster
    /// of `argmin_u (dist(u, v) − δ_u)` (equivalently `argmax δ_u − dist`),
    /// ties broken by smaller node id.
    pub fn with_shifts(g: &Graph, shifts: &ExponentialShifts) -> Partition {
        Partition::race(g, shifts, None)
    }

    /// Partition(β) **within regions**: the race never crosses a region
    /// boundary, so every cluster is contained in one region. This is how
    /// the paper computes *fine* clusterings inside each *coarse* cluster
    /// (Algorithm 1, step 3): pass the coarse cluster indices as `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region.len() != g.n()` or
    /// `beta < ExponentialShifts::MIN_BETA`.
    pub fn compute_within(g: &Graph, beta: f64, region: &[u32], rng: &mut impl Rng) -> Partition {
        assert_eq!(region.len(), g.n(), "one region label per node");
        let shifts = ExponentialShifts::sample(g.n(), beta, rng);
        Partition::race(g, &shifts, Some(region))
    }

    /// In-place [`Partition::compute`]: byte-identical result (single shared
    /// race code path), but every buffer — shifts, queue, per-node tables,
    /// member CSR — is reused from `self` and `scratch`.
    pub fn recompute(
        &mut self,
        g: &Graph,
        beta: f64,
        rng: &mut impl Rng,
        scratch: &mut PartitionScratch,
    ) {
        let PartitionScratch { shifts, queue, index_of_center } = scratch;
        let shifts = resample_into(shifts, g.n(), beta, rng);
        self.race_in_place(g, shifts, None, queue, index_of_center);
    }

    /// In-place [`Partition::compute_within`] (see [`Partition::recompute`]).
    ///
    /// # Panics
    ///
    /// Panics if `region.len() != g.n()` or
    /// `beta < ExponentialShifts::MIN_BETA`.
    pub fn recompute_within(
        &mut self,
        g: &Graph,
        beta: f64,
        region: &[u32],
        rng: &mut impl Rng,
        scratch: &mut PartitionScratch,
    ) {
        assert_eq!(region.len(), g.n(), "one region label per node");
        let PartitionScratch { shifts, queue, index_of_center } = scratch;
        let shifts = resample_into(shifts, g.n(), beta, rng);
        self.race_in_place(g, shifts, Some(region), queue, index_of_center);
    }

    fn race(g: &Graph, shifts: &ExponentialShifts, region: Option<&[u32]>) -> Partition {
        let mut p = Partition::shell(shifts.beta());
        let mut queue = RaceQueue::default();
        let mut index_of_center = Vec::new();
        p.race_in_place(g, shifts, region, &mut queue, &mut index_of_center);
        p
    }

    /// An empty partition to be filled by `race_in_place` or
    /// [`Partition::finish_rebuild`] (pooled extraction slots start here).
    pub(crate) fn shell(beta: f64) -> Partition {
        Partition {
            beta,
            center: Vec::new(),
            cluster_of: Vec::new(),
            centers: Vec::new(),
            member_start: Vec::new(),
            member_data: Vec::new(),
        }
    }

    /// The shifted multi-source BFS race with unit edge weights: settles
    /// nodes in `(key, center, node)` order, where a center `u` reaches `v`
    /// with key `dist(u, v) − δ_u` — a binary heap's pop order, through
    /// [`RaceQueue`].
    fn race_in_place(
        &mut self,
        g: &Graph,
        shifts: &ExponentialShifts,
        region: Option<&[u32]>,
        queue: &mut RaceQueue,
        index_of_center: &mut Vec<u32>,
    ) {
        assert_eq!(shifts.len(), g.n(), "one shift per node");
        let n = g.n();
        let RaceQueue { seeds, log, queued } = queue;
        seeds.clear();
        seeds.reserve(n);
        seeds.extend(g.nodes().map(|u| pack(-shifts.delta(u), u, u)));
        seeds.sort_unstable();
        log.clear();
        log.reserve(n);
        queued.clear();
        queued.resize(n, false);
        self.beta = shifts.beta();
        self.center.clear();
        self.center.resize(n, INVALID_NODE);
        let center = &mut self.center;
        // Pop the smaller head of the two sorted streams.
        let (mut i, mut s) = (0, 0);
        while i < log.len() || s < n {
            let e = if s == n || (i < log.len() && log[i] < seeds[s]) {
                i += 1;
                log[i - 1]
            } else {
                s += 1;
                seeds[s - 1]
            };
            let (key, c, v) = unpack(e);
            if center[v as usize] != INVALID_NODE {
                continue;
            }
            center[v as usize] = c;
            let next_key = key + 1.0;
            if next_key >= 0.0 {
                // Loses to every node's own seed key (see `RaceQueue`).
                continue;
            }
            for &w in g.neighbors(v) {
                let crosses = region.is_some_and(|r| r[w as usize] != r[v as usize]);
                if center[w as usize] == INVALID_NODE && !queued[w as usize] && !crosses {
                    queued[w as usize] = true;
                    let e = pack(next_key, c, w);
                    debug_assert!(
                        log.last().is_none_or(|&t| t >> 32 <= e >> 32),
                        "relaxations are queued in (key, center) order"
                    );
                    log.push(e);
                }
            }
        }
        self.rebuild_bookkeeping(index_of_center);
    }

    /// The raw center assignment, writable. Callers that fill it directly
    /// must follow up with [`Partition::finish_rebuild`] — the pooled
    /// extraction path in `distributed.rs` does exactly that.
    pub(crate) fn center_vec_mut(&mut self) -> &mut Vec<NodeId> {
        &mut self.center
    }

    /// Rebuilds every derived table from `self.center` (reusing existing
    /// buffer capacity) after a caller wrote a new center assignment.
    pub(crate) fn finish_rebuild(&mut self, beta: f64, index_of_center: &mut Vec<u32>) {
        self.beta = beta;
        self.rebuild_bookkeeping(index_of_center);
    }

    /// Recomputes `cluster_of` / `centers` / the member CSR from
    /// `self.center`. `index_of_center` is caller-provided scratch (reused
    /// as the counting-sort cursor array, so `n` entries cover both uses).
    fn rebuild_bookkeeping(&mut self, index_of_center: &mut Vec<u32>) {
        let n = self.center.len();
        index_of_center.clear();
        index_of_center.resize(n, u32::MAX);
        if self.cluster_of.len() != n {
            self.cluster_of.clear();
            self.cluster_of.resize(n, u32::MAX);
        }
        self.centers.clear();
        self.centers.reserve(n);
        for v in 0..n {
            let c = self.center[v] as usize;
            debug_assert!(self.center[c] == c as NodeId, "center of anyone is center of itself");
            if index_of_center[c] == u32::MAX {
                index_of_center[c] = self.centers.len() as u32;
                self.centers.push(c as NodeId);
            }
            self.cluster_of[v] = index_of_center[c];
        }
        // Counting sort into the member CSR (ascending node id per cluster).
        let k = self.centers.len();
        self.member_start.clear();
        self.member_start.reserve(n + 1);
        self.member_start.resize(k + 1, 0);
        for v in 0..n {
            self.member_start[self.cluster_of[v] as usize + 1] += 1;
        }
        for i in 0..k {
            self.member_start[i + 1] += self.member_start[i];
        }
        if self.member_data.len() != n {
            self.member_data.clear();
            self.member_data.resize(n, 0);
        }
        // `index_of_center` doubles as the per-cluster write cursor.
        index_of_center[..k].copy_from_slice(&self.member_start[..k]);
        for v in 0..n {
            let cursor = &mut index_of_center[self.cluster_of[v] as usize];
            self.member_data[*cursor as usize] = v as NodeId;
            *cursor += 1;
        }
    }

    /// The β this partition was computed with.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.center.len()
    }

    /// The cluster center of `v`.
    #[inline]
    pub fn center_of(&self, v: NodeId) -> NodeId {
        self.center[v as usize]
    }

    /// Dense index (in `0..num_clusters()`) of `v`'s cluster.
    #[inline]
    pub fn cluster_index(&self, v: NodeId) -> u32 {
        self.cluster_of[v as usize]
    }

    /// Whether `u` and `v` are in the same cluster.
    #[inline]
    pub fn same_cluster(&self, u: NodeId, v: NodeId) -> bool {
        self.cluster_of[u as usize] == self.cluster_of[v as usize]
    }

    /// Whether `v` is a cluster center.
    #[inline]
    pub fn is_center(&self, v: NodeId) -> bool {
        self.center[v as usize] == v
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// The distinct cluster centers (index = cluster index).
    pub fn centers(&self) -> &[NodeId] {
        &self.centers
    }

    /// The members of cluster `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_clusters()`.
    pub fn members(&self, idx: u32) -> &[NodeId] {
        let i = idx as usize;
        assert!(i < self.centers.len(), "cluster index {idx} out of range");
        &self.member_data[self.member_start[i] as usize..self.member_start[i + 1] as usize]
    }

    /// Strong (intra-cluster) BFS distance from every node to its cluster
    /// center. With the exact oracle construction this equals the global
    /// graph distance (MPX shortest-path property); entries are `u32::MAX`
    /// if a cluster is internally disconnected, which the oracle
    /// construction never produces.
    pub fn strong_dist_to_center(&self, g: &Graph) -> Vec<u32> {
        let mut scratch = ValidateScratch::default();
        self.strong_dist_into(g, &mut scratch);
        std::mem::take(&mut scratch.dist)
    }

    /// [`Partition::strong_dist_to_center`] into pooled buffers: the result
    /// lands in `scratch.dist`, and per-cluster BFS state reuses
    /// `scratch.bfs_dist` / `scratch.queue`.
    fn strong_dist_into(&self, g: &Graph, scratch: &mut ValidateScratch) {
        scratch.dist.clear();
        scratch.dist.resize(g.n(), u32::MAX);
        for (idx, &c) in self.centers.iter().enumerate() {
            let idx = idx as u32;
            traversal::bfs_filtered_into(
                g,
                &[c],
                |v| self.cluster_of[v as usize] == idx,
                &mut scratch.bfs_dist,
                &mut scratch.queue,
            );
            for &m in self.members(idx) {
                scratch.dist[m as usize] = scratch.bfs_dist[m as usize];
            }
        }
    }

    /// Validates the three §2.1 invariants; returns a human-readable reason
    /// on failure. Used by tests and by the distributed construction's
    /// repair logic.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        self.validate_pooled(g, &mut ValidateScratch::default())
    }

    /// [`Partition::validate`] with caller-pooled traversal buffers: a
    /// passing validation performs no heap allocation once `scratch` has
    /// been warmed on a graph of this size (failures allocate only the
    /// returned diagnostic string).
    pub fn validate_pooled(&self, g: &Graph, scratch: &mut ValidateScratch) -> Result<(), String> {
        for v in g.nodes() {
            let c = self.center_of(v);
            if self.center_of(c) != c {
                return Err(format!("center {c} of node {v} is not its own center"));
            }
            if self.cluster_of[v as usize] != self.cluster_of[c as usize] {
                return Err(format!("node {v} not in its center {c}'s cluster"));
            }
        }
        self.strong_dist_into(g, scratch);
        if let Some(v) = (0..g.n()).find(|&v| scratch.dist[v] == u32::MAX) {
            return Err(format!("cluster of node {v} is internally disconnected"));
        }
        Ok(())
    }
}

/// Reusable traversal buffers for [`Partition::validate_pooled`]: the
/// strong-distance result, one BFS distance array, and the BFS queue — all
/// bounded by `n`, so steady-state validation stays off the heap.
#[derive(Debug, Default)]
pub struct ValidateScratch {
    dist: Vec<u32>,
    bfs_dist: Vec<u32>,
    queue: VecDeque<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rn_graph::generators;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn partition_covers_all_nodes_exactly_once() {
        let g = generators::grid(15, 15);
        let p = Partition::compute(&g, 0.3, &mut rng(1));
        let total: usize = (0..p.num_clusters() as u32).map(|i| p.members(i).len()).sum();
        assert_eq!(total, g.n());
        for v in g.nodes() {
            assert!(p.members(p.cluster_index(v)).contains(&v));
        }
    }

    #[test]
    fn invariants_hold_across_graphs_and_betas() {
        let mut r = rng(2);
        let graphs = vec![
            generators::path(100),
            generators::grid(12, 12),
            generators::random_geometric(150, 0.12, &mut r),
            generators::random_tree(120, &mut r),
            generators::barbell(20, 15),
        ];
        for g in &graphs {
            for beta in [0.05, 0.2, 0.7] {
                let p = Partition::compute(g, beta, &mut r);
                p.validate(g).expect("invariants");
            }
        }
    }

    #[test]
    fn strong_distance_equals_graph_distance() {
        // The MPX property: the shortest path to your center stays in your
        // cluster, so strong distance = BFS distance.
        let g = generators::grid(14, 14);
        let p = Partition::compute(&g, 0.2, &mut rng(3));
        let strong = p.strong_dist_to_center(&g);
        for v in g.nodes() {
            let c = p.center_of(v);
            let global = traversal::bfs(&g, c)[v as usize];
            assert_eq!(strong[v as usize], global, "node {v} center {c}");
        }
    }

    #[test]
    fn beta_one_half_gives_many_clusters_beta_tiny_gives_one() {
        let g = generators::grid(16, 16);
        let many = Partition::compute(&g, 0.9, &mut rng(4));
        let few = Partition::compute(&g, 1e-6, &mut rng(4));
        assert!(many.num_clusters() > 20, "large beta fragments: {}", many.num_clusters());
        assert_eq!(few.num_clusters(), 1, "tiny beta produces one giant cluster");
    }

    #[test]
    fn with_shifts_is_deterministic() {
        let g = generators::grid(10, 10);
        let shifts = ExponentialShifts::sample(g.n(), 0.3, &mut rng(5));
        let p1 = Partition::with_shifts(&g, &shifts);
        let p2 = Partition::with_shifts(&g, &shifts);
        assert_eq!(p1.center, p2.center);
    }

    #[test]
    fn winner_has_max_shifted_distance() {
        // Brute-force check of the defining argmax on a small graph.
        let g = generators::grid(6, 6);
        let shifts = ExponentialShifts::sample(g.n(), 0.4, &mut rng(6));
        let p = Partition::with_shifts(&g, &shifts);
        for v in g.nodes() {
            let dist = traversal::bfs(&g, v);
            let winner = p.center_of(v);
            let wkey = shifts.delta(winner) - dist[winner as usize] as f64;
            for u in g.nodes() {
                let ukey = shifts.delta(u) - dist[u as usize] as f64;
                assert!(
                    ukey <= wkey + 1e-9,
                    "node {v}: center {winner} (key {wkey}) beaten by {u} (key {ukey})"
                );
            }
        }
    }

    #[test]
    fn seed_and_relaxation_key_ties_go_to_the_smaller_center() {
        // Path 0 - 1 - 2. Node 1's own key −2 ties with the key −3 + 1 of
        // the end with shift 3; the smaller of the two center ids wins.
        let g = generators::path(3);
        let center_of = |delta: [f64; 3]| {
            let shifts = ExponentialShifts::from_deltas(0.5, delta.to_vec());
            Partition::with_shifts(&g, &shifts).center
        };
        assert_eq!(center_of([3.0, 2.0, 0.0]), [0, 0, 0], "relaxation from 0 beats seed 1");
        assert_eq!(center_of([0.0, 2.0, 3.0]), [1, 1, 2], "seed 1 beats relaxation from 2");
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let p = Partition::compute(&g, 0.5, &mut rng(7));
        assert_eq!(p.num_clusters(), 1);
        assert!(p.is_center(0));
    }

    #[test]
    fn compute_within_respects_region_boundaries() {
        // Coarse: grid split into left/right halves. Fine clusters must not
        // span the boundary.
        let g = generators::grid(12, 6);
        let region: Vec<u32> = g.nodes().map(|v| if v % 12 < 6 { 0 } else { 1 }).collect();
        for seed in 0..5 {
            let p = Partition::compute_within(&g, 0.2, &region, &mut rng(seed));
            p.validate(&g).expect("valid partition");
            for idx in 0..p.num_clusters() as u32 {
                let members = p.members(idx);
                let r0 = region[members[0] as usize];
                assert!(
                    members.iter().all(|&m| region[m as usize] == r0),
                    "cluster {idx} spans regions"
                );
            }
        }
    }

    #[test]
    fn recompute_matches_fresh_compute_exactly() {
        let g = generators::grid(12, 12);
        let region: Vec<u32> = g.nodes().map(|v| if v % 12 < 6 { 0 } else { 1 }).collect();
        let mut scratch = PartitionScratch::default();
        // Warm the pool on an unrelated graph, then recompute across seeds
        // and betas: every result must equal the fresh construction.
        let warm = generators::path(30);
        let mut pooled = Partition::compute(&warm, 0.5, &mut rng(0));
        pooled.recompute(&warm, 0.5, &mut rng(0), &mut scratch);
        for seed in 0..4 {
            for beta in [0.1, 0.4] {
                pooled.recompute(&g, beta, &mut rng(seed), &mut scratch);
                let fresh = Partition::compute(&g, beta, &mut rng(seed));
                assert_eq!(pooled.center, fresh.center, "seed {seed} beta {beta}");
                assert_eq!(pooled.cluster_of, fresh.cluster_of);
                assert_eq!(pooled.centers, fresh.centers);
                assert_eq!(pooled.member_start, fresh.member_start);
                assert_eq!(pooled.member_data, fresh.member_data);

                pooled.recompute_within(&g, beta, &region, &mut rng(seed), &mut scratch);
                let fresh = Partition::compute_within(&g, beta, &region, &mut rng(seed));
                assert_eq!(pooled.center, fresh.center, "within: seed {seed} beta {beta}");
                assert_eq!(pooled.member_data, fresh.member_data);
            }
        }
    }

    #[test]
    fn compute_within_single_region_matches_unrestricted_shape() {
        let g = generators::grid(10, 10);
        let region = vec![0u32; g.n()];
        let p = Partition::compute_within(&g, 0.3, &region, &mut rng(8));
        p.validate(&g).expect("valid partition");
        // With one region the restriction is vacuous: same invariants,
        // plausible cluster count.
        assert!(p.num_clusters() >= 1 && p.num_clusters() <= g.n());
    }
}
