use rn_cluster::Partition;
use rn_graph::{Graph, NodeId, INVALID_NODE};
use rn_sim::NetParams;
use std::collections::VecDeque;

/// How the window width `W` (slots per tree layer = schedule period) is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPolicy {
    /// Use the maximum number of colors any layer needs, capped at
    /// `4·⌈log₂ n⌉` (the cap keeps the period `O(log n)` as in Lemma 2.3;
    /// layers needing more overflow onto reused slots and are repaired by
    /// the ICP background process).
    Auto,
    /// A fixed window width.
    Fixed(u32),
}

/// Per-cluster BFS trees plus a conflict-free layer/slot schedule, for all
/// clusters of one [`Partition`] at once.
///
/// # Example
///
/// ```
/// use rn_cluster::Partition;
/// use rn_graph::generators;
/// use rn_schedule::{SlotPolicy, TreeSchedule};
/// use rand::SeedableRng;
///
/// let g = generators::grid(12, 12);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let part = Partition::compute(&g, 0.3, &mut rng);
/// let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
/// assert!(sched.window() >= 1);
/// assert_eq!(sched.pass_len(sched.max_depth()), (sched.max_depth() as u64 + 1) * sched.window() as u64);
/// ```
#[derive(Debug, Clone)]
pub struct TreeSchedule {
    window: u32,
    max_depth: u32,
    /// BFS-tree parent within the cluster; `INVALID_NODE` for centers.
    parent: Vec<NodeId>,
    /// Depth within the cluster tree (0 for centers).
    depth: Vec<u32>,
    /// Cluster index per node (copied from the partition).
    cluster: Vec<u32>,
    /// Downcast slot of a node (valid if it has tree children), else `u32::MAX`.
    down_slot: Vec<u32>,
    /// Upcast slot of a node (valid unless it is a center), else `u32::MAX`.
    up_slot: Vec<u32>,
    /// CSR of nodes grouped by depth across all clusters (they share
    /// windows): depth `d` owns `depth_nodes[depth_start[d]..depth_start[d+1]]`.
    /// Flat so pooled rebuilds reuse two `n`-bounded buffers even when
    /// `max_depth` changes between trials. Layer 0 (the centers) is in
    /// ascending id order; every deeper layer is in (up slot, id) order,
    /// so `depth_nodes` doubles as the upcast transmitter list.
    depth_start: Vec<u32>,
    depth_nodes: Vec<NodeId>,
    /// The nodes with tree children, in (depth, down slot, id) order: the
    /// downcast transmitter list.
    down_tx: Vec<NodeId>,
    /// CSR of tree children: node `v` owns
    /// `child_data[child_start[v]..child_start[v+1]]`.
    child_start: Vec<u32>,
    child_data: Vec<NodeId>,
    /// Number of nodes whose down/up color exceeded the window and wrapped.
    overflow: usize,
}

/// Reusable workspace for [`TreeSchedule::rebuild`]: the BFS queue, the
/// layer-adjacency lists, the greedy coloring's color marks, and the
/// counting-sort cursors. All are bounded by `2n + 1` or `m`, so after the
/// first rebuild on a given graph subsequent rebuilds perform no heap
/// allocation.
#[derive(Debug, Default)]
pub struct TreeScheduleScratch {
    queue: VecDeque<NodeId>,
    /// `U(u)`: `u`'s neighbors in its cluster one layer up, as the span
    /// `up_span[u]` of `up` (filled in BFS order). Once the coloring is
    /// done, `up` holds the up list's counts for the final counting sort.
    up: Vec<NodeId>,
    up_span: Vec<(u32, u32)>,
    /// `D(v)`: `v`'s neighbors in its cluster one layer down (the transpose
    /// of `U`), CSR by node id.
    down_start: Vec<u32>,
    down: Vec<NodeId>,
    marks: ColorMarks,
    cursor: Vec<u32>,
}

/// The set of colors a node's conflicts already use, as a stamp array:
/// color `c` is taken iff `seen[c] == stamp`. Starting a new set is one
/// increment instead of a clear, and marking / testing a color is O(1).
#[derive(Debug, Default)]
struct ColorMarks {
    seen: Vec<u32>,
    stamp: u32,
}

impl ColorMarks {
    /// Makes room for colors `0..=max_color`; entries added start unmarked.
    fn fit(&mut self, max_color: usize) {
        if self.seen.len() <= max_color {
            self.seen.resize(max_color + 1, 0);
        }
    }

    /// Starts an empty color set. Every stamp is fresh since the last
    /// wrap-around, and a wrap-around zeroes `seen`, so marks from earlier
    /// sets (or earlier rebuilds) never read as taken.
    fn start(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
    }

    /// Marks color `c` taken; `u32::MAX` (not yet colored) is ignored.
    #[inline]
    fn mark(&mut self, c: u32) {
        if c != u32::MAX {
            self.seen[c as usize] = self.stamp;
        }
    }

    /// The smallest color not taken.
    #[inline]
    fn smallest_free(&self) -> u32 {
        let mut c = 0;
        while self.seen[c] == self.stamp {
            c += 1;
        }
        c as u32
    }
}

impl TreeSchedule {
    /// Builds trees and slot colorings for every cluster of `partition`.
    pub fn build(g: &Graph, partition: &Partition, policy: SlotPolicy) -> TreeSchedule {
        let mut sched = TreeSchedule {
            window: 1,
            max_depth: 0,
            parent: Vec::new(),
            depth: Vec::new(),
            cluster: Vec::new(),
            down_slot: Vec::new(),
            up_slot: Vec::new(),
            depth_start: Vec::new(),
            depth_nodes: Vec::new(),
            down_tx: Vec::new(),
            child_start: Vec::new(),
            child_data: Vec::new(),
            overflow: 0,
        };
        sched.rebuild(g, partition, policy, &mut TreeScheduleScratch::default());
        sched
    }

    /// In-place [`TreeSchedule::build`]: byte-identical result (it *is* the
    /// build code path), but every buffer is reused from `self` and
    /// `scratch`. Pooled trial loops call this once per clustering instead
    /// of constructing fresh schedules.
    pub fn rebuild(
        &mut self,
        g: &Graph,
        partition: &Partition,
        policy: SlotPolicy,
        scratch: &mut TreeScheduleScratch,
    ) {
        let n = g.n();
        let TreeScheduleScratch { queue, up, up_span, down_start, down, marks, cursor } = scratch;
        self.parent.clear();
        self.parent.resize(n, INVALID_NODE);
        self.depth.clear();
        self.depth.resize(n, u32::MAX);
        self.cluster.clear();
        self.cluster.extend((0..n).map(|v| partition.cluster_index(v as NodeId)));
        let TreeSchedule {
            parent,
            depth,
            cluster,
            down_slot,
            up_slot,
            depth_start,
            depth_nodes,
            down_tx,
            child_start,
            child_data,
            ..
        } = self;

        // Per-cluster BFS with parents, restricted to the cluster. When `u`
        // is popped, every neighbor one layer up is already discovered, so
        // the same scan records `U(u)`.
        queue.clear();
        queue.reserve(n);
        up.clear();
        up.reserve(g.m());
        up_span.clear();
        up_span.resize(n, (0, 0));
        for (idx, &c) in partition.centers().iter().enumerate() {
            let idx = idx as u32;
            depth[c as usize] = 0;
            queue.push_back(c);
            while let Some(u) = queue.pop_front() {
                let du = depth[u as usize];
                let start = up.len() as u32;
                for &w in g.neighbors(u) {
                    if cluster[w as usize] != idx {
                        continue;
                    }
                    let dw = depth[w as usize];
                    if dw == u32::MAX {
                        depth[w as usize] = du + 1;
                        parent[w as usize] = u;
                        queue.push_back(w);
                    } else if dw + 1 == du {
                        up.push(w);
                    }
                }
                up_span[u as usize] = (start, up.len() as u32);
            }
        }
        debug_assert!(depth.iter().all(|&d| d != u32::MAX), "clusters are connected");

        let max_depth = depth.iter().copied().max().unwrap_or(0);
        self.max_depth = max_depth;

        // Nodes-by-depth CSR via counting sort (ascending node id per layer,
        // matching the old push order). `cursor` doubles as the write heads.
        depth_start.clear();
        depth_start.reserve(n + 2);
        depth_start.resize(max_depth as usize + 2, 0);
        for v in 0..n {
            depth_start[depth[v] as usize + 1] += 1;
        }
        for d in 0..max_depth as usize + 1 {
            depth_start[d + 1] += depth_start[d];
        }
        if depth_nodes.len() != n {
            depth_nodes.clear();
            depth_nodes.resize(n, 0);
        }
        cursor.clear();
        // The largest use is the `(depth, slot)` counts below, `≤ 2n + 1`.
        cursor.reserve(2 * n + 1);
        cursor.extend_from_slice(&depth_start[..max_depth as usize + 1]);
        for v in 0..n {
            let at = &mut cursor[depth[v] as usize];
            depth_nodes[*at as usize] = v as NodeId;
            *at += 1;
        }

        // Children CSR (ascending child id per parent, as before).
        child_start.clear();
        child_start.resize(n + 1, 0);
        for &p in parent.iter() {
            if p != INVALID_NODE {
                child_start[p as usize + 1] += 1;
            }
        }
        for v in 0..n {
            child_start[v + 1] += child_start[v];
        }
        child_data.clear();
        // Reserve the worst case (every node a child) rather than the exact
        // edge count: the count is partition- and therefore seed-dependent,
        // and chasing it would realloc on the first trial whose trees are
        // bushier than every one before it.
        child_data.reserve(n);
        child_data.resize(child_start[n] as usize, 0);
        cursor.clear();
        cursor.extend_from_slice(&child_start[..n]);
        for (v, &p) in parent.iter().enumerate() {
            if p != INVALID_NODE {
                let at = &mut cursor[p as usize];
                child_data[*at as usize] = v as NodeId;
                *at += 1;
            }
        }

        // `D` = transpose of `U`, by counting sort.
        down_start.clear();
        down_start.resize(n + 1, 0);
        for &w in up.iter() {
            down_start[w as usize + 1] += 1;
        }
        for v in 0..n {
            down_start[v + 1] += down_start[v];
        }
        down.clear();
        down.reserve(g.m());
        down.resize(up.len(), 0);
        cursor.clear();
        cursor.extend_from_slice(&down_start[..n]);
        for (u, &(s, e)) in up_span.iter().enumerate() {
            for &w in &up[s as usize..e as usize] {
                let at = &mut cursor[w as usize];
                down[*at as usize] = u as NodeId;
                *at += 1;
            }
        }
        let ups = |v: NodeId| {
            let (s, e) = up_span[v as usize];
            &up[s as usize..e as usize]
        };
        let downs =
            |v: NodeId| &down[down_start[v as usize] as usize..down_start[v as usize + 1] as usize];
        let kids = |v: NodeId| {
            &child_data[child_start[v as usize] as usize..child_start[v as usize + 1] as usize]
        };

        // Greedy conflict colorings, one layer at a time, written directly
        // into the slot arrays (folded modulo the window afterwards).
        down_slot.clear();
        down_slot.resize(n, u32::MAX);
        up_slot.clear();
        up_slot.resize(n, u32::MAX);
        // A node has fewer than `n` conflicts, so its color is below `n`.
        marks.fit(n);
        let down_color = down_slot;
        let up_color = up_slot;
        let mut max_color = 0u32;
        for d in 0..max_depth as usize + 1 {
            let layer = &depth_nodes[depth_start[d] as usize..depth_start[d + 1] as usize];
            // --- Downcast: transmitters are nodes with children. Conflicts
            // are the same-cluster, same-layer transmitters p' that are
            // adjacent to one of p's children (p' ∈ U(child)), or that have
            // a child adjacent to p (that child ∈ D(p)).
            for &p in layer {
                if kids(p).is_empty() {
                    continue;
                }
                marks.start();
                for &u in kids(p) {
                    for &w in ups(u) {
                        if w != p && !kids(w).is_empty() {
                            marks.mark(down_color[w as usize]);
                        }
                    }
                }
                for &w in downs(p) {
                    let pw = parent[w as usize];
                    if pw != p {
                        marks.mark(down_color[pw as usize]);
                    }
                }
                let c = marks.smallest_free();
                down_color[p as usize] = c;
                max_color = max_color.max(c);
            }

            // --- Upcast: transmitters are all non-center nodes of the layer;
            // the receiver that matters is the tree parent. Conflicts are the
            // same-cluster, same-layer u' adjacent to p(u) (u' ∈ D(p(u))), or
            // whose parent is adjacent to u (p(u') ∈ U(u)).
            for &u in layer {
                let pu = parent[u as usize];
                if pu == INVALID_NODE {
                    continue;
                }
                marks.start();
                for &w in downs(pu) {
                    if w != u {
                        marks.mark(up_color[w as usize]);
                    }
                }
                for &w in ups(u) {
                    for &ch in kids(w) {
                        if ch != u {
                            marks.mark(up_color[ch as usize]);
                        }
                    }
                }
                let c = marks.smallest_free();
                up_color[u as usize] = c;
                max_color = max_color.max(c);
            }
        }

        let params_cap = 4 * NetParams::new(n, max_depth).log2_n();
        let window = match policy {
            SlotPolicy::Auto => (max_color + 1).min(params_cap.max(1)),
            SlotPolicy::Fixed(w) => w.max(1),
        };
        self.window = window;

        // Transmitter lists: a counting sort by `(depth, slot)`, with the
        // counts in scratch. Scanning ids upwards keeps each `(depth, slot)`
        // run in ascending id order, which callers rely on: send order sets
        // callback order, and Algorithm 4's coin draws follow it.
        // Layer `d` owns keys `depth_start[d] + d ..= depth_start[d+1] + d`:
        // one per slot below its size (a greedy color `c` needs `c`
        // same-layer conflicts, so every slot is below it), and a last one
        // for "no slot", where the centers sort in the up order.
        let keys = n + max_depth as usize + 1;
        let key = |v: usize, slot: u32| {
            let d = depth[v] as usize;
            let layer = depth_start[d + 1] - depth_start[d];
            debug_assert!(slot == u32::MAX || slot < layer, "slot below layer size");
            (depth_start[d] + d as u32 + slot.min(layer)) as usize
        };
        // The layer-up lists are spent: `up` holds the up-list counts.
        let (down_at, up_at) = (cursor, up);
        down_at.clear();
        down_at.resize(keys + 1, 0);
        up_at.clear();
        up_at.reserve(2 * n + 1);
        up_at.resize(keys + 1, 0);

        // Fold colors into the window, count overflows, and count each
        // key's transmitters.
        let mut overflow = 0;
        for v in 0..n {
            if down_color[v] != u32::MAX {
                if down_color[v] >= window {
                    overflow += 1;
                }
                down_color[v] %= window;
                down_at[key(v, down_color[v]) + 1] += 1;
            }
            if up_color[v] != u32::MAX {
                if up_color[v] >= window {
                    overflow += 1;
                }
                up_color[v] %= window;
            }
            up_at[key(v, up_color[v]) + 1] += 1;
        }
        self.overflow = overflow;
        for k in 1..keys + 1 {
            down_at[k] += down_at[k - 1];
            up_at[k] += up_at[k - 1];
        }

        // The down list holds only the nodes with children. The up list is
        // `depth_nodes` itself, re-sorted in place: every layer keeps its
        // `depth_start` range, and the centers keep layer 0 in id order.
        down_tx.clear();
        down_tx.reserve(n);
        down_tx.resize(down_at[keys] as usize, 0);
        for v in 0..n {
            if down_color[v] != u32::MAX {
                let at = &mut down_at[key(v, down_color[v])];
                down_tx[*at as usize] = v as NodeId;
                *at += 1;
            }
            let at = &mut up_at[key(v, up_color[v])];
            depth_nodes[*at as usize] = v as NodeId;
            *at += 1;
        }
    }

    /// The window width `W` (slots per layer; the schedule's period).
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Deepest layer over all clusters.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Length in rounds of one downcast or upcast pass to `radius`:
    /// `(min(radius, max_depth) + 1) · W`.
    pub fn pass_len(&self, radius: u32) -> u64 {
        (radius.min(self.max_depth) as u64 + 1) * self.window as u64
    }

    /// Tree parent of `v` (`INVALID_NODE` for cluster centers).
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Tree depth of `v` within its cluster.
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v as usize]
    }

    /// Cluster index of `v`.
    pub fn cluster(&self, v: NodeId) -> u32 {
        self.cluster[v as usize]
    }

    /// Downcast slot of `v` (`u32::MAX` if `v` has no tree children).
    pub fn down_slot(&self, v: NodeId) -> u32 {
        self.down_slot[v as usize]
    }

    /// Upcast slot of `v` (`u32::MAX` for centers).
    pub fn up_slot(&self, v: NodeId) -> u32 {
        self.up_slot[v as usize]
    }

    /// Tree children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.child_data[self.child_start[v] as usize..self.child_start[v + 1] as usize]
    }

    /// Nodes at tree depth `d`, across all clusters. Layer 0 (the cluster
    /// centers) is in ascending id order; deeper layers are in (up slot, id)
    /// order, not id order.
    pub fn nodes_at_depth(&self, d: u32) -> &[NodeId] {
        if d > self.max_depth {
            return &[];
        }
        let d = d as usize;
        &self.depth_nodes[self.depth_start[d] as usize..self.depth_start[d + 1] as usize]
    }

    /// The nodes at depth `d` whose downcast slot is `s` (exactly the nodes
    /// with tree children there), in ascending id order. Empty when `d`
    /// is past [`TreeSchedule::max_depth`] or `s` is not below the window.
    pub fn down_transmitters(&self, d: u32, s: u32) -> &[NodeId] {
        self.in_slot(&self.down_tx, &self.down_slot, d, s)
    }

    /// The nodes at depth `d` whose upcast slot is `s`, in ascending id
    /// order. Empty for `d = 0` (centers never transmit upward), when `d`
    /// is past [`TreeSchedule::max_depth`], or when `s` is not below the
    /// window.
    pub fn up_transmitters(&self, d: u32, s: u32) -> &[NodeId] {
        self.in_slot(&self.depth_nodes, &self.up_slot, d, s)
    }

    /// The run of `list` (sorted by `(depth, slot[v], id)`) at depth `d`
    /// in slot `s`, by binary search. A schedule step looks up one run, so
    /// the search is cheap next to sending it; the `s < W` test keeps out
    /// the nodes without a slot (`u32::MAX`).
    fn in_slot<'a>(&self, list: &'a [NodeId], slot: &[u32], d: u32, s: u32) -> &'a [NodeId] {
        if s >= self.window {
            return &[];
        }
        let key = |v: &NodeId| (self.depth[*v as usize], slot[*v as usize]);
        let lo = list.partition_point(|v| key(v) < (d, s));
        let hi = lo + list[lo..].partition_point(|v| key(v) == (d, s));
        &list[lo..hi]
    }

    /// How many node colors wrapped past the window (0 = fully conflict-free
    /// within clusters).
    pub fn overflow(&self) -> usize {
        self.overflow
    }

    /// Charged preprocessing cost of building this schedule distributedly,
    /// per the Lemma 2.3 contract: `O((max_depth + 1) · W · log n)` rounds
    /// (`log n` passes of one wave each). Used by the Compete pipeline's
    /// `Charged` precompute mode.
    pub fn charged_build_rounds(&self, params: &NetParams) -> u64 {
        (self.max_depth as u64 + 1) * self.window as u64 * params.log2_n() as u64
    }

    /// Verifies the intra-cluster conflict-freeness guarantee: for every
    /// non-center node `u`, no same-cluster, same-depth transmitter other
    /// than `parent(u)` shares `parent(u)`'s downcast slot among `u`'s
    /// neighbors; and symmetrically for upcast at `parent(u)`. Returns the
    /// number of violations (0 unless slots overflowed).
    pub fn conflict_violations(&self, g: &Graph) -> usize {
        let mut violations = 0;
        for u in g.nodes() {
            let p = self.parent[u as usize];
            if p == INVALID_NODE {
                continue;
            }
            let pslot = self.down_slot[p as usize];
            let pdepth = self.depth[p as usize];
            for &w in g.neighbors(u) {
                if w != p
                    && self.cluster[w as usize] == self.cluster[u as usize]
                    && self.depth[w as usize] == pdepth
                    && self.down_slot[w as usize] == pslot
                {
                    violations += 1;
                }
            }
            // Upcast: at p, another same-cluster same-depth-as-u neighbor of p
            // sharing u's up slot would collide with u's transmission.
            let uslot = self.up_slot[u as usize];
            let udepth = self.depth[u as usize];
            for &w in g.neighbors(p) {
                if w != u
                    && self.cluster[w as usize] == self.cluster[u as usize]
                    && self.depth[w as usize] == udepth
                    && self.up_slot[w as usize] == uslot
                {
                    violations += 1;
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rn_cluster::Partition;
    use rn_graph::generators;

    fn single_cluster(g: &Graph) -> Partition {
        let mut rng = SmallRng::seed_from_u64(0);
        let p = Partition::compute(g, 1e-9, &mut rng);
        assert_eq!(p.num_clusters(), 1);
        p
    }

    #[test]
    fn tree_depths_match_bfs_on_single_cluster() {
        let g = generators::grid(9, 9);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let center = part.centers()[0];
        let dist = rn_graph::traversal::bfs(&g, center);
        for v in g.nodes() {
            assert_eq!(sched.depth(v), dist[v as usize]);
        }
        assert_eq!(sched.parent(center), INVALID_NODE);
    }

    #[test]
    fn parents_are_one_layer_up_and_in_cluster() {
        let g = generators::grid(10, 10);
        let mut rng = SmallRng::seed_from_u64(1);
        let part = Partition::compute(&g, 0.3, &mut rng);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        for v in g.nodes() {
            let p = sched.parent(v);
            if p == INVALID_NODE {
                assert!(part.is_center(v));
                assert_eq!(sched.depth(v), 0);
            } else {
                assert!(g.has_edge(v, p));
                assert_eq!(sched.depth(v), sched.depth(p) + 1);
                assert_eq!(sched.cluster(v), sched.cluster(p));
                assert!(sched.children(p).contains(&v));
            }
        }
    }

    #[test]
    fn coloring_is_conflict_free_without_overflow() {
        let mut rng = SmallRng::seed_from_u64(2);
        for g in [
            generators::path(150),
            generators::grid(13, 13),
            generators::random_geometric(200, 0.12, &mut rng),
            generators::binary_tree(127),
        ] {
            for beta in [1e-9, 0.2, 0.5] {
                let part = Partition::compute(&g, beta, &mut rng);
                let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
                if sched.overflow() == 0 {
                    assert_eq!(sched.conflict_violations(&g), 0, "graph n={} beta={beta}", g.n());
                }
            }
        }
    }

    #[test]
    fn window_respects_fixed_policy_and_floors_at_one() {
        let g = generators::path(20);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Fixed(7));
        assert_eq!(sched.window(), 7);
        let sched0 = TreeSchedule::build(&g, &part, SlotPolicy::Fixed(0));
        assert_eq!(sched0.window(), 1, "floored");
    }

    #[test]
    fn path_needs_tiny_window() {
        // On a path every layer has ≤ 2 nodes per cluster; greedy coloring
        // needs O(1) colors — the bounded-growth property the design relies on.
        let g = generators::path(300);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        assert!(sched.window() <= 3, "window {} too large for a path", sched.window());
        assert_eq!(sched.overflow(), 0);
    }

    #[test]
    fn pass_len_clamps_to_max_depth() {
        let g = generators::path(50);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let full = sched.pass_len(u32::MAX);
        assert_eq!(full, (sched.max_depth() as u64 + 1) * sched.window() as u64);
        assert!(sched.pass_len(3) <= full);
        assert_eq!(sched.pass_len(3), 4 * sched.window() as u64);
    }

    #[test]
    fn nodes_at_depth_partitions_nodes() {
        let g = generators::grid(8, 8);
        let mut rng = SmallRng::seed_from_u64(3);
        let part = Partition::compute(&g, 0.4, &mut rng);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let total: usize = (0..=sched.max_depth()).map(|d| sched.nodes_at_depth(d).len()).sum();
        assert_eq!(total, g.n());
        assert!(sched.nodes_at_depth(sched.max_depth() + 5).is_empty());
    }

    #[test]
    fn rebuild_matches_fresh_build_exactly() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = generators::grid(11, 11);
        let warm = generators::path(40);
        let mut scratch = TreeScheduleScratch::default();
        let mut pooled =
            TreeSchedule::build(&warm, &Partition::compute(&warm, 0.5, &mut rng), SlotPolicy::Auto);
        for beta in [1e-9, 0.2, 0.6] {
            let part = Partition::compute(&g, beta, &mut rng);
            for policy in [SlotPolicy::Auto, SlotPolicy::Fixed(3)] {
                pooled.rebuild(&g, &part, policy, &mut scratch);
                let fresh = TreeSchedule::build(&g, &part, policy);
                assert_eq!(pooled.window, fresh.window, "beta {beta}");
                assert_eq!(pooled.max_depth, fresh.max_depth);
                assert_eq!(pooled.parent, fresh.parent);
                assert_eq!(pooled.depth, fresh.depth);
                assert_eq!(pooled.cluster, fresh.cluster);
                assert_eq!(pooled.down_slot, fresh.down_slot);
                assert_eq!(pooled.up_slot, fresh.up_slot);
                assert_eq!(pooled.depth_start, fresh.depth_start);
                assert_eq!(pooled.depth_nodes, fresh.depth_nodes);
                assert_eq!(pooled.down_tx, fresh.down_tx);
                assert_eq!(pooled.child_start, fresh.child_start);
                assert_eq!(pooled.child_data, fresh.child_data);
                assert_eq!(pooled.overflow, fresh.overflow);
            }
        }
    }

    #[test]
    fn color_stamp_wraparound_keeps_rebuilds_exact() {
        // Park the stamp just below the wrap so the next rebuild crosses
        // it mid-coloring: stale marks from before the wrap must not read
        // as taken colors afterwards.
        let mut rng = SmallRng::seed_from_u64(12);
        let g = generators::grid(11, 11);
        let mut scratch = TreeScheduleScratch::default();
        for beta in [0.2, 0.6] {
            let part = Partition::compute(&g, beta, &mut rng);
            let fresh = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
            let mut pooled = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
            pooled.rebuild(&g, &part, SlotPolicy::Auto, &mut scratch);
            scratch.marks.stamp = u32::MAX - 5;
            pooled.rebuild(&g, &part, SlotPolicy::Auto, &mut scratch);
            assert!(scratch.marks.stamp < 1000, "the stamp wrapped during the rebuild");
            assert_eq!(pooled.down_slot, fresh.down_slot, "beta {beta}");
            assert_eq!(pooled.up_slot, fresh.up_slot, "beta {beta}");
            assert_eq!(pooled.window, fresh.window);
        }
    }

    #[test]
    fn charged_cost_formula() {
        let g = generators::grid(8, 8);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let params = rn_sim::NetParams::of_graph(&g);
        assert_eq!(
            sched.charged_build_rounds(&params),
            (sched.max_depth() as u64 + 1) * sched.window() as u64 * params.log2_n() as u64
        );
    }
}
