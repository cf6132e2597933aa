//! CGM connected components and spanning forest — Table 1, Group C.
//!
//! Deterministic min-label hook-and-compress (Shiloach–Vishkin style):
//! every vertex keeps a parent pointer `P[u]` (initially itself). Each
//! iteration: (1) for every edge `(u, v)`, the owners look up the current
//! parents and propose hooking the larger root under the smaller
//! (`min`-hooking, so proposals compose without races); (2) every vertex
//! pointer-jumps `P[u] ← P[P[u]]`. Parents only decrease, so the process
//! converges to the minimum vertex id of each component in O(log n)
//! iterations of a constant number of supersteps each.
//!
//! The edge that wins a hook is recorded — the winning hooks over the run
//! form a spanning forest.

use crate::common::{distribute, AlgoError, AlgoResult, ChunkMap};
use em_bsp::{BspProgram, Executor, Mailbox, Step};
use em_serial::impl_serial_struct;

/// State: a chunk of vertices and a chunk of edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcState {
    /// Global id of my first vertex.
    pub vstart: u64,
    /// Parent per local vertex.
    pub parent: Vec<u64>,
    /// Edge chunk `(u, v, edge_id)`.
    pub edges: Vec<(u64, u64, u64)>,
    /// Edge ids that won a hook (spanning-forest output, may hold ids of
    /// edges stored on this processor only).
    pub forest: Vec<u64>,
    /// Scratch: pending parent lookups for my edges `(edge_idx, pu, pv)`.
    pub lookups: Vec<(u64, u64, u64)>,
    /// Whether anything changed in the last iteration (for convergence).
    pub changed: bool,
}
impl_serial_struct!(CcState { vstart, parent, edges, forest, lookups, changed });

/// The hook-and-compress BSP program. One iteration is 6 supersteps:
///
/// 0. edge owners query `P[u]`, `P[v]` (and every vertex queries
///    `P[P[u]]` for compression);
/// 1. vertex owners answer;
/// 2. edge owners send hook proposals `(root, new_parent, edge_id)` to the
///    root's owner; vertices apply compression;
/// 3. root owners apply the minimum proposal, record the winning edge;
/// 4. every processor broadcasts its local `changed` flag;
/// 5. everyone either halts (no change anywhere) or starts over.
#[derive(Debug, Clone)]
pub struct HookCompress {
    /// Vertex-ownership map.
    pub vmap: ChunkMap,
    /// Edges total (for sizing).
    pub m: usize,
}

const PHASES: usize = 6;

impl BspProgram for HookCompress {
    type State = CcState;
    /// `(tag, a, b, c)` — 0: parent query `(vertex, token, kind)`;
    /// 1: parent reply `(token, parent, kind)`; 2: hook proposal
    /// `(root, new_parent, edge_id)`; 3: changed flag `(flag, _, _)`.
    type Msg = (u8, u64, u64, u64);

    fn superstep(
        &self,
        step: usize,
        mb: &mut Mailbox<(u8, u64, u64, u64)>,
        state: &mut CcState,
    ) -> Step {
        match step % PHASES {
            0 => {
                // Edge queries: for edge i ask owners of u and v for their
                // parents. kind 0 = u-side, 1 = v-side. Token = edge index
                // local to me, so replies can be matched.
                state.lookups =
                    state.edges.iter().map(|&(_, _, _)| (0, u64::MAX, u64::MAX)).collect();
                for (i, &(u, v, _)) in state.edges.iter().enumerate() {
                    state.lookups[i].0 = i as u64;
                    mb.send(self.vmap.owner(u as usize), (0, u, i as u64, 0));
                    mb.send(self.vmap.owner(v as usize), (0, v, i as u64, 1));
                }
                // Compression queries: each vertex asks P[u]'s owner for
                // P[P[u]]. kind 2, token = local vertex index.
                for (l, &p) in state.parent.iter().enumerate() {
                    mb.send(self.vmap.owner(p as usize), (0, p, l as u64, 2));
                }
                state.changed = false;
                Step::Continue
            }
            1 => {
                for env in mb.take_incoming() {
                    let (_, vertex, token, kind) = env.msg;
                    let local = (vertex - state.vstart) as usize;
                    mb.send(env.src, (1, token, state.parent[local], kind));
                }
                Step::Continue
            }
            2 => {
                let mut grand = vec![u64::MAX; state.parent.len()];
                for env in mb.take_incoming() {
                    let (_, token, parent, kind) = env.msg;
                    match kind {
                        0 => state.lookups[token as usize].1 = parent,
                        1 => state.lookups[token as usize].2 = parent,
                        _ => grand[token as usize] = parent,
                    }
                }
                // Hook proposals: hook the larger parent under the smaller.
                for &(i, pu, pv) in &state.lookups {
                    if pu == pv {
                        continue;
                    }
                    let (root, new_parent) = if pu > pv { (pu, pv) } else { (pv, pu) };
                    let edge_id = state.edges[i as usize].2;
                    mb.send(self.vmap.owner(root as usize), (2, root, new_parent, edge_id));
                }
                // Compression.
                for (l, g) in grand.into_iter().enumerate() {
                    if g != u64::MAX && g != state.parent[l] {
                        state.parent[l] = g;
                        state.changed = true;
                    }
                }
                Step::Continue
            }
            3 => {
                // Apply the minimum hook proposal per vertex, but only to
                // *true roots* (classic Shiloach–Vishkin hooking): a vertex
                // is hooked at most once per lifetime as a root, keeping
                // the recorded candidate edges near-forest; the driver
                // filters residual cycles (stale proposals can still merge
                // already-merged components) with a union-find pass.
                let mut best: Vec<Option<(u64, u64)>> = vec![None; state.parent.len()];
                for env in mb.take_incoming() {
                    let (_, root, new_parent, edge_id) = env.msg;
                    let local = (root - state.vstart) as usize;
                    if state.parent[local] == root && new_parent < root {
                        match best[local] {
                            Some((np, _)) if np <= new_parent => {}
                            _ => best[local] = Some((new_parent, edge_id)),
                        }
                    }
                }
                for (l, b) in best.into_iter().enumerate() {
                    if let Some((np, edge_id)) = b {
                        state.parent[l] = np;
                        state.forest.push(edge_id);
                        state.changed = true;
                    }
                }
                Step::Continue
            }
            4 => {
                for dst in 0..mb.nprocs() {
                    mb.send(dst, (3, u64::from(state.changed), 0, 0));
                }
                Step::Continue
            }
            _ => {
                let any = mb.take_incoming().iter().any(|e| e.msg.1 == 1);
                if any {
                    Step::Continue
                } else {
                    Step::Halt
                }
            }
        }
    }

    fn max_state_bytes(&self) -> usize {
        let vchunk = self.vmap.n.div_ceil(self.vmap.v).max(1);
        let echunk = self.m.div_ceil(self.vmap.v).max(1);
        256 + 8 * (vchunk + 2) + 24 * 2 * (echunk + 2) + 8 * (echunk + 2)
    }

    fn max_comm_bytes(&self) -> usize {
        // Vertex owners answer one reply per incident edge endpoint; with
        // skewed degree (star graphs) a single owner can see Θ(m) queries,
        // so the per-processor budget is sized on the total edge count.
        let vchunk = self.vmap.n.div_ceil(self.vmap.v).max(1);
        (25 + 16) * (2 * self.m + 2 * vchunk + self.vmap.v + 8) + 512
    }
}

/// Output of [`cgm_connected_components`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component label per vertex (the minimum vertex id of its component).
    pub label: Vec<u64>,
    /// Edge ids forming a spanning forest.
    pub forest_edges: Vec<u64>,
}

/// Connected components (labels = component minima) and a spanning forest
/// of an undirected graph on `n` vertices.
pub fn cgm_connected_components<E: Executor>(
    exec: &E,
    v: usize,
    n: usize,
    edges: &[(u64, u64)],
) -> AlgoResult<Components> {
    if v == 0 {
        return Err(AlgoError::Input("v must be >= 1".into()));
    }
    if n == 0 {
        return Ok(Components { label: Vec::new(), forest_edges: Vec::new() });
    }
    for &(a, b) in edges {
        if a as usize >= n || b as usize >= n {
            return Err(AlgoError::Input(format!("edge ({a},{b}) out of range")));
        }
    }
    let vmap = ChunkMap { n, v };
    let tagged: Vec<(u64, u64, u64)> =
        edges.iter().enumerate().map(|(i, &(a, b))| (a, b, i as u64)).collect();
    let echunks = distribute(tagged, v);
    let mut states = Vec::with_capacity(v);
    for (pid, edges) in echunks.into_iter().enumerate() {
        let vstart = vmap.chunk_start(pid) as u64;
        let vlen = vmap.chunk_len(pid);
        states.push(CcState {
            vstart,
            parent: (vstart..vstart + vlen as u64).collect(),
            edges,
            forest: Vec::new(),
            lookups: Vec::new(),
            changed: false,
        });
    }
    let prog = HookCompress { vmap, m: edges.len() };
    let res = exec.execute(&prog, states)?;
    let mut label = Vec::with_capacity(n);
    let mut candidates = Vec::new();
    for s in res.states {
        label.extend(s.parent);
        candidates.extend(s.forest);
    }
    candidates.sort_unstable();
    candidates.dedup();
    // Filter residual cycles among the O(n) candidate edges with a
    // union-find pass (driver glue, linear in the candidate count).
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut forest_edges = Vec::with_capacity(candidates.len());
    for id in candidates {
        let (a, b) = edges[id as usize];
        let (ra, rb) = (find(&mut parent, a as usize), find(&mut parent, b as usize));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
            forest_edges.push(id);
        }
    }
    Ok(Components { label, forest_edges })
}

/// Sequential reference: union-find with min-label extraction.
pub fn seq_connected_components(n: usize, edges: &[(u64, u64)]) -> Vec<u64> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }
    for &(a, b) in edges {
        let (ra, rb) = (find(&mut parent, a as usize), find(&mut parent, b as usize));
        if ra != rb {
            // Union by min id so labels are deterministic minima.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi] = lo;
        }
    }
    (0..n).map(|x| find(&mut parent, x) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_bsp::SeqExecutor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check(n: usize, edges: &[(u64, u64)], v: usize) {
        let want = seq_connected_components(n, edges);
        let got = cgm_connected_components(&SeqExecutor, v, n, edges).unwrap();
        assert_eq!(got.label, want);
        // The forest connects exactly what the graph connects: rebuild CC
        // from forest edges and compare.
        let forest: Vec<(u64, u64)> = got.forest_edges.iter().map(|&i| edges[i as usize]).collect();
        let rebuilt = seq_connected_components(n, &forest);
        assert_eq!(rebuilt, want, "forest spans differently");
        // Forest has exactly n - #components edges.
        let comps: std::collections::HashSet<u64> = want.iter().copied().collect();
        assert_eq!(forest.len(), n - comps.len(), "not a spanning forest");
    }

    #[test]
    fn path_and_cycle() {
        let path: Vec<(u64, u64)> = (0..9).map(|i| (i, i + 1)).collect();
        check(10, &path, 4);
        let mut cycle = path.clone();
        cycle.push((9, 0));
        check(10, &cycle, 4);
    }

    #[test]
    fn disconnected_components() {
        let edges = vec![(0, 1), (1, 2), (4, 5), (7, 8), (8, 9), (9, 7)];
        check(10, &edges, 3);
    }

    #[test]
    fn random_graphs_match_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..4 {
            let n = rng.gen_range(20..60);
            let m = rng.gen_range(5..100u32);
            let edges: Vec<(u64, u64)> = (0..m)
                .map(|_| (rng.gen_range(0..n as u64), rng.gen_range(0..n as u64)))
                .filter(|&(a, b)| a != b)
                .collect();
            check(n, &edges, 5);
        }
    }

    #[test]
    fn no_edges_all_singletons() {
        check(7, &[], 3);
    }

    #[test]
    fn parallel_edges_and_self_handling() {
        let edges = vec![(0, 1), (0, 1), (1, 0), (2, 3)];
        check(4, &edges, 2);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        assert!(matches!(
            cgm_connected_components(&SeqExecutor, 2, 3, &[(0, 9)]),
            Err(AlgoError::Input(_))
        ));
    }
}
