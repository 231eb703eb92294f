//! Howard's policy-iteration algorithm for the maximum cycle ratio.
//!
//! This is the algorithm the paper adopts (its reference [2],
//! Cochet-Terrasson et al.) to compute the cycle time of a timed marked
//! graph: the maximum over all cycles of `Σdelay / Σtokens`. It maintains a
//! *policy* (one outgoing edge per vertex), evaluates the unique cycle each
//! policy path leads to, and greedily improves the policy first by cycle
//! ratio and then by bias value until a fixed point. All arithmetic is
//! exact: ratios are canonical fractions and bias values are 128-bit
//! integers scaled by the ratio denominator.
//!
//! The solver runs per strongly connected component; cycles with zero
//! tokens (infinite ratio — structural deadlock) must be excluded by the
//! caller, which [`analysis`](crate::analysis) does with the token-free
//! cycle check.
//!
//! # Warm start
//!
//! Policy iteration converges from *any* initial policy. A solve therefore
//! starts each vertex from the edge a [`PolicyHint`] names — the converged
//! policy of an earlier solve of the same component — and falls back per
//! vertex to the maximum-delay seed. A cold solve is the same path with an
//! empty hint. After a small edit (one process's latency) the previous
//! optimum is usually still optimal or one improvement round away, so the
//! warm solve takes one or two rounds where the cold one takes dozens.
//!
//! # Canonical witness
//!
//! The start policy must not leak into the result, or a warm solve could
//! report a different critical cycle than a cold one. At convergence the
//! bias values are a potential under which every edge has a non-positive
//! reduced cost, and the *tight* edges (reduced cost exactly zero) that lie
//! inside a strongly connected component of the tight subgraph are
//! precisely the union of all critical cycles — a property of the graph,
//! whatever potential the iteration happened to end on. The witness is
//! read off that subgraph deterministically: it starts at the critical
//! edge with the lowest index and closes by a breadth-first search, in
//! edge-index order, from that edge's head back to its tail. Cold, warm,
//! incremental, and capped-fallback solves all share it, so their results
//! are identical by construction.

use crate::ids::TransitionId;
use crate::parametric::max_cycle_ratio_parametric;
use crate::ratio::Ratio;
use crate::ratio_graph::{EdgeIdx, RatioGraph};
use crate::scc::{tarjan_into, SccDecomposition, TarjanScratch};
use parx::{CancelToken, Cancelled};
use std::sync::atomic::{AtomicU64, Ordering};

/// A critical cycle with its exact ratio.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CycleRatioResult {
    pub ratio: Ratio,
    /// Edge indices of one cycle achieving the ratio, in traversal order.
    pub cycle_edges: Vec<EdgeIdx>,
}

/// Marks a vertex without a hinted head.
const NO_HEAD: u32 = u32::MAX;

/// Where Howard's policy iteration starts: for each transition, the head
/// transition of its policy edge in the last converged solve.
///
/// A hint is a plain value owned by whoever re-solves the same graph
/// repeatedly — [`IncrementalAnalysis`](crate::IncrementalAnalysis) across
/// session edits, an exploration run across its iterations. It names head
/// *transitions* rather than edges, so it stays meaningful when a channel
/// reorder re-lowers the graph and renumbers its places. A hint only
/// changes how many policy-improvement rounds a solve takes, never its
/// result: a vertex whose hinted head is missing or no longer adjacent
/// falls back to the cold seed, and the reported witness is canonical
/// (see the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyHint {
    /// `heads[v]` is the head vertex of `v`'s policy edge, or [`NO_HEAD`].
    heads: Vec<u32>,
}

impl PolicyHint {
    /// An empty hint: every solve through it starts cold.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts `t` from its edge toward `head` in the next solve. Howard
    /// converges from any start, so any choice is valid; this exists to
    /// exercise that claim.
    pub fn set_head(&mut self, t: TransitionId, head: TransitionId) {
        let v = t.index();
        if self.heads.len() <= v {
            self.heads.resize(v + 1, NO_HEAD);
        }
        self.heads[v] = u32::try_from(head.index()).expect("transition index fits u32");
    }

    fn head_of(&self, v: usize) -> Option<u32> {
        self.heads.get(v).copied().filter(|&h| h != NO_HEAD)
    }

    /// Records the converged policy of `members` (`heads[i]` belongs to
    /// `members[i]`).
    pub(crate) fn record(&mut self, members: &[u32], heads: impl IntoIterator<Item = u32>) {
        let needed = members.iter().max().map_or(0, |&v| v as usize + 1);
        if self.heads.len() < needed {
            self.heads.resize(needed, NO_HEAD);
        }
        for (&v, h) in members.iter().zip(heads) {
            self.heads[v as usize] = h;
        }
    }
}

static SOLVES: AtomicU64 = AtomicU64::new(0);
static ITERATIONS: AtomicU64 = AtomicU64::new(0);
static WARM_SOLVES: AtomicU64 = AtomicU64::new(0);
static CAPPED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide Howard counters (see [`howard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HowardStats {
    /// Component solves that ran policy iteration (components with at
    /// least one internal edge).
    pub solves: u64,
    /// Policy-improvement rounds across all solves.
    pub iterations: u64,
    /// Solves whose start policy took at least one edge from a hint.
    pub warm_solves: u64,
    /// Solves that hit the iteration cap and handed the component to the
    /// parametric solver.
    pub capped: u64,
}

impl HowardStats {
    /// Counter increments between `earlier` and `self` (both from
    /// [`howard_stats`], with `self` taken later).
    #[must_use]
    pub fn delta_since(&self, earlier: &HowardStats) -> HowardStats {
        HowardStats {
            solves: self.solves.saturating_sub(earlier.solves),
            iterations: self.iterations.saturating_sub(earlier.iterations),
            warm_solves: self.warm_solves.saturating_sub(earlier.warm_solves),
            capped: self.capped.saturating_sub(earlier.capped),
        }
    }
}

/// Snapshots the process-wide Howard counters. They are cumulative for
/// the process; ermesd exports them on `/metrics` and the CLI prints them
/// after `--trace-summary`. Per-run numbers are a
/// [`delta_since`](HowardStats::delta_since) of two snapshots.
#[must_use]
pub fn howard_stats() -> HowardStats {
    HowardStats {
        solves: SOLVES.load(Ordering::Relaxed),
        iterations: ITERATIONS.load(Ordering::Relaxed),
        warm_solves: WARM_SOLVES.load(Ordering::Relaxed),
        capped: CAPPED.load(Ordering::Relaxed),
    }
}

/// Integer width the policy iteration computes in.
///
/// The algorithm needs products of delays, tokens, and ratio components,
/// plus sums of up to `k + 1` such products (bias chains). `i128` is always
/// wide enough; when the per-component magnitude bounds prove `i64` cannot
/// overflow either, the solver runs the *same* arithmetic in `i64` — the
/// values are identical integers, so the narrow path is bit-identical to
/// the wide one, just ~2-3× faster on the hot scans.
trait WideInt: Copy + Ord + Default + std::ops::Add<Output = Self> {
    fn mul(a: i64, b: i64) -> Self;
}

impl WideInt for i64 {
    #[inline]
    fn mul(a: i64, b: i64) -> i64 {
        // Callers dispatch here only when the component-wide bounds prove
        // this cannot overflow.
        a * b
    }
}

impl WideInt for i128 {
    #[inline]
    fn mul(a: i64, b: i64) -> i128 {
        i128::from(a) * i128::from(b)
    }
}

/// Reduced cost of an edge under ratio `num/den`, scaled by `den`.
#[inline]
fn reduced_cost<W: WideInt>(delay: i64, tokens: i64, ratio: Ratio) -> W {
    W::mul(delay, ratio.denom()) + W::mul(-ratio.numer(), tokens)
}

/// Exact `a > b` by cross multiplication.
#[inline]
fn ratio_gt<W: WideInt>(a: Ratio, b: Ratio) -> bool {
    W::mul(a.numer(), b.denom()) > W::mul(b.numer(), a.denom())
}

/// A component-internal edge, copied into contiguous scratch memory.
///
/// The policy iteration reads each edge's head and weights thousands of
/// times; chasing them through `graph.edges[out_list[i]]` costs two
/// dependent loads per read. Copying the component's edges into one dense
/// array (with heads already relabeled to local indices) makes every hot
/// read a single sequential load. The values are verbatim copies, so the
/// iteration computes exactly what it would on the original arrays.
#[derive(Debug, Clone, Copy, Default)]
struct LocalEdge {
    /// Head vertex, in component-local indexing.
    to: u32,
    /// Original edge index, for witness extraction.
    global: u32,
    delay: i64,
    tokens: i64,
}

/// Reusable working memory for [`solve_component`].
///
/// One solve of a `k`-vertex component needs a dozen short-lived vectors;
/// allocating them per call dominates the runtime of small solves. Holding
/// a scratch across calls (as the incremental analyzer does per session)
/// makes repeated solves allocation-free in the steady state, witness
/// extraction included. The scratch carries **no state into a solve** —
/// every field is (re)initialized before use — so reusing one never
/// changes a result. Out of a solve it carries exactly one thing: the
/// converged policy, read back with [`Self::policy_heads`] until the next
/// solve starts. Where the next solve *starts* is the caller's
/// [`PolicyHint`], never the scratch.
#[derive(Debug, Default)]
pub(crate) struct HowardScratch {
    /// Global vertex -> local index within the current component. Sized to
    /// the graph's node count; entries for non-members are stale and never
    /// read (all reads go through edges internal to the component).
    local: Vec<usize>,
    /// CSR offsets of internal out-edges per local vertex (`k + 1` entries).
    out_start: Vec<usize>,
    /// CSR edge list: internal out-edges grouped by local source vertex,
    /// in ascending edge-index order within each group.
    edges: Vec<LocalEdge>,
    /// Write cursors for the CSR fill pass.
    cursor: Vec<usize>,
    /// Current policy: one index into [`Self::edges`] per local vertex.
    policy: Vec<usize>,
    /// Whether [`Self::policy`] holds the converged policy of the last
    /// solve (false while solving, after a cap, and for acyclic
    /// components).
    converged: bool,
    /// Policy-improvement rounds the last solve took (the cap if capped).
    rounds: usize,
    lambda: Vec<Ratio>,
    /// Bias values for the narrow (overflow-proven-impossible) path.
    bias64: Vec<i64>,
    /// Bias values for the wide path, and the capped fallback's potential.
    bias128: Vec<i128>,
    /// Evaluation state: 0 = unvisited, 1 = on current path, 2 = resolved.
    state: Vec<u8>,
    /// Current evaluation walk, reused across starts and iterations.
    path: Vec<usize>,
    /// Per local edge: zero reduced cost under the final potential.
    tight: Vec<bool>,
    /// Tarjan over the tight subgraph.
    tarjan: TarjanScratch,
    /// Witness BFS: `(edge, predecessor)` that discovered each vertex, and
    /// the FIFO queue.
    bfs_parent: Vec<(usize, usize)>,
    bfs_queue: Vec<usize>,
}

impl HowardScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// The converged policy of the last solve as one head vertex per
    /// member (in `members` order), or `None` if that solve did not
    /// converge. `members` must be the list the solve ran on.
    pub fn policy_heads<'a>(
        &'a self,
        members: &'a [u32],
    ) -> Option<impl Iterator<Item = u32> + 'a> {
        self.converged.then(|| {
            debug_assert_eq!(self.policy.len(), members.len());
            self.policy
                .iter()
                .map(|&e| members[self.edges[e].to as usize])
        })
    }
}

thread_local! {
    /// Per-thread scratch arena shared by every one-shot analysis on that
    /// thread. A `parx` worker draining the per-SCC job queue reuses one
    /// arena across all the components it solves (and the serial path
    /// reuses it across whole analyses), so the steady state allocates
    /// nothing per solve. Safe because no state flows from one solve into
    /// the next through the scratch — see [`HowardScratch`].
    static SCRATCH: std::cell::RefCell<HowardScratch> =
        std::cell::RefCell::new(HowardScratch::new());
}

/// Runs `f` with the calling thread's scratch arena.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut HowardScratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

#[cfg(test)]
thread_local! {
    /// Test hook: components with exactly this many vertices get an
    /// iteration cap of zero, forcing the parametric hand-off.
    pub(crate) static FORCE_CAP_AT_NODES: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// The policy-iteration budget for a `k`-vertex component.
fn iteration_cap(k: usize) -> usize {
    #[cfg(test)]
    if FORCE_CAP_AT_NODES.with(std::cell::Cell::get) == Some(k) {
        return 0;
    }
    64 + 8 * k
}

/// Solves one strongly connected component exactly: its maximum cycle
/// ratio and the canonical critical-cycle witness.
///
/// `members` lists the vertices of the component; all cycles through them
/// are assumed to have positive token sums. Policy iteration starts from
/// `hint` (per vertex, falling back to the maximum-delay seed). If it hits
/// its iteration cap, this component alone is handed to the parametric
/// solver — counted in [`howard_stats`] and marked `capped` on the
/// current trace span — and the witness is extracted the same way, so the
/// result does not depend on which path produced it.
///
/// Returns `Ok(None)` if the component contains no cycle (single vertex
/// without self-loop), and `Err(Cancelled)` when `cancel` fires between
/// policy-improvement rounds — the poll granularity that bounds
/// cancellation latency to one round.
pub(crate) fn solve_component(
    scratch: &mut HowardScratch,
    graph: &RatioGraph,
    scc: &SccDecomposition,
    members: &[u32],
    hint: &PolicyHint,
    cancel: Option<&CancelToken>,
) -> Result<Option<CycleRatioResult>, Cancelled> {
    let k = members.len();
    let comp = scc.component[members[0] as usize];
    scratch.converged = false;
    let HowardScratch {
        local,
        out_start,
        edges,
        cursor,
        policy,
        converged,
        rounds,
        lambda,
        bias64,
        bias128,
        state,
        path,
        tight,
        ..
    } = scratch;

    // Local relabeling. Stale entries for other vertices are never read:
    // every lookup goes through an edge whose endpoints are in `members`.
    if local.len() < graph.node_count {
        local.resize(graph.node_count, usize::MAX);
    }
    for (i, &v) in members.iter().enumerate() {
        local[v as usize] = i;
    }

    // Internal edges only, in CSR form. Grouping by counting sort over the
    // ascending edge-index scan keeps each vertex's edges in ascending
    // edge-index order, which the witness search relies on.
    out_start.clear();
    out_start.resize(k + 1, 0);
    for e in &graph.edges {
        if scc.component[e.from] == comp && scc.component[e.to] == comp {
            out_start[local[e.from] + 1] += 1;
        }
    }
    for i in 0..k {
        out_start[i + 1] += out_start[i];
    }
    let edge_total = out_start[k];
    if edge_total == 0 {
        return Ok(None);
    }
    cursor.clear();
    cursor.extend_from_slice(&out_start[..k]);
    edges.clear();
    edges.resize(edge_total, LocalEdge::default());
    for (idx, e) in graph.edges.iter().enumerate() {
        if scc.component[e.from] == comp && scc.component[e.to] == comp {
            let u = local[e.from];
            edges[cursor[u]] = LocalEdge {
                to: local[e.to] as u32,
                global: idx as u32,
                delay: e.delay,
                tokens: e.tokens,
            };
            cursor[u] += 1;
        }
    }
    // In a non-trivial SCC every vertex has an internal out-edge; a trivial
    // SCC (single vertex) only qualifies with a self-loop, checked above.
    debug_assert!((0..k).all(|u| out_start[u + 1] > out_start[u]));

    // Start each vertex from its hinted edge, else from its maximum-delay
    // out-edge (first one on ties). Howard improves the policy
    // monotonically upward, so starting near the heavy edges reaches the
    // critical cycle in fewer rounds than the arbitrary first-edge seed.
    let mut warm = false;
    policy.clear();
    for (u, &v) in members.iter().enumerate() {
        let out = out_start[u]..out_start[u + 1];
        let hinted = hint
            .head_of(v as usize)
            .and_then(|h| heaviest_edge(edges, out.clone(), |e| members[e.to as usize] == h));
        warm |= hinted.is_some();
        policy.push(hinted.unwrap_or_else(|| {
            heaviest_edge(edges, out, |_| true).expect("every member has an internal out-edge")
        }));
    }
    SOLVES.fetch_add(1, Ordering::Relaxed);
    if warm {
        WARM_SOLVES.fetch_add(1, Ordering::Relaxed);
    }
    lambda.clear();
    lambda.resize(k, Ratio::zero());
    state.clear();
    state.resize(k, 0u8);

    // Magnitude bounds over the component decide the arithmetic width.
    // Every ratio is a (sub)cycle delay sum over a (sub)cycle token sum,
    // so numerators are bounded by the component's total delay and
    // denominators by its total tokens; reduced costs by `d·den + num·t`;
    // bias chains by `k + 1` reduced costs. When all of it fits `i64`
    // comfortably, the narrow path computes the identical integers.
    let mut d_max: i128 = 0;
    let mut t_max: i128 = 0;
    let mut d_sum: i128 = 0;
    let mut t_sum: i128 = 0;
    for e in edges.iter() {
        d_max = d_max.max(i128::from(e.delay));
        t_max = t_max.max(i128::from(e.tokens));
        d_sum += i128::from(e.delay);
        t_sum += i128::from(e.tokens);
    }
    let num_max = d_sum.max(1);
    let den_max = t_sum.max(1);
    let rc_max = d_max * den_max + num_max * t_max;
    let bias_max = (k as i128 + 1) * rc_max;
    let limit = i128::from(i64::MAX) / 4;
    let cap = iteration_cap(k);
    let optimum = if bias_max < limit && num_max * den_max < limit {
        bias64.clear();
        bias64.resize(k, 0i64);
        let rounds = iterate::<i64>(
            edges, out_start, policy, lambda, bias64, state, path, cap, cancel,
        )?;
        rounds.map(|r| (r, mark_tight(edges, out_start, bias64, lambda[0], tight)))
    } else {
        bias128.clear();
        bias128.resize(k, 0i128);
        let rounds = iterate::<i128>(
            edges, out_start, policy, lambda, bias128, state, path, cap, cancel,
        )?;
        rounds.map(|r| (r, mark_tight(edges, out_start, bias128, lambda[0], tight)))
    };
    *converged = optimum.is_some();
    *rounds = optimum.map_or(cap, |(r, _)| r);
    let ratio = match optimum {
        Some((_, ratio)) => ratio,
        None => {
            // Iteration cap: this component alone goes to the parametric
            // solver (poll the token once more before committing to it).
            trace::attr("capped", 1usize);
            CAPPED.fetch_add(1, Ordering::Relaxed);
            if let Some(token) = cancel {
                token.check()?;
            }
            let mut sub = RatioGraph::with_nodes(k);
            for u in 0..k {
                for e in &edges[out_start[u]..out_start[u + 1]] {
                    sub.add_edge(u, e.to as usize, e.delay, e.tokens, None);
                }
            }
            let ratio = max_cycle_ratio_parametric(&sub)
                .expect("a component with internal edges has a cycle")
                .ratio;
            longest_potential(edges, out_start, ratio, bias128);
            mark_tight(edges, out_start, bias128, ratio, tight)
        }
    };
    let result = canonical_witness(scratch);
    debug_assert_eq!(result.ratio, ratio, "the witness achieves the optimum");
    Ok(Some(result))
}

/// Among the edges of `out` accepted by `keep`, the one maximizing
/// `delay / (tokens + 1)`, first on ties.
fn heaviest_edge(
    edges: &[LocalEdge],
    out: std::ops::Range<usize>,
    keep: impl Fn(&LocalEdge) -> bool,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for cand in out {
        let e = &edges[cand];
        if !keep(e) {
            continue;
        }
        // d1/(t1+1) > d2/(t2+1) by cross multiplication.
        if best.is_none_or(|b| {
            let b = &edges[b];
            i128::from(e.delay) * i128::from(b.tokens + 1)
                > i128::from(b.delay) * i128::from(e.tokens + 1)
        }) {
            best = Some(cand);
        }
    }
    best
}

/// The policy-iteration loop: evaluate the current policy, then run one
/// fused improvement sweep that switches each vertex's policy to any
/// out-edge offering a lexicographically larger `(cycle ratio, bias)`,
/// until a fixed point or `cap` rounds. Returns the number of rounds on
/// convergence, `None` on hitting the cap.
///
/// At convergence `lambda` is the same optimal ratio at every vertex (in a
/// strongly connected component no edge may lead to a larger one) and
/// `bias` is a potential under which no edge has a positive reduced cost.
///
/// The improvement sweep alternates direction by iteration parity. Within
/// one sweep an improvement at vertex `v` is visible to every vertex
/// scanned after it (Gauss–Seidel), so values propagate arbitrarily far
/// along edges oriented *with* the scan in a single round but only one
/// step per round against it; alternating the direction lets chains of
/// either orientation collapse in one round each, roughly halving the
/// round count on pipeline-shaped graphs. The direction schedule is a
/// pure function of the iteration index, so the solve stays
/// deterministic.
#[allow(clippy::too_many_arguments)]
fn iterate<W: WideInt>(
    edges: &[LocalEdge],
    out_start: &[usize],
    policy: &mut [usize],
    lambda: &mut [Ratio],
    bias: &mut [W],
    state: &mut [u8],
    path: &mut Vec<usize>,
    cap: usize,
    cancel: Option<&CancelToken>,
) -> Result<Option<usize>, Cancelled> {
    let k = policy.len();
    for iteration in 0..cap {
        if let Some(token) = cancel {
            token.check()?;
        }
        // --- Evaluate the current policy. -------------------------------
        state.iter_mut().for_each(|s| *s = 0);
        for start in 0..k {
            if state[start] != 0 {
                continue;
            }
            // Walk the functional graph recording the path.
            path.clear();
            path.push(start);
            state[start] = 1;
            loop {
                let v = *path.last().expect("path non-empty");
                let w = edges[policy[v]].to as usize;
                match state[w] {
                    0 => {
                        state[w] = 1;
                        path.push(w);
                    }
                    1 => {
                        // Found a new policy cycle starting at `w`.
                        let cycle_start = path
                            .iter()
                            .position(|&x| x == w)
                            .expect("on-path node is in path");
                        let cycle = &path[cycle_start..];
                        let mut delay_sum: i64 = 0;
                        let mut token_sum: i64 = 0;
                        for &u in cycle {
                            let e = &edges[policy[u]];
                            delay_sum += e.delay;
                            token_sum += e.tokens;
                        }
                        debug_assert!(token_sum > 0, "zero-token cycle must be pre-excluded");
                        let ratio = Ratio::new(delay_sum, token_sum);
                        // Bias around the cycle: x(u) = rc(u) + x(next(u)),
                        // anchored at x(cycle[0]) = 0.
                        lambda[cycle[0]] = ratio;
                        bias[cycle[0]] = W::default();
                        for i in (1..cycle.len()).rev() {
                            let u = cycle[i];
                            let e = &edges[policy[u]];
                            let next = e.to as usize;
                            lambda[u] = ratio;
                            bias[u] = reduced_cost::<W>(e.delay, e.tokens, ratio) + bias[next];
                        }
                        for &u in cycle {
                            state[u] = 2;
                        }
                        // Prefix of the path drains into the cycle.
                        for i in (0..cycle_start).rev() {
                            let u = path[i];
                            let e = &edges[policy[u]];
                            let next = e.to as usize;
                            lambda[u] = lambda[next];
                            bias[u] = reduced_cost::<W>(e.delay, e.tokens, lambda[u]) + bias[next];
                            state[u] = 2;
                        }
                        break;
                    }
                    _ => {
                        // Path drains into an already-resolved region.
                        for i in (0..path.len()).rev() {
                            let u = path[i];
                            let e = &edges[policy[u]];
                            let next = e.to as usize;
                            lambda[u] = lambda[next];
                            bias[u] = reduced_cost::<W>(e.delay, e.tokens, lambda[u]) + bias[next];
                            state[u] = 2;
                        }
                        break;
                    }
                }
            }
        }

        // --- Improve: lexicographically by (ratio, bias). ---------------
        // One fused sweep switches `u`'s policy to any out-edge whose head
        // offers a strictly larger cycle ratio, or — at equal ratio — a
        // strictly larger chained bias. On a ratio adoption the bias is
        // set to the chained value along the new edge so later
        // comparisons in the same sweep stay meaningful (the next
        // evaluation recomputes the exact values either way). Improvements
        // made earlier in the sweep are visible to vertices scanned later
        // (Gauss–Seidel), and the scan direction alternates by iteration
        // parity so chains of either orientation collapse quickly.
        let forward = iteration % 2 == 0;
        let mut improved = false;
        for step in 0..k {
            let u = if forward { step } else { k - 1 - step };
            let out_edges = edges[..out_start[u + 1]].iter().enumerate();
            for (cand, e) in out_edges.skip(out_start[u]) {
                let v = e.to as usize;
                if lambda[v] != lambda[u] {
                    // Canonical form: distinct fields <=> distinct values,
                    // so the cheap inequality gates the multiplication.
                    if ratio_gt::<W>(lambda[v], lambda[u]) {
                        lambda[u] = lambda[v];
                        bias[u] = reduced_cost::<W>(e.delay, e.tokens, lambda[v]) + bias[v];
                        policy[u] = cand;
                        improved = true;
                    }
                } else {
                    let candidate = reduced_cost::<W>(e.delay, e.tokens, lambda[u]) + bias[v];
                    if candidate > bias[u] {
                        bias[u] = candidate;
                        policy[u] = cand;
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            trace::attr("iters", iteration + 1);
            ITERATIONS.fetch_add(iteration as u64 + 1, Ordering::Relaxed);
            debug_assert!(
                lambda.iter().all(|&l| l == lambda[0]),
                "SCC optimum is uniform"
            );
            return Ok(Some(iteration + 1));
        }
    }
    trace::attr("iters", cap);
    ITERATIONS.fetch_add(cap as u64, Ordering::Relaxed);
    Ok(None)
}

/// Marks every edge whose reduced cost under `ratio` is exactly balanced
/// by `potential` (`rc(u→v) + x(v) == x(u)`), and returns `ratio`.
/// `potential` must admit no edge with `rc(u→v) + x(v) > x(u)`.
fn mark_tight<W: WideInt>(
    edges: &[LocalEdge],
    out_start: &[usize],
    potential: &[W],
    ratio: Ratio,
    tight: &mut Vec<bool>,
) -> Ratio {
    tight.clear();
    tight.resize(edges.len(), false);
    for u in 0..potential.len() {
        for i in out_start[u]..out_start[u + 1] {
            let e = &edges[i];
            let slack = reduced_cost::<W>(e.delay, e.tokens, ratio) + potential[e.to as usize];
            debug_assert!(slack <= potential[u], "potential admits no positive edge");
            tight[i] = slack == potential[u];
        }
    }
    ratio
}

/// Longest-path potential under the optimal `ratio`: `x(u)` is the
/// largest reduced-cost sum of any walk from `u` (the empty walk counts,
/// so `x ≥ 0`). Bellman–Ford relaxation terminates because no cycle has a
/// positive reduced-cost sum at the maximum ratio. Only the capped
/// fallback needs this; a converged policy iteration supplies its bias.
fn longest_potential(edges: &[LocalEdge], out_start: &[usize], ratio: Ratio, x: &mut Vec<i128>) {
    let k = out_start.len() - 1;
    x.clear();
    x.resize(k, 0);
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..k {
            for e in &edges[out_start[u]..out_start[u + 1]] {
                let cand = reduced_cost::<i128>(e.delay, e.tokens, ratio) + x[e.to as usize];
                if cand > x[u] {
                    x[u] = cand;
                    changed = true;
                }
            }
        }
    }
}

/// The canonical critical cycle of the component in `scratch`, read off
/// the tight edges (see the [module docs](self)).
///
/// An edge lies on a critical cycle exactly when it is tight and both its
/// endpoints share a strongly connected component of the tight subgraph:
/// around any tight cycle the reduced costs telescope to zero, so its
/// ratio is the optimum; and around a critical cycle they sum to zero
/// while none is positive, so every edge on it is tight. The witness
/// starts at the critical edge with the lowest edge index and returns to
/// its tail along the breadth-first shortest path through critical edges,
/// scanning each vertex's edges in ascending edge-index order.
fn canonical_witness(scratch: &mut HowardScratch) -> CycleRatioResult {
    const NONE: usize = usize::MAX;
    let HowardScratch {
        out_start,
        edges,
        tight,
        tarjan,
        bfs_parent,
        bfs_queue,
        ..
    } = scratch;
    let k = out_start.len() - 1;

    tarjan_into(
        tarjan,
        k,
        |v| out_start[v]..out_start[v + 1],
        |_, i| tight[i].then_some(edges[i].to as usize),
    );
    let tight_comp = &tarjan.component;
    let critical =
        |u: usize, i: usize| tight[i] && tight_comp[edges[i].to as usize] == tight_comp[u];

    // The critical edge with the lowest global index starts the cycle.
    let mut start: Option<(usize, usize)> = None;
    for u in 0..k {
        for i in out_start[u]..out_start[u + 1] {
            if critical(u, i) && start.is_none_or(|(_, s)| edges[i].global < edges[s].global) {
                start = Some((u, i));
            }
        }
    }
    let (tail, first) = start.expect("a converged component has a critical cycle");
    let head = edges[first].to as usize;

    // Breadth-first search from the head back to the tail.
    let mut cycle_edges = vec![edges[first].global as EdgeIdx];
    let (mut delay_sum, mut token_sum) = (edges[first].delay, edges[first].tokens);
    if head != tail {
        bfs_parent.clear();
        bfs_parent.resize(k, (NONE, NONE));
        bfs_parent[head] = (first, tail);
        bfs_queue.clear();
        bfs_queue.push(head);
        let mut cursor = 0;
        'search: while cursor < bfs_queue.len() {
            let w = bfs_queue[cursor];
            cursor += 1;
            let out_edges = edges[..out_start[w + 1]].iter().enumerate();
            for (i, e) in out_edges.skip(out_start[w]) {
                let x = e.to as usize;
                if critical(w, i) && bfs_parent[x].0 == NONE {
                    bfs_parent[x] = (i, w);
                    if x == tail {
                        break 'search;
                    }
                    bfs_queue.push(x);
                }
            }
        }
        let mid = cycle_edges.len();
        let mut v = tail;
        while v != head {
            let (i, pred) = bfs_parent[v];
            debug_assert_ne!(i, NONE, "the tail is reachable within its tight component");
            cycle_edges.push(edges[i].global as EdgeIdx);
            delay_sum += edges[i].delay;
            token_sum += edges[i].tokens;
            v = pred;
        }
        cycle_edges[mid..].reverse();
    }
    CycleRatioResult {
        ratio: Ratio::new(delay_sum, token_sum),
        cycle_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::tarjan;

    fn solve_with(g: &RatioGraph, hint: &PolicyHint) -> Option<CycleRatioResult> {
        let scc = tarjan(g);
        let groups = scc.groups();
        let mut best: Option<CycleRatioResult> = None;
        for c in 0..groups.len() {
            let r =
                with_thread_scratch(|s| solve_component(s, g, &scc, groups.group(c), hint, None))
                    .expect("not cancelled");
            if let Some(r) = r {
                if best.as_ref().is_none_or(|b| r.ratio > b.ratio) {
                    best = Some(r);
                }
            }
        }
        best
    }

    fn solve(g: &RatioGraph) -> Option<CycleRatioResult> {
        solve_with(g, &PolicyHint::new())
    }

    /// A hint starting every vertex at its `pick`-th out-edge.
    fn hint_picking(g: &RatioGraph, pick: usize) -> PolicyHint {
        let mut hint = PolicyHint::new();
        for v in 0..g.node_count {
            let out = g.out(v);
            if !out.is_empty() {
                let head = g.edges[out[pick % out.len()] as usize].to;
                hint.set_head(TransitionId::from_index(v), TransitionId::from_index(head));
            }
        }
        hint
    }

    #[test]
    fn cancelled_token_stops_the_solve() {
        use parx::{CancelReason, CancelToken};
        let mut g = RatioGraph::with_nodes(2);
        g.add_edge(0, 1, 1, 1, None);
        g.add_edge(1, 0, 1, 1, None);
        let scc = tarjan(&g);
        let groups = scc.groups();
        let token = CancelToken::new();
        token.cancel(CancelReason::Disconnected);
        let err = with_thread_scratch(|s| {
            solve_component(
                s,
                &g,
                &scc,
                groups.group(0),
                &PolicyHint::new(),
                Some(&token),
            )
        })
        .expect_err("token already cancelled");
        assert_eq!(err.reason, CancelReason::Disconnected);
    }

    #[test]
    fn single_self_loop() {
        let mut g = RatioGraph::with_nodes(1);
        g.add_edge(0, 0, 7, 2, None);
        let r = solve(&g).expect("cycle exists");
        assert_eq!(r.ratio, Ratio::new(7, 2));
        assert_eq!(r.cycle_edges, vec![0]);
    }

    #[test]
    fn picks_worse_of_two_loops() {
        let mut g = RatioGraph::with_nodes(2);
        g.add_edge(0, 0, 3, 1, None); // ratio 3
        g.add_edge(1, 1, 7, 2, None); // ratio 3.5  <- critical
        g.add_edge(0, 1, 0, 1, None);
        let r = solve(&g).expect("cycles exist");
        assert_eq!(r.ratio, Ratio::new(7, 2));
    }

    #[test]
    fn two_cycles_sharing_a_vertex() {
        let mut g = RatioGraph::with_nodes(3);
        // Cycle A: 0 -> 1 -> 0 with delay 10, tokens 2 (ratio 5).
        g.add_edge(0, 1, 4, 1, None);
        g.add_edge(1, 0, 6, 1, None);
        // Cycle B: 0 -> 2 -> 0 with delay 9, tokens 1 (ratio 9) <- critical.
        g.add_edge(0, 2, 4, 0, None);
        g.add_edge(2, 0, 5, 1, None);
        let r = solve(&g).expect("cycles exist");
        assert_eq!(r.ratio, Ratio::new(9, 1));
        assert_eq!(r.cycle_edges, vec![2, 3]);
    }

    #[test]
    fn critical_cycle_witness_is_consistent() {
        let mut g = RatioGraph::with_nodes(4);
        g.add_edge(0, 1, 2, 1, None);
        g.add_edge(1, 2, 3, 0, None);
        g.add_edge(2, 0, 4, 1, None);
        g.add_edge(2, 3, 1, 0, None);
        g.add_edge(3, 2, 8, 1, None);
        let r = solve(&g).expect("cycles exist");
        // Cycle 2->3->2: ratio 9/1; cycle 0->1->2->0: ratio 9/2.
        assert_eq!(r.ratio, Ratio::new(9, 1));
        // Witness edges must form a closed walk achieving the ratio.
        let d: i64 = r.cycle_edges.iter().map(|&e| g.edges[e].delay).sum();
        let w: i64 = r.cycle_edges.iter().map(|&e| g.edges[e].tokens).sum();
        assert_eq!(Ratio::new(d, w), r.ratio);
        for (i, &e) in r.cycle_edges.iter().enumerate() {
            let next = r.cycle_edges[(i + 1) % r.cycle_edges.len()];
            assert_eq!(g.edges[e].to, g.edges[next].from);
        }
    }

    #[test]
    fn acyclic_graph_returns_none() {
        let mut g = RatioGraph::with_nodes(3);
        g.add_edge(0, 1, 5, 1, None);
        g.add_edge(1, 2, 5, 1, None);
        assert!(solve(&g).is_none());
    }

    #[test]
    fn parallel_edges_are_considered() {
        let mut g = RatioGraph::with_nodes(2);
        g.add_edge(0, 1, 1, 1, None);
        g.add_edge(1, 0, 1, 1, None); // ratio 1
        g.add_edge(1, 0, 9, 1, None); // ratio 5 with first edge <- critical
        let r = solve(&g).expect("cycles exist");
        assert_eq!(r.ratio, Ratio::new(10, 2));
        assert_eq!(r.cycle_edges, vec![0, 2]);
    }

    #[test]
    fn larger_ring_with_cross_chords() {
        // Ring of 6 with delay 1 per edge and two tokens: ratio 3.
        // A chord creating a tighter loop of delay 15 over 1 token: 15.
        let mut g = RatioGraph::with_nodes(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6, 1, i64::from(i <= 1), None);
        }
        g.add_edge(3, 1, 13, 0, None);
        g.add_edge(1, 3, 2, 1, None);
        let r = solve(&g).expect("cycles exist");
        assert_eq!(r.ratio, Ratio::new(15, 1));
    }

    #[test]
    fn two_equal_critical_cycles_yield_the_lowest_edge_cycle_from_any_start() {
        // Two ratio-4 cycles through vertex 0: A = 0->1->0 (edges 2, 3)
        // and B = 0->2->0 (edges 0, 1), plus a ratio-2 loop. The witness
        // is the critical cycle through the lowest critical edge, 0, and
        // it starts there — whichever cycle the policy settles on.
        let mut g = RatioGraph::with_nodes(4);
        g.add_edge(0, 2, 5, 1, None); // 0  B
        g.add_edge(2, 0, 3, 1, None); // 1  B
        g.add_edge(0, 1, 6, 1, None); // 2  A
        g.add_edge(1, 0, 2, 1, None); // 3  A
        g.add_edge(1, 3, 1, 1, None); // 4
        g.add_edge(3, 1, 3, 1, None); // 5  ratio-2 loop
        let cold = solve(&g).expect("cycles exist");
        assert_eq!(cold.ratio, Ratio::new(4, 1));
        assert_eq!(cold.cycle_edges, vec![0, 1]);
        for pick in 0..3 {
            assert_eq!(
                solve_with(&g, &hint_picking(&g, pick)),
                Some(cold.clone()),
                "pick {pick}"
            );
        }
    }

    #[test]
    fn witness_closes_by_the_shortest_critical_path() {
        // Every edge is critical (all ratio-1 cycles with one token per
        // edge and unit delays). The lowest edge 0 -> 1 closes through
        // the direct chord 1 -> 0 (edge 3), not the long way round.
        let mut g = RatioGraph::with_nodes(3);
        g.add_edge(0, 1, 1, 1, None); // 0
        g.add_edge(1, 2, 1, 1, None); // 1
        g.add_edge(2, 0, 1, 1, None); // 2
        g.add_edge(1, 0, 1, 1, None); // 3
        let r = solve(&g).expect("cycles exist");
        assert_eq!(r.cycle_edges, vec![0, 3]);
        assert_eq!(solve_with(&g, &hint_picking(&g, 1)), Some(r));
    }

    #[test]
    fn warm_start_from_the_converged_policy_takes_one_round() {
        let mut g = RatioGraph::with_nodes(8);
        for i in 0..8 {
            g.add_edge(
                i,
                (i + 1) % 8,
                1 + (i as i64 * 7) % 5,
                i64::from(i % 3 == 0),
                None,
            );
            g.add_edge(i, (i + 3) % 8, (i as i64 * 5) % 9, 1, None);
        }
        let scc = tarjan(&g);
        let members = scc.groups().group(0).to_vec();
        assert_eq!(members.len(), 8);
        let mut scratch = HowardScratch::new();
        let mut hint = PolicyHint::new();
        let cold =
            solve_component(&mut scratch, &g, &scc, &members, &hint, None).expect("not cancelled");
        assert!(scratch.rounds > 1, "the cold seed is not already optimal");
        hint.record(&members, scratch.policy_heads(&members).expect("converged"));
        let warm =
            solve_component(&mut scratch, &g, &scc, &members, &hint, None).expect("not cancelled");
        assert_eq!(scratch.rounds, 1);
        assert_eq!(warm, cold);
    }

    #[test]
    fn capped_component_falls_back_to_the_same_result() {
        let mut g = RatioGraph::with_nodes(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5, 2 + i as i64, i64::from(i != 2), None);
        }
        g.add_edge(3, 1, 9, 1, None);
        let converged = solve(&g).expect("cycles exist");
        FORCE_CAP_AT_NODES.with(|c| c.set(Some(5)));
        let capped = solve(&g);
        FORCE_CAP_AT_NODES.with(|c| c.set(None));
        assert_eq!(capped, Some(converged));
    }

    #[test]
    fn scratch_reuse_across_mismatched_components_is_bit_identical() {
        // Solve a large component, then a small one, then the large one
        // again with the *same* scratch; every answer must match a
        // fresh-scratch solve bit for bit.
        let mut big = RatioGraph::with_nodes(10);
        for i in 0..10 {
            g_edge(&mut big, i, (i + 1) % 10, 1 + i as i64, i64::from(i == 0));
        }
        big.add_edge(4, 1, 17, 1, None);
        let mut small = RatioGraph::with_nodes(2);
        small.add_edge(0, 1, 3, 1, None);
        small.add_edge(1, 0, 2, 1, None);

        let scc_big = tarjan(&big);
        let scc_small = tarjan(&small);
        let mem_big = scc_big.groups();
        let mem_small = scc_small.groups();

        let hint = PolicyHint::new();
        let mut scratch = HowardScratch::new();
        for _ in 0..3 {
            for (g, scc, members) in [
                (&big, &scc_big, mem_big.group(0)),
                (&small, &scc_small, mem_small.group(0)),
            ] {
                let reused = solve_component(&mut scratch, g, scc, members, &hint, None)
                    .expect("not cancelled");
                let fresh =
                    solve_component(&mut HowardScratch::new(), g, scc, members, &hint, None)
                        .expect("not cancelled");
                assert_eq!(reused, fresh);
            }
        }
    }

    fn g_edge(g: &mut RatioGraph, from: usize, to: usize, delay: i64, tokens: i64) {
        g.add_edge(from, to, delay, tokens, None);
    }
}
