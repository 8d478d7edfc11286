//! Exact branch-and-bound search over the mapper's placement/routing
//! state space.
//!
//! For one candidate II the search enumerates, in a canonical
//! deterministic node order, every `(PE, start cycle)` assignment the
//! heuristic scheduler's own time-window formula admits, committing
//! placements and routes into the shared [`State`] through the shared
//! [`route_value`] oracle and undoing them with an exact trail on
//! backtrack. A completed assignment is a feasible mapping; an
//! exhausted tree is an infeasibility proof *for this search space*:
//! the window formula, the canonical placement order, and the greedy
//! deterministic router are all part of the statement (see DESIGN.md,
//! "Mapper backends & portfolio"). Because [`ExactBackend`] warm-starts
//! from the heuristic and only sweeps IIs *below* the heuristic's
//! answer, it never returns a worse mapping than the heuristic, and
//! its "proven optimal" claim means: no II the heuristic could ever
//! reach was missed by the proof.
//!
//! Pruning:
//!
//! * **Time windows** — producer/consumer-derived bounds cap each
//!   node's start-cycle domain (identical formula to the heuristic).
//! * **Resource capacity** — per-OpKind counters of unplaced ops vs.
//!   still-free capable compute slots; a placement that leaves some
//!   kind with more ops than slots is cut before routing.
//! * **Step cap** — a deterministic limit
//!   ([`MapperConfig::exact_steps_per_ii`]) downgrades a would-be
//!   proof to [`IiSearch::Exhausted`] instead of running unbounded.
//!
//! Cancellation: the governor [`Budget`] is charged once per node
//! expansion and checked every 64 candidate evaluations, so a
//! `cancel()` or deadline expiry is observed after a small bounded
//! amount of work.

use ptmap_arch::{CgraArch, Mrrg, PeId};
use ptmap_governor::Budget;
use ptmap_ir::{Dfg, OpKind};
use ptmap_mapper::backend::{assemble_mapping, BackendOutcome, HeuristicBackend, MapperBackend};
use ptmap_mapper::error::MapError;
use ptmap_mapper::mapping::Mapping;
use ptmap_mapper::router::route_value;
use ptmap_mapper::state::{Overlay, RouterBuffers, State};
use ptmap_mapper::{mii, validate, MapperConfig};
use ptmap_trace::Tracer;
use std::sync::atomic::{AtomicU32, Ordering};

/// The immutable part of one exact-search problem: the DFG/arch pair
/// plus everything the search derives once (canonical order, adjacency,
/// per-kind capable PE lists).
pub(crate) struct Problem<'a> {
    dfg: &'a Dfg,
    arch: &'a CgraArch,
    config: &'a MapperConfig,
    pub(crate) mii: u32,
    asap: Vec<u32>,
    /// Canonical placement order: deterministic topological order of
    /// the distance-0 subgraph with criticality tie-breaks. Infeasibility
    /// proofs are stated relative to this order.
    order: Vec<usize>,
    /// Incoming edges per node: (src, dist, routed?).
    in_edges: Vec<Vec<(usize, u32, bool)>>,
    /// Outgoing edges per node: (dst, dist, routed?).
    out_edges: Vec<Vec<(usize, u32, bool)>>,
    /// Node -> index into the distinct-kind tables below.
    kind_of: Vec<usize>,
    /// Per kind: PEs able to execute it, ascending id.
    capable_pes: Vec<Vec<PeId>>,
    /// Per PE index: which kind indices it supports.
    pe_kinds: Vec<Vec<usize>>,
    /// Per kind: total ops of that kind.
    demand: Vec<u32>,
}

impl<'a> Problem<'a> {
    /// Mirrors `Scheduler::new`'s structural validation so every
    /// backend rejects the same DFGs with the same errors.
    pub(crate) fn new(
        dfg: &'a Dfg,
        arch: &'a CgraArch,
        config: &'a MapperConfig,
    ) -> Result<Self, MapError> {
        if dfg.is_empty() {
            return Err(MapError::EmptyDfg);
        }
        let counts = dfg.op_counts();
        for &op in counts.keys() {
            if arch.pes_supporting(op) == 0 {
                return Err(MapError::UnsupportedOp(op));
            }
        }
        let rec = mii::try_rec_mii(dfg).ok_or(MapError::ZeroDistanceCycle)?;
        let n = dfg.len();
        let mut in_edges = vec![Vec::new(); n];
        let mut out_edges = vec![Vec::new(); n];
        for e in dfg.edges() {
            let routed = e.kind == ptmap_ir::dfg::EdgeKind::Data;
            in_edges[e.dst.index()].push((e.src.index(), e.dist, routed));
            out_edges[e.src.index()].push((e.dst.index(), e.dist, routed));
        }
        let kinds: Vec<OpKind> = counts.keys().copied().collect();
        let demand: Vec<u32> = counts.values().map(|&c| c as u32).collect();
        let kind_of: Vec<usize> = dfg
            .nodes()
            .iter()
            .map(|node| {
                kinds
                    .iter()
                    .position(|&k| k == node.op)
                    .expect("kind known")
            })
            .collect();
        let capable_pes: Vec<Vec<PeId>> = kinds
            .iter()
            .map(|&k| {
                arch.pe_ids()
                    .filter(|&pe| arch.pe(pe).supports(k))
                    .collect()
            })
            .collect();
        let pe_kinds: Vec<Vec<usize>> = arch
            .pe_ids()
            .map(|pe| {
                (0..kinds.len())
                    .filter(|&ki| arch.pe(pe).supports(kinds[ki]))
                    .collect()
            })
            .collect();
        let ptmap_ir::Schedule { asap, alap, .. } = dfg.schedule();
        let order = canonical_order(dfg, &asap, &alap, &out_edges);
        Ok(Problem {
            dfg,
            arch,
            config,
            mii: mii::res_mii(dfg, arch).max(rec),
            asap,
            order,
            in_edges,
            out_edges,
            kind_of,
            capable_pes,
            pe_kinds,
            demand,
        })
    }
}

/// Deterministic topological order of the distance-0 subgraph; among
/// ready nodes, smallest slack first, then higher fanout, then node id.
/// No RNG: the same DFG always yields the same order (and therefore
/// the same proof).
fn canonical_order(
    dfg: &Dfg,
    asap: &[u32],
    alap: &[u32],
    out_edges: &[Vec<(usize, u32, bool)>],
) -> Vec<usize> {
    let n = dfg.len();
    let mut indeg = vec![0usize; n];
    for e in dfg.edges().iter().filter(|e| e.dist == 0) {
        indeg[e.dst.index()] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let pick = ready
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| {
                let slack = alap[i].saturating_sub(asap[i]);
                (slack, usize::MAX - out_edges[i].len(), asap[i], i)
            })
            .map(|(k, _)| k)
            .expect("ready non-empty");
        let node = ready.swap_remove(pick);
        order.push(node);
        for &(dst, dist, _) in &out_edges[node] {
            if dist == 0 {
                indeg[dst] -= 1;
                if indeg[dst] == 0 {
                    ready.push(dst);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n, "dist-0 subgraph must be acyclic");
    order
}

/// Outcome of the exhaustive search at one candidate II.
pub(crate) enum IiSearch {
    /// A complete placement + routing was found.
    Feasible(Box<Mapping>),
    /// The whole tree was enumerated without a solution: this II is
    /// infeasible for the canonical search space.
    Infeasible,
    /// The step cap fired before the tree was exhausted — no claim.
    Exhausted,
    /// The shared upper bound dropped to (or below) this II mid-search:
    /// a concurrent arm already holds a mapping at least this good, so
    /// the remaining tree is pointless. No claim about this II.
    Bounded,
}

/// Why the depth-first search aborted early.
enum Stop {
    Budget(MapError),
    Steps,
    Bound,
}

/// One placement's trail entry, undone in reverse on backtrack.
struct Undo {
    node: usize,
    pe_index: usize,
    slot: usize,
    routes_len: usize,
    /// (producer, mrrg node, abs cycle, claims, created-by-this-insert).
    tree_adds: Vec<(usize, u32, u32, bool, bool)>,
}

struct Search<'p, 'a> {
    p: &'p Problem<'a>,
    ii: u32,
    mrrg: Mrrg,
    st: State,
    overlay: Overlay,
    bufs: RouterBuffers,
    /// Per kind: unplaced ops.
    remaining: Vec<u32>,
    /// Per kind: unoccupied compute slots on capable PEs.
    free: Vec<u32>,
    budget: &'p Budget,
    /// Shared exclusive upper bound on useful IIs, tightened
    /// concurrently by whichever arm lands a mapping first.
    upper: &'p AtomicU32,
    steps: u64,
    step_cap: u64,
    prunes: u64,
}

impl<'p, 'a> Search<'p, 'a> {
    fn new(p: &'p Problem<'a>, ii: u32, budget: &'p Budget, upper: &'p AtomicU32) -> Self {
        let mrrg = Mrrg::new(p.arch, ii);
        let st = State::new(&mrrg, p.dfg.len());
        let free = p
            .capable_pes
            .iter()
            .map(|pes| pes.len() as u32 * ii)
            .collect();
        Search {
            p,
            ii,
            mrrg,
            st,
            overlay: Overlay::default(),
            bufs: RouterBuffers::default(),
            remaining: p.demand.clone(),
            free,
            budget,
            upper,
            steps: 0,
            step_cap: p.config.exact_steps_per_ii.max(1),
            prunes: 0,
        }
    }

    fn run(&mut self) -> Result<IiSearch, Stop> {
        // Root capacity check: with fewer capable slots than ops of
        // some kind, the whole II is infeasible without search.
        if self
            .remaining
            .iter()
            .zip(&self.free)
            .any(|(&need, &have)| need > have)
        {
            return Ok(IiSearch::Infeasible);
        }
        if self.dfs(0)? {
            let mapping =
                assemble_mapping(self.p.dfg, self.p.arch, self.p.mii, self.ii, &mut self.st);
            Ok(IiSearch::Feasible(Box::new(mapping)))
        } else {
            Ok(IiSearch::Infeasible)
        }
    }

    fn dfs(&mut self, depth: usize) -> Result<bool, Stop> {
        if depth == self.p.order.len() {
            return Ok(true);
        }
        // One work unit per node expansion, matching the heuristic's
        // charge granularity so work-limited budgets behave alike.
        self.budget
            .charge(1)
            .map_err(|e| Stop::Budget(MapError::from(e)))?;
        let node = self.p.order[depth];
        let Some((lo, hi)) = self.window(node) else {
            return Ok(false);
        };
        let kind = self.p.kind_of[node];
        for t in lo..=hi {
            for i in 0..self.p.capable_pes[kind].len() {
                let pe = self.p.capable_pes[kind][i];
                self.steps += 1;
                if self.steps.is_multiple_of(64) {
                    self.budget
                        .check()
                        .map_err(|e| Stop::Budget(MapError::from(e)))?;
                    // A concurrent arm tightening the shared bound to
                    // (or below) this II makes the rest of this tree
                    // pointless — without this mid-rung check a
                    // heuristic win would leave the exact arm grinding
                    // a doomed search until its own rung boundary.
                    if self.upper.load(Ordering::Acquire) <= self.ii {
                        return Err(Stop::Bound);
                    }
                }
                if self.steps > self.step_cap {
                    return Err(Stop::Steps);
                }
                if let Some(undo) = self.commit(node, kind, pe, t) {
                    if self.dfs(depth + 1)? {
                        return Ok(true);
                    }
                    self.undo(undo);
                }
            }
        }
        Ok(false)
    }

    /// The heuristic scheduler's exact time-window formula: the proof
    /// covers precisely the start cycles the heuristic would consider.
    fn window(&self, node: usize) -> Option<(u32, u32)> {
        let ii = self.ii;
        let mut lo = self.p.asap[node] as i64;
        let mut hi = i64::MAX;
        for &(src, dist, _) in &self.p.in_edges[node] {
            if src == node {
                continue;
            }
            if let Some((_, ts)) = self.st.place[src] {
                let dep = ts as i64 + self.p.dfg.nodes()[src].latency() as i64;
                lo = lo.max(dep - (dist as i64) * ii as i64);
            }
        }
        for &(dst, dist, _) in &self.p.out_edges[node] {
            if dst == node {
                continue;
            }
            if let Some((_, td)) = self.st.place[dst] {
                let arrive = td as i64 + (dist as i64) * ii as i64;
                hi = hi.min(arrive - self.p.dfg.nodes()[node].latency() as i64);
            }
        }
        let margin = (self.p.arch.rows() + self.p.arch.cols()) as i64 + 2;
        if hi == i64::MAX {
            hi = lo + ii as i64 - 1 + margin;
        } else {
            hi = hi.min(lo + ii as i64 - 1 + margin);
        }
        if lo > hi || hi < 0 {
            return None;
        }
        let lo = lo.max(0) as u32;
        let hi = hi as u32;
        (lo <= hi).then_some((lo, hi))
    }

    /// Tries to place `node` at `(pe, t)` — the same occupancy, timing,
    /// and routing checks as the heuristic's `try_commit`, but
    /// recording an undo trail instead of being fire-and-forget.
    fn commit(&mut self, node: usize, kind: usize, pe: PeId, t: u32) -> Option<Undo> {
        let ii = self.ii;
        let slot = self.mrrg.pe_slot(pe, t % ii);
        if self.st.compute[slot].is_some() {
            return None;
        }
        // Capacity prune: occupying this slot takes one free slot from
        // every kind the PE supports; if any kind would be left with
        // more unplaced ops than free capable slots, cut before paying
        // for routing. (`kind` is in `pe_kinds[pe]` by construction.)
        for &ki in &self.p.pe_kinds[pe.index()] {
            let need = self.remaining[ki] - (ki == kind) as u32;
            if need > self.free[ki] - 1 {
                self.prunes += 1;
                return None;
            }
        }
        let lat = self.p.dfg.nodes()[node].latency();
        let mut routes: Vec<(usize, usize, PeId, u32, PeId, u32)> = Vec::new();
        for &(src, dist, routed) in &self.p.in_edges[node] {
            let (producer, spe, dep) = if src == node {
                (node, pe, t + lat)
            } else {
                match self.st.place[src] {
                    Some((spe, stime)) => (src, spe, stime + self.p.dfg.nodes()[src].latency()),
                    None => continue,
                }
            };
            let arrive = t as i64 + dist as i64 * ii as i64;
            if arrive < dep as i64 {
                return None;
            }
            if routed {
                routes.push((producer, node, spe, dep, pe, arrive as u32));
            }
        }
        for &(dst, dist, routed) in &self.p.out_edges[node] {
            if dst == node {
                continue;
            }
            if let Some((dpe, dt)) = self.st.place[dst] {
                let dep = t + lat;
                let arrive = dt as i64 + dist as i64 * ii as i64;
                if arrive < dep as i64 {
                    return None;
                }
                if routed {
                    routes.push((node, dst, pe, dep, dpe, arrive as u32));
                }
            }
        }
        self.overlay.reset(self.mrrg.node_count());
        let routes_len = self.st.routes.len();
        for (producer, consumer, spe, dep, dpe, arrive) in routes {
            match route_value(
                &self.mrrg,
                ii,
                producer,
                spe,
                dep,
                dpe,
                arrive,
                &self.st,
                &mut self.overlay,
                &mut self.bufs,
                self.p.config.share_routes,
            ) {
                Some(source) => self.st.routes.push(ptmap_mapper::RouteRecord {
                    src: ptmap_ir::NodeId(producer as u32),
                    dst: ptmap_ir::NodeId(consumer as u32),
                    source,
                }),
                None => {
                    self.st.routes.truncate(routes_len);
                    return None;
                }
            }
        }
        // Commit, recording the trail.
        self.st.compute[slot] = Some(node);
        self.st.place[node] = Some((pe, t));
        let mut tree_adds = Vec::with_capacity(self.overlay.adds().len());
        for &(producer, idx, at, claims) in self.overlay.adds() {
            let created = self.st.trees[producer].insert(idx, at, claims);
            if claims {
                self.st.route_used[idx as usize] += 1;
                self.st.route_slots += 1;
            }
            tree_adds.push((producer, idx, at, claims, created));
        }
        for &ki in &self.p.pe_kinds[pe.index()] {
            self.free[ki] -= 1;
        }
        self.remaining[kind] -= 1;
        Some(Undo {
            node,
            pe_index: pe.index(),
            slot,
            routes_len,
            tree_adds,
        })
    }

    fn undo(&mut self, u: Undo) {
        self.remaining[self.p.kind_of[u.node]] += 1;
        for &ki in &self.p.pe_kinds[u.pe_index] {
            self.free[ki] += 1;
        }
        for &(producer, idx, at, claims, created) in u.tree_adds.iter().rev() {
            self.st.trees[producer].remove(idx, at, claims, created);
            if claims {
                self.st.route_used[idx as usize] -= 1;
                self.st.route_slots -= 1;
            }
        }
        self.st.routes.truncate(u.routes_len);
        self.st.compute[u.slot] = None;
        self.st.place[u.node] = None;
    }
}

/// Runs the exhaustive search at one II under an `ii_attempt` trace
/// span tagged `backend="exact"`, accumulating step counts into
/// `steps_total`.
pub(crate) fn search_ii(
    p: &Problem<'_>,
    ii: u32,
    budget: &Budget,
    upper: &AtomicU32,
    tracer: &Tracer,
    steps_total: &mut u64,
) -> Result<IiSearch, MapError> {
    let span = tracer.span("ii_attempt");
    let mut s = Search::new(p, ii, budget, upper);
    let result = s.run();
    if span.enabled() {
        span.attr("backend", "exact");
        span.attr("ii", ii as u64);
        span.attr("steps", s.steps);
        span.attr("prunes", s.prunes);
        span.attr("success", matches!(result, Ok(IiSearch::Feasible(_))));
        span.attr(
            "outcome",
            match &result {
                Ok(IiSearch::Feasible(_)) => "feasible",
                Ok(IiSearch::Infeasible) => "infeasible",
                Ok(IiSearch::Exhausted) | Err(Stop::Steps) => "step_limit",
                Ok(IiSearch::Bounded) | Err(Stop::Bound) => "bounded",
                Err(Stop::Budget(_)) => "budget",
            },
        );
    }
    drop(span);
    *steps_total += s.steps;
    match result {
        Ok(r) => Ok(r),
        Err(Stop::Steps) => Ok(IiSearch::Exhausted),
        Err(Stop::Bound) => Ok(IiSearch::Bounded),
        Err(Stop::Budget(e)) => Err(e),
    }
}

/// How a bottom-up II sweep ended.
pub(crate) enum SweepEnd {
    /// A feasible mapping was found at `mapping.ii`; every smaller II
    /// (down to the MII) was proven infeasible, so it is optimal.
    Found { mapping: Box<Mapping>, steps: u64 },
    /// Every II in `[mii, next_ii)` was proven infeasible and the sweep
    /// stopped (it reached the shared upper bound or the max II).
    ProvenUpTo { next_ii: u32, steps: u64 },
    /// The step cap fired mid-proof: smaller IIs up to that point are
    /// proven infeasible, but nothing is known beyond it.
    Exhausted { steps: u64 },
}

/// Sweeps candidate IIs bottom-up from the MII, stopping at the shared
/// `upper` bound (exclusive — typically the heuristic's achieved II,
/// which the portfolio's heuristic arm tightens concurrently).
pub(crate) fn sweep(
    p: &Problem<'_>,
    upper: &AtomicU32,
    budget: &Budget,
    tracer: &Tracer,
) -> Result<SweepEnd, MapError> {
    let mut steps = 0u64;
    let start = p.mii.max(1);
    let mut ii = start;
    while ii < upper.load(Ordering::Acquire) && ii <= p.config.max_ii.max(start) {
        match search_ii(p, ii, budget, upper, tracer, &mut steps)? {
            IiSearch::Feasible(mapping) => {
                validate::validate(p.dfg, p.arch, &mapping)
                    .map_err(|v| MapError::BrokenInvariant(v.to_string()))?;
                return Ok(SweepEnd::Found { mapping, steps });
            }
            IiSearch::Infeasible => ii += 1,
            IiSearch::Exhausted => return Ok(SweepEnd::Exhausted { steps }),
            // The bound dropped mid-rung: IIs below `ii` stay proven
            // infeasible, `ii` itself gets no claim. The abort's steps
            // are already in `steps`.
            IiSearch::Bounded => break,
        }
    }
    Ok(SweepEnd::ProvenUpTo { next_ii: ii, steps })
}

/// The exact backend: heuristic warm start, then a bottom-up
/// branch-and-bound sweep over every II below the heuristic's answer.
/// Never returns a higher II than the heuristic; returns
/// `proven_optimal` unless the step cap fired or the budget ran out
/// mid-proof.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExactBackend;

impl MapperBackend for ExactBackend {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn map(
        &self,
        dfg: &Dfg,
        arch: &CgraArch,
        config: &MapperConfig,
        budget: &Budget,
        tracer: &Tracer,
    ) -> Result<BackendOutcome, MapError> {
        let p = Problem::new(dfg, arch, config)?;
        // Warm start: the heuristic's answer is the incumbent and the
        // exclusive upper bound of the sweep.
        let incumbent = match HeuristicBackend.map(dfg, arch, config, budget, tracer) {
            Ok(out) => Some(out),
            Err(MapError::Infeasible { .. }) => None,
            Err(e) => return Err(e),
        };
        let start = p.mii.max(1);
        let max_ii = config.max_ii.max(start);
        let heuristic_ii = incumbent.as_ref().map(|o| o.mapping.ii);
        let upper = AtomicU32::new(heuristic_ii.map_or(max_ii + 1, |ii| ii));
        match sweep(&p, &upper, budget, tracer)? {
            SweepEnd::Found { mapping, steps } => Ok(BackendOutcome {
                ii_opt: Some(mapping.ii),
                heuristic_ii,
                backend: self.name(),
                proven_optimal: true,
                exact_steps: steps,
                losers_cancelled: 0,
                mapping: *mapping,
            }),
            SweepEnd::ProvenUpTo { next_ii, steps } => match incumbent {
                Some(mut out) => {
                    // The sweep proved every II below the heuristic's
                    // infeasible, so the incumbent is optimal.
                    out.proven_optimal = next_ii >= out.mapping.ii;
                    out.ii_opt = out.proven_optimal.then_some(out.mapping.ii);
                    out.exact_steps = steps;
                    Ok(out)
                }
                // Heuristic infeasible and the sweep proved the whole
                // II range infeasible too.
                None => Err(MapError::Infeasible { mii: start, max_ii }),
            },
            SweepEnd::Exhausted { steps } => match incumbent {
                Some(mut out) => {
                    out.exact_steps = steps;
                    Ok(out)
                }
                None => Err(MapError::Infeasible { mii: start, max_ii }),
            },
        }
    }
}
