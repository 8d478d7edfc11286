//! Iterative modulo scheduling with integrated placement and routing.
//!
//! For each candidate II (starting at the MII), the scheduler places
//! operations one by one in criticality order onto `(PE, cycle)` slots
//! and routes every data edge incident to already-placed operations
//! through the time-extended MRRG with a layered breadth-first search.
//! Each II gets several randomized restarts before escalating; the first
//! complete placement wins.
//!
//! Modeling notes:
//!
//! * Fanout is routed as a shared *route tree* per produced value: a new
//!   consumer may tap the value anywhere (and anywhen) it already exists,
//!   and only newly claimed `(slot, cycle)` residencies consume routing
//!   capacity — mirroring RAMP's resource-aware routing.
//! * A value may wait in a PE's local register file; every claimed
//!   residency consumes one routing-capacity unit of the slot it
//!   occupies (LRF entries for PEs, GRF entries for the hub).

use crate::config::MapperConfig;
use crate::error::MapError;
use crate::mapping::Mapping;
use crate::mii;
use crate::router::route_value;
use crate::state::{Overlay, RouterBuffers, SearchStats, State};
use ptmap_arch::{CgraArch, Mrrg, PeId};
use ptmap_governor::{faultpoint, Budget};
use ptmap_ir::{Dfg, OpKind};
use ptmap_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scheduling engine. Construct with [`Scheduler::new`], then call
/// [`Scheduler::run`].
#[derive(Debug)]
pub struct Scheduler<'a> {
    dfg: &'a Dfg,
    arch: &'a CgraArch,
    config: &'a MapperConfig,
    mii: u32,
    asap: Vec<u32>,
    alap: Vec<u32>,
    /// Incoming edges per node: (src, dist, routed?).
    in_edges: Vec<Vec<(usize, u32, bool)>>,
    /// Outgoing edges per node: (dst, dist, routed?).
    out_edges: Vec<Vec<(usize, u32, bool)>>,
}

impl<'a> Scheduler<'a> {
    /// Prepares a scheduler, validating the DFG against the architecture.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::EmptyDfg`], [`MapError::UnsupportedOp`], or
    /// [`MapError::ZeroDistanceCycle`] (a dependence cycle no II can
    /// satisfy, which previously escaped as a bogus finite RecMII).
    pub fn new(
        dfg: &'a Dfg,
        arch: &'a CgraArch,
        config: &'a MapperConfig,
    ) -> Result<Self, MapError> {
        if dfg.is_empty() {
            return Err(MapError::EmptyDfg);
        }
        for (op, _) in dfg.op_counts() {
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
        let schedule = dfg.schedule();
        Ok(Scheduler {
            dfg,
            arch,
            config,
            mii: mii::res_mii(dfg, arch).max(rec),
            asap: schedule.asap,
            alap: schedule.alap,
            in_edges,
            out_edges,
        })
    }

    /// The minimum II bound for this problem.
    pub fn mii(&self) -> u32 {
        self.mii
    }

    /// Runs the II escalation loop under a cooperative [`Budget`],
    /// recording one `ii_attempt` span per candidate II under `tracer`
    /// with the restart / placement / backtrack / route-failure /
    /// BFS-expansion counters of that rung.
    ///
    /// The budget is checked per placement attempt (once per node per
    /// restart), never inside the router's per-node BFS, so an
    /// unlimited (or deadline-free) budget adds no measurable cost to
    /// the hot path. Tracing never perturbs the search: counters are
    /// plain integer adds on scratch state the search already threads
    /// around, the RNG is untouched, and a disabled tracer reduces
    /// every span operation to an `Option` branch — so traced and
    /// untraced runs of the same seed produce bit-identical mappings.
    ///
    /// # Errors
    ///
    /// [`MapError::Infeasible`] when no II up to the configured maximum
    /// works; [`MapError::Timeout`] / [`MapError::Cancelled`] when the
    /// budget runs out first.
    pub fn run(&self, budget: &Budget, tracer: &Tracer) -> Result<Mapping, MapError> {
        let start = self.mii.max(1);
        let max_ii = self.config.max_ii.max(start);
        // Routing scratch shared by every attempt: the BFS buffers are
        // epoch-stamped, so reuse is O(1) and allocation-free once warm.
        let mut overlay = Overlay::default();
        let mut bufs = RouterBuffers::default();
        for ii in start..=max_ii {
            bufs.stats = SearchStats::default();
            let span = tracer.span("ii_attempt");
            let result = self.run_ii(ii, &mut overlay, &mut bufs, budget);
            record_rung_attrs(&span, ii, &bufs.stats, &result);
            drop(span);
            match result {
                Ok(Some(m)) => return Ok(m),
                Ok(None) => {}
                Err(e) => return Err(e),
            }
        }
        Err(MapError::Infeasible { mii: start, max_ii })
    }

    /// The RNG driving one II rung's randomized restarts.
    ///
    /// Each rung's random stream is derived from `(seed, ii)` alone —
    /// not threaded through from previous rungs — so the search at a
    /// given II is reproducible in isolation, independent of which
    /// (and how many) lower rungs ran before it.
    fn rung_rng(&self, ii: u32) -> StdRng {
        // splitmix64 finalizer over the seed offset by a golden-ratio
        // multiple of the II: cheap, and decorrelates adjacent rungs
        // (StdRng seeded from nearby integers would still be fine, but
        // the mix keeps the streams obviously unrelated).
        let mut z = self
            .config
            .seed
            .wrapping_add((ii as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    /// All restarts at one candidate II. `Ok(None)` means the II is
    /// infeasible within the restart budget and escalation continues.
    fn run_ii(
        &self,
        ii: u32,
        overlay: &mut Overlay,
        bufs: &mut RouterBuffers,
        budget: &Budget,
    ) -> Result<Option<Mapping>, MapError> {
        let rng = &mut self.rung_rng(ii);
        let mrrg = Mrrg::new(self.arch, ii);
        let mut best: Option<Mapping> = None;
        for restart in 0..self.config.restarts_per_ii() {
            let result = (|| {
                // Fault-injection hook: `delay` here simulates a wedged
                // placement engine (which the budget then catches) and
                // `panic`/`error` exercise the caller's isolation.
                faultpoint::fail_point(faultpoint::sites::MAPPER_PLACE)
                    .map_err(|e| MapError::Fault(e.site))?;
                budget.check()?;
                bufs.stats.restarts += 1;
                // Alternate ordering strategies across restarts:
                // criticality-first packs recurrences tightly; pure
                // topological order never collapses a producer's window.
                let order = if restart % 2 == 0 {
                    self.criticality_order(rng, restart > 0)
                } else {
                    self.topo_order(rng, restart > 1)
                };
                self.attempt(ii, &mrrg, &order, rng, overlay, bufs, budget)
            })();
            match result {
                Ok(Some(m)) => {
                    if !self.config.polish_schedule() {
                        return Ok(Some(m));
                    }
                    if best
                        .as_ref()
                        .is_none_or(|b| m.schedule_length < b.schedule_length)
                    {
                        best = Some(m);
                    }
                }
                Ok(None) => {}
                // Polish restarts are opportunistic: once a complete
                // mapping exists, a budget expiry or injected fault in
                // a *later* restart must not throw it away — return
                // the mapping, not Timeout/Cancelled.
                Err(_) if best.is_some() => return Ok(best),
                Err(e) => return Err(e),
            }
        }
        Ok(best)
    }

    /// Criticality order: smallest slack first, then higher fanout.
    fn criticality_order(&self, rng: &mut StdRng, perturb: bool) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.dfg.len()).collect();
        order.sort_by_key(|&i| {
            let slack = self.alap[i].saturating_sub(self.asap[i]);
            let fanout = self.out_edges[i].len();
            (slack, usize::MAX - fanout, self.asap[i])
        });
        if perturb {
            for i in 1..order.len() {
                if rng.gen_bool(0.3) {
                    order.swap(i - 1, i);
                }
            }
        }
        order
    }

    /// Topological order of the distance-0 subgraph (producers before
    /// consumers, so windows never collapse on an already-placed
    /// consumer), with the ready set prioritized by criticality.
    fn topo_order(&self, rng: &mut StdRng, perturb: bool) -> Vec<usize> {
        let n = self.dfg.len();
        let mut indeg = vec![0usize; n];
        for e in self.dfg.edges().iter().filter(|e| e.dist == 0) {
            indeg[e.dst.index()] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while !ready.is_empty() {
            // Pick the most critical ready node (with jitter on restarts).
            let pick = ready
                .iter()
                .enumerate()
                .min_by_key(|&(_, &i)| {
                    let slack = self.alap[i].saturating_sub(self.asap[i]) as usize;
                    let fanout = self.out_edges[i].len();
                    let jitter = if perturb { rng.gen_range(0..3usize) } else { 0 };
                    (slack + jitter, usize::MAX - fanout, self.asap[i])
                })
                .map(|(k, _)| k)
                .expect("ready non-empty");
            let node = ready.swap_remove(pick);
            order.push(node);
            for &(dst, dist, _) in &self.out_edges[node] {
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

    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        ii: u32,
        mrrg: &Mrrg,
        order: &[usize],
        rng: &mut StdRng,
        overlay: &mut Overlay,
        bufs: &mut RouterBuffers,
        budget: &Budget,
    ) -> Result<Option<Mapping>, MapError> {
        let mut st = State::new(mrrg, self.dfg.len());
        for &node in order {
            // One work unit per node placement: coarse enough to stay
            // off the router's inner loops, fine enough that a deadline
            // interrupts a single stuck attempt.
            budget.charge(1)?;
            if !self.place_node(node, ii, mrrg, &mut st, rng, overlay, bufs) {
                bufs.stats.backtracks += 1;
                if std::env::var_os("PTMAP_MAPPER_DEBUG").is_some() {
                    eprintln!(
                        "[mapper] II={ii}: failed to place node {node} ({}) window={:?}",
                        self.dfg.nodes()[node].op,
                        self.time_window(node, ii, &st)
                    );
                }
                return Ok(None);
            }
        }
        Ok(Some(crate::backend::assemble_mapping(
            self.dfg, self.arch, self.mii, ii, &mut st,
        )))
    }

    /// Attempts to place one node, routing all edges to already-placed
    /// neighbors. Returns false when no candidate works.
    #[allow(clippy::too_many_arguments)]
    fn place_node(
        &self,
        node: usize,
        ii: u32,
        mrrg: &Mrrg,
        st: &mut State,
        rng: &mut StdRng,
        overlay: &mut Overlay,
        bufs: &mut RouterBuffers,
    ) -> bool {
        let op = self.dfg.nodes()[node].op;
        let (lo, hi) = match self.time_window(node, ii, st) {
            Some(w) => w,
            None => return false,
        };
        let pes = self.candidate_pes(node, op, st, rng);
        let mut tried = 0usize;
        // Spread the candidate budget over start times: affinity-top PEs
        // per time slot, later slots reached before the budget runs out.
        // The budget buys depth (up to 8 PEs per slot); once spent, the
        // remaining start times still each get their single top-affinity
        // candidate, so a wide window never starves its tail (late
        // starts can be the only way to leave room for transport).
        let pes_per_t = 8.min(pes.len().max(1));
        for t in lo..=hi {
            let depth = if tried >= self.config.candidates_per_op() {
                1
            } else {
                pes_per_t
            };
            for &pe in pes.iter().take(depth) {
                tried += 1;
                bufs.stats.placements_tried += 1;
                if self.try_commit(node, pe, t, ii, mrrg, st, overlay, bufs) {
                    return true;
                }
                if tried >= self.config.candidates_per_op() {
                    break;
                }
            }
        }
        false
    }

    /// Feasible start-time window for a node given placed neighbors.
    fn time_window(&self, node: usize, ii: u32, st: &State) -> Option<(u32, u32)> {
        let mut lo = self.asap[node] as i64;
        let mut hi = i64::MAX;
        for &(src, dist, _) in &self.in_edges[node] {
            if src == node {
                continue; // self-loop constrains II, checked at routing
            }
            if let Some((_, ts)) = st.place[src] {
                let dep = ts as i64 + self.dfg.nodes()[src].latency() as i64;
                lo = lo.max(dep - (dist as i64) * ii as i64);
            }
        }
        for &(dst, dist, _) in &self.out_edges[node] {
            if dst == node {
                continue;
            }
            if let Some((_, td)) = st.place[dst] {
                let arrive = td as i64 + (dist as i64) * ii as i64;
                hi = hi.min(arrive - self.dfg.nodes()[node].latency() as i64);
            }
        }
        // Routing consumes absolute cycles, so starting later than `lo`
        // can be the only way to leave room for multi-hop transport: the
        // window extends one II plus a routing margin past `lo`.
        let margin = (self.arch.rows() + self.arch.cols()) as i64 + 2;
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

    /// PEs able to execute `op`, ordered by affinity to placed neighbors.
    fn candidate_pes(&self, node: usize, op: OpKind, st: &State, rng: &mut StdRng) -> Vec<PeId> {
        let cols = self.arch.cols();
        let mut scored: Vec<(i64, PeId)> = self
            .arch
            .pe_ids()
            .filter(|&pe| self.arch.pe(pe).supports(op))
            .map(|pe| {
                let (x, y) = pe.to_xy(cols);
                let mut cost = 0i64;
                for &(other, _, _) in self.in_edges[node].iter().chain(&self.out_edges[node]) {
                    if let Some((ope, _)) = st.place[other] {
                        let (ox, oy) = ope.to_xy(cols);
                        cost += (x as i64 - ox as i64).abs() + (y as i64 - oy as i64).abs();
                    }
                }
                // Mild load balancing: penalize PEs already used.
                let used = st.place.iter().flatten().filter(|&&(p, _)| p == pe).count() as i64;
                cost += used;
                cost += rng.gen_range(0..2);
                (cost, pe)
            })
            .collect();
        scored.sort();
        let mut shortlist: Vec<PeId> = scored.into_iter().map(|(_, pe)| pe).collect();
        // Keep the shortlist bounded on very large arrays.
        shortlist.truncate(self.config.candidates_per_op().max(8));
        shortlist
    }

    /// Tries to place `node` at `(pe, t)`, routing every incident edge to
    /// placed neighbors through shared route trees; commits occupancy on
    /// success.
    #[allow(clippy::too_many_arguments)]
    fn try_commit(
        &self,
        node: usize,
        pe: PeId,
        t: u32,
        ii: u32,
        mrrg: &Mrrg,
        st: &mut State,
        overlay: &mut Overlay,
        bufs: &mut RouterBuffers,
    ) -> bool {
        let slot = mrrg.pe_slot(pe, t % ii);
        if st.compute[slot].is_some() {
            return false;
        }
        // Gather required routes: (producer, consumer, origin pe,
        // departure, consumer pe, arrival).
        let mut routes: Vec<(usize, usize, PeId, u32, PeId, u32)> = Vec::new();
        let lat = self.dfg.nodes()[node].latency();
        for &(src, dist, routed) in &self.in_edges[node] {
            let (producer, spe, dep) = if src == node {
                (node, pe, t + lat)
            } else {
                match st.place[src] {
                    Some((spe, stime)) => (src, spe, stime + self.dfg.nodes()[src].latency()),
                    None => continue,
                }
            };
            let arrive = t as i64 + dist as i64 * ii as i64;
            if arrive < dep as i64 {
                return false;
            }
            if routed {
                routes.push((producer, node, spe, dep, pe, arrive as u32));
            }
        }
        for &(dst, dist, routed) in &self.out_edges[node] {
            if dst == node {
                continue; // handled as an in-edge above
            }
            if let Some((dpe, dt)) = st.place[dst] {
                let dep = t + lat;
                let arrive = dt as i64 + dist as i64 * ii as i64;
                if arrive < dep as i64 {
                    return false;
                }
                if routed {
                    routes.push((node, dst, pe, dep, dpe, arrive as u32));
                }
            }
        }
        // Route one by one against an overlay so the routes of this very
        // candidate contend with (and share with) each other.
        overlay.reset(mrrg.node_count());
        let routes_before = st.routes.len();
        for (producer, consumer, spe, dep, dpe, arrive) in routes {
            match route_value(
                mrrg,
                ii,
                producer,
                spe,
                dep,
                dpe,
                arrive,
                st,
                overlay,
                bufs,
                self.config.share_routes,
            ) {
                Some(source) => st.routes.push(crate::mapping::RouteRecord {
                    src: ptmap_ir::NodeId(producer as u32),
                    dst: ptmap_ir::NodeId(consumer as u32),
                    source,
                }),
                None => {
                    bufs.stats.route_failures += 1;
                    st.routes.truncate(routes_before);
                    return false;
                }
            }
        }
        // Commit.
        st.compute[slot] = Some(node);
        st.place[node] = Some((pe, t));
        for &(producer, idx, at, claims) in overlay.adds() {
            st.trees[producer].insert(idx, at, claims);
            if claims {
                st.route_used[idx as usize] += 1;
                st.route_slots += 1;
            }
        }
        true
    }
}

/// Writes one II rung's `ii_attempt` span attributes.
fn record_rung_attrs(
    span: &ptmap_trace::Span,
    ii: u32,
    stats: &SearchStats,
    result: &Result<Option<Mapping>, MapError>,
) {
    if !span.enabled() {
        return;
    }
    span.attr("backend", "heuristic");
    span.attr("ii", ii as u64);
    span.attr("restarts", stats.restarts);
    span.attr("placements_tried", stats.placements_tried);
    span.attr("backtracks", stats.backtracks);
    span.attr("route_failures", stats.route_failures);
    span.attr("bfs_expansions", stats.bfs_expansions);
    span.attr("success", matches!(result, Ok(Some(_))));
    if let Err(e) = result {
        span.attr("error", format!("{e:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_dfg;
    use ptmap_arch::presets;
    use ptmap_ir::dfg::build_dfg;
    use ptmap_ir::{Program, ProgramBuilder};

    fn vadd(n: u64) -> Program {
        let mut b = ProgramBuilder::new("vadd");
        let x = b.array("X", &[n]);
        let y = b.array("Y", &[n]);
        let z = b.array("Z", &[n]);
        let i = b.open_loop("i", n);
        let v = b.add(b.load(x, &[b.idx(i)]), b.load(y, &[b.idx(i)]));
        b.store(z, &[b.idx(i)], v);
        b.close_loop();
        b.finish()
    }

    fn gemm(n: u64) -> Program {
        let mut b = ProgramBuilder::new("gemm");
        let a = b.array("A", &[n, n]);
        let bb = b.array("B", &[n, n]);
        let c = b.array("C", &[n, n]);
        let i = b.open_loop("i", n);
        let j = b.open_loop("j", n);
        let k = b.open_loop("k", n);
        let prod = b.mul(
            b.load(a, &[b.idx(i), b.idx(k)]),
            b.load(bb, &[b.idx(k), b.idx(j)]),
        );
        let sum = b.add(b.load(c, &[b.idx(i), b.idx(j)]), prod);
        b.store(c, &[b.idx(i), b.idx(j)], sum);
        b.close_loop();
        b.close_loop();
        b.close_loop();
        b.finish()
    }

    #[test]
    fn vadd_maps_at_mii() {
        let p = vadd(256);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let m = map_dfg(&dfg, &presets::s4(), &MapperConfig::default()).unwrap();
        assert_eq!(m.mii, 1);
        assert!(m.ii <= 2, "vadd should map at tiny II, got {}", m.ii);
        assert_eq!(m.placements.len(), dfg.len());
    }

    #[test]
    fn gemm_maps_and_respects_recurrence() {
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let m = map_dfg(&dfg, &presets::s4(), &MapperConfig::default()).unwrap();
        // Through-memory accumulation limits II: load(2) + add(1) + store(1)
        // around a distance-1 cycle -> RecMII 4.
        assert!(m.ii >= 4, "ii = {}", m.ii);
        assert!(m.ii >= m.mii);
        crate::validate::validate(&dfg, &presets::s4(), &m).unwrap();
    }

    #[test]
    fn unrolled_gemm_maps_on_large_array() {
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let (i, j) = (nest.loops[0], nest.loops[1]);
        let dfg = build_dfg(&p, &nest, &[(i, 2), (j, 2)]).unwrap();
        let arch = presets::sl8();
        let m = map_dfg(&dfg, &arch, &MapperConfig::default()).unwrap();
        assert!(m.ii >= m.mii);
        assert_eq!(m.placements.len(), dfg.len());
        // At least ceil(#ops / II) PEs must be active.
        let min_pes = (dfg.len() as u32).div_ceil(m.ii);
        assert!(m.pes_used >= min_pes, "pes_used {} < {min_pes}", m.pes_used);
        crate::validate::validate(&dfg, &arch, &m).unwrap();
    }

    #[test]
    fn placement_times_respect_dataflow() {
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let m = map_dfg(&dfg, &presets::s4(), &MapperConfig::default()).unwrap();
        let time: Vec<u32> = {
            let mut v = vec![0; dfg.len()];
            for p in &m.placements {
                v[p.node.index()] = p.time;
            }
            v
        };
        for e in dfg.edges() {
            let dep = time[e.src.index()] + dfg.nodes()[e.src.index()].latency();
            let arrive = time[e.dst.index()] as i64 + e.dist as i64 * m.ii as i64;
            assert!(
                arrive >= dep as i64,
                "edge {}->{} dist {} violates timing (dep {dep}, arrive {arrive})",
                e.src,
                e.dst,
                e.dist
            );
        }
    }

    #[test]
    fn no_compute_slot_conflicts() {
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let (i, j) = (nest.loops[0], nest.loops[1]);
        let dfg = build_dfg(&p, &nest, &[(i, 2), (j, 2)]).unwrap();
        let m = map_dfg(&dfg, &presets::s4(), &MapperConfig::default()).unwrap();
        let mut seen = std::collections::HashSet::new();
        for p in &m.placements {
            assert!(
                seen.insert((p.pe, p.time % m.ii)),
                "slot conflict at ({}, {})",
                p.pe,
                p.time % m.ii
            );
        }
    }

    #[test]
    fn heterogeneous_ops_go_to_capable_pes() {
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let r4 = presets::r4();
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let m = map_dfg(&dfg, &r4, &MapperConfig::default()).unwrap();
        for pl in &m.placements {
            let op = dfg.nodes()[pl.node.index()].op;
            assert!(r4.pe(pl.pe).supports(op), "{op} on incapable {}", pl.pe);
        }
    }

    #[test]
    fn empty_dfg_rejected() {
        let dfg = ptmap_ir::Dfg::new();
        assert_eq!(
            map_dfg(&dfg, &presets::s4(), &MapperConfig::default()),
            Err(MapError::EmptyDfg)
        );
    }

    #[test]
    fn zero_distance_cycle_rejected_up_front() {
        // A combinational loop: no II can satisfy it. The old RecMII
        // silently returned its search upper bound, sending the
        // scheduler into a doomed (and slow) II escalation that ended
        // in a misleading `Infeasible`.
        use ptmap_ir::OpKind;
        let mut dfg = ptmap_ir::Dfg::new();
        let a = dfg.add_node(OpKind::Add, None, None);
        let b = dfg.add_node(OpKind::Mul, None, None);
        dfg.add_edge(a, b, 0);
        dfg.add_edge(b, a, 0);
        assert_eq!(
            map_dfg(&dfg, &presets::s4(), &MapperConfig::default()),
            Err(MapError::ZeroDistanceCycle)
        );
        assert!(Scheduler::new(&dfg, &presets::s4(), &MapperConfig::default()).is_err());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let cfg = MapperConfig::default();
        let a = map_dfg(&dfg, &presets::s4(), &cfg).unwrap();
        let b = map_dfg(&dfg, &presets::s4(), &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn higher_effort_never_worse_ii() {
        let p = gemm(16);
        let nest = p.perfect_nests().remove(0);
        let (i, j) = (nest.loops[0], nest.loops[1]);
        let dfg = build_dfg(&p, &nest, &[(i, 2), (j, 2)]).unwrap();
        let base = map_dfg(&dfg, &presets::r4(), &MapperConfig::default());
        let high = map_dfg(
            &dfg,
            &presets::r4(),
            &MapperConfig::default().with_effort(4),
        );
        if let (Ok(b), Ok(h)) = (base, high) {
            assert!(h.ii <= b.ii + 1, "high effort ii {} vs base {}", h.ii, b.ii);
        }
    }

    #[test]
    fn cancelled_budget_stops_mapping() {
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let budget = ptmap_governor::Budget::cancellable();
        budget.cancel();
        assert_eq!(
            crate::map_dfg_traced(
                &dfg,
                &presets::s4(),
                &MapperConfig::default(),
                &budget,
                &Tracer::disabled()
            ),
            Err(MapError::Cancelled)
        );
    }

    #[test]
    fn expired_deadline_times_out() {
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let budget = ptmap_governor::Budget::with_deadline(std::time::Duration::ZERO);
        assert_eq!(
            crate::map_dfg_traced(
                &dfg,
                &presets::s4(),
                &MapperConfig::default(),
                &budget,
                &Tracer::disabled()
            ),
            Err(MapError::Timeout)
        );
    }

    #[test]
    fn work_limit_exhausts_as_timeout() {
        // One placement attempt = one work unit; two units cannot place
        // a full GEMM body.
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let budget = ptmap_governor::Budget::with_work_limit(2);
        assert_eq!(
            crate::map_dfg_traced(
                &dfg,
                &presets::s4(),
                &MapperConfig::default(),
                &budget,
                &Tracer::disabled()
            ),
            Err(MapError::Timeout)
        );
    }

    #[test]
    fn generous_budget_matches_unbudgeted_mapping() {
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let cfg = MapperConfig::default();
        let free = map_dfg(&dfg, &presets::s4(), &cfg).unwrap();
        let budget = ptmap_governor::Budget::with_deadline(std::time::Duration::from_secs(3600));
        let timed = crate::map_dfg_traced(&dfg, &presets::s4(), &cfg, &budget, &Tracer::disabled())
            .unwrap();
        assert_eq!(free, timed);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_ii_spans() {
        let p = gemm(24);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let cfg = MapperConfig::default();
        let plain = map_dfg(&dfg, &presets::s4(), &cfg).unwrap();
        let tracer = Tracer::root("gemm");
        let traced = crate::map_dfg_traced(
            &dfg,
            &presets::s4(),
            &cfg,
            &ptmap_governor::Budget::unlimited(),
            &tracer,
        )
        .unwrap();
        // Tracing must not perturb the search.
        assert_eq!(plain, traced);
        let trace = tracer.finish().unwrap();
        let attempts: Vec<_> = trace.spans_named("ii_attempt").collect();
        assert!(!attempts.is_empty());
        // IIs escalate from MII to the accepted II; the last attempt
        // succeeded and carries the search counters.
        let last = attempts.last().unwrap();
        let attr = |name: &str| {
            last.attrs
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("missing attr {name}"))
                .1
                .clone()
        };
        assert_eq!(attr("ii"), ptmap_trace::AttrValue::UInt(traced.ii as u64));
        assert_eq!(attr("success"), ptmap_trace::AttrValue::Bool(true));
        let ptmap_trace::AttrValue::UInt(restarts) = attr("restarts") else {
            panic!("restarts not a uint");
        };
        assert!(restarts >= 1);
        let ptmap_trace::AttrValue::UInt(tried) = attr("placements_tried") else {
            panic!("placements_tried not a uint");
        };
        assert!(tried as usize >= dfg.len());
        for name in ["backtracks", "route_failures", "bfs_expansions"] {
            assert!(matches!(attr(name), ptmap_trace::AttrValue::UInt(_)));
        }
        // Failed rungs (if any) recorded success=false.
        for span in &attempts[..attempts.len() - 1] {
            assert!(span
                .attrs
                .iter()
                .any(|(k, v)| k == "success" && *v == ptmap_trace::AttrValue::Bool(false)));
        }
    }

    #[test]
    fn error_fault_at_mapper_place_surfaces() {
        // Scope-filtered so concurrently running tests in this binary
        // (the registry is process-global) never see the fault.
        let _guard = ptmap_governor::faultpoint::install("mapper_place:error@fault-test").unwrap();
        let p = vadd(64);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let r = ptmap_governor::faultpoint::with_scope("fault-test", || {
            crate::map_dfg_traced(
                &dfg,
                &presets::s4(),
                &MapperConfig::default(),
                &ptmap_governor::Budget::unlimited(),
                &Tracer::disabled(),
            )
        });
        assert_eq!(r, Err(MapError::Fault("mapper_place".to_string())));
    }

    #[test]
    fn found_mapping_survives_budget_expiry_in_polish_restart() {
        // Regression: with polish on (effort >= 2), `run_ii` keeps
        // searching after the first complete mapping. A deadline that
        // expires during one of those *later* restarts used to
        // propagate Timeout from `budget.check()` and drop the
        // already-found mapping. Wedge every restart with an injected
        // delay so restart 0 succeeds within the deadline and a later
        // restart reliably lands past it.
        let _guard =
            ptmap_governor::faultpoint::install("mapper_place:delay:150@keep-best").unwrap();
        use ptmap_ir::OpKind;
        let mut dfg = ptmap_ir::Dfg::new();
        let a = dfg.add_node(OpKind::Add, None, None);
        let b = dfg.add_node(OpKind::Mul, None, None);
        let c = dfg.add_node(OpKind::Add, None, None);
        dfg.add_edge(a, b, 0);
        dfg.add_edge(b, c, 0);
        let cfg = MapperConfig::default().with_effort(2);
        let budget = ptmap_governor::Budget::with_deadline(std::time::Duration::from_millis(400));
        let m = ptmap_governor::faultpoint::with_scope("keep-best", || {
            crate::map_dfg_traced(&dfg, &presets::s4(), &cfg, &budget, &Tracer::disabled())
        })
        .expect("the mapping found before the deadline expired must be returned");
        assert_eq!(m.placements.len(), dfg.len());
        crate::validate::validate(&dfg, &presets::s4(), &m).unwrap();
    }
}
