//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use pt_map::arch::presets;
use pt_map::eval::{hypervolume, rank_pareto, rank_performance};
use pt_map::ir::dfg::build_dfg;
use pt_map::ir::{AffineExpr, LoopId, ProgramBuilder};
use pt_map::mapper::{map_dfg, MapperConfig};
use pt_map::sim::verify_mapping;
use pt_map::workloads::{RandomProgramConfig, RandomProgramGenerator};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Affine substitution distributes over addition.
    #[test]
    fn affine_substitution_distributes(a in -8i64..8, b in -8i64..8, c in -8i64..8) {
        let i = LoopId(0);
        let j = LoopId(1);
        let e1 = AffineExpr::var(i) * a + AffineExpr::constant(b);
        let e2 = AffineExpr::var(i) * c;
        let repl = AffineExpr::var(j) * 4 + AffineExpr::constant(1);
        let lhs = (e1.clone() + e2.clone()).substitute(i, &repl);
        let rhs = e1.substitute(i, &repl) + e2.substitute(i, &repl);
        prop_assert_eq!(lhs, rhs);
    }

    /// Evaluation of a substituted expression equals evaluation of the
    /// original under the substituted assignment.
    #[test]
    fn affine_substitution_sound(a in -8i64..8, b in -8i64..8, iv in 0i64..16, jv in 0i64..16) {
        let i = LoopId(0);
        let j = LoopId(1);
        let e = AffineExpr::var(i) * a + AffineExpr::constant(b);
        let repl = AffineExpr::var(j) * 2 + AffineExpr::constant(3);
        let substituted = e.substitute(i, &repl);
        let mut asg = std::collections::BTreeMap::new();
        asg.insert(j, jv);
        let mut asg_orig = asg.clone();
        asg_orig.insert(i, repl.eval(&asg));
        let _ = iv;
        prop_assert_eq!(substituted.eval(&asg), e.eval(&asg_orig));
    }

    /// Hypervolume is monotone: dominating points never rank lower.
    #[test]
    fn hypervolume_monotone(c in 1u64..1000, v in 1u64..1000, dc in 0u64..100, dv in 0u64..100) {
        let reference = (2000, 2000);
        prop_assert!(hypervolume((c, v), reference) >= hypervolume((c + dc, v + dv), reference));
    }

    /// Performance ranking returns a permutation sorted by (cycles, volume).
    #[test]
    fn performance_rank_is_sorted_permutation(points in proptest::collection::vec((1u64..10_000, 1u64..10_000), 1..24)) {
        let order = rank_performance(&points);
        let mut seen = vec![false; points.len()];
        for &i in &order {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        for w in order.windows(2) {
            prop_assert!(points[w[0]] <= points[w[1]]);
        }
        let pareto_order = rank_pareto(&points);
        prop_assert_eq!(pareto_order.len(), points.len());
    }

    /// Random programs: DFGs are structurally valid for any unroll
    /// factor, and unrolling multiplies the non-CSE'd op count at most
    /// linearly.
    #[test]
    fn random_program_dfgs_valid(seed in 0u64..500, factor in 1u32..8) {
        let mut g = RandomProgramGenerator::new(RandomProgramConfig::default(), seed);
        let p = g.next_program();
        let nest = p.perfect_nests().remove(0);
        let base = build_dfg(&p, &nest, &[]).unwrap();
        let unrolled = build_dfg(&p, &nest, &[(nest.pipelined_loop(), factor)]).unwrap();
        prop_assert!(base.validate().is_ok());
        prop_assert!(unrolled.validate().is_ok());
        prop_assert!(unrolled.len() <= base.len() * factor as usize);
        prop_assert!(unrolled.len() >= base.len());
    }

    /// The linear-time schedule helpers agree with the edge-scanning
    /// definitions they replaced, topological order included.
    #[test]
    fn dfg_schedule_matches_edge_scans(seed in 0u64..300, factor in 1u32..6) {
        let mut g = RandomProgramGenerator::new(RandomProgramConfig::default(), seed);
        let p = g.next_program();
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[(nest.pipelined_loop(), factor)]).unwrap();
        let order = scan::topo_order_dist0(&dfg);
        prop_assert_eq!(dfg.topo_order_dist0(), order);
        let asap = scan::asap(&dfg);
        let alap = scan::alap(&dfg);
        let critical_path = scan::critical_path(&dfg);
        prop_assert_eq!(&dfg.asap(), &asap);
        prop_assert_eq!(&dfg.alap(), &alap);
        prop_assert_eq!(dfg.critical_path(), critical_path);
        let s = dfg.schedule();
        prop_assert_eq!(s.asap, asap);
        prop_assert_eq!(s.alap, alap);
        prop_assert_eq!(s.critical_path, critical_path);
    }

    /// `build_dfg` adds the same memory edges, in the same order, as the
    /// clone-per-pair definition it replaced, under any unroll vector.
    #[test]
    fn build_dfg_memory_edges_match_the_cloning_definition(
        seed in 0u64..300,
        factors in proptest::collection::vec(1u32..4, 3..4),
    ) {
        let mut g = RandomProgramGenerator::new(RandomProgramConfig::default(), seed);
        let p = g.next_program();
        let nest = p.perfect_nests().remove(0);
        let unroll: Vec<_> = nest.loops.iter().copied().zip(factors).collect();
        let dfg = build_dfg(&p, &nest, &unroll).unwrap();
        prop_assert_eq!(&dfg, &cloning::with_memory_edges(&dfg, nest.pipelined_loop()));
    }

    /// Every successful mapping of a random program verifies: slots are
    /// exclusive and all edge timings hold.
    #[test]
    fn random_mappings_verify(seed in 0u64..200) {
        let mut g = RandomProgramGenerator::new(RandomProgramConfig::default(), seed);
        let p = g.next_program();
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        if let Ok(m) = map_dfg(&dfg, &presets::s4(), &MapperConfig::default()) {
            prop_assert!(verify_mapping(&dfg, &m).is_ok());
            prop_assert!(m.ii >= m.mii);
        }
    }

    /// The dependence analysis never reports a lexicographically
    /// backward exact vector (normalization invariant).
    #[test]
    fn dependences_are_forward(seed in 0u64..300) {
        let mut g = RandomProgramGenerator::new(RandomProgramConfig::default(), seed);
        let p = g.next_program();
        let deps = pt_map::ir::DependenceSet::analyze(&p);
        for dep in deps.iter() {
            let mut verdict = true;
            for d in &dep.distance {
                match d {
                    pt_map::ir::Distance::Exact(0) => continue,
                    pt_map::ir::Distance::Exact(x) => { verdict = *x > 0; break; }
                    _ => break,
                }
            }
            prop_assert!(verdict, "backward dependence: {}", dep);
        }
    }

    /// Tiling preserves the total iteration count up to ceil padding.
    #[test]
    fn strip_mine_preserves_iterations(n_pow in 3u32..8, t_pow in 1u32..6) {
        let n = 1u64 << n_pow;
        let tile = 1u64 << t_pow;
        prop_assume!(tile < n);
        let mut b = ProgramBuilder::new("p");
        let x = b.array("X", &[n]);
        let i = b.open_loop("i", n);
        let v = b.add(b.load(x, &[b.idx(i)]), b.constant(1));
        b.store(x, &[b.idx(i)], v);
        b.close_loop();
        let p = b.finish();
        let (q, _) = pt_map::transform::primitives::strip_mine(&p, i, tile).unwrap();
        let nest = q.perfect_nests().remove(0);
        prop_assert_eq!(nest.total_iterations(), n.div_ceil(tile) * tile);
    }
}

/// The DFG schedule helpers as they were defined before they became
/// linear: every node scans the whole edge list.
mod scan {
    use pt_map::ir::Dfg;

    pub fn asap(dfg: &Dfg) -> Vec<u32> {
        let order = topo_order_dist0(dfg).expect("dist-0 subgraph must be acyclic");
        let mut asap = vec![0u32; dfg.len()];
        for &n in &order {
            for e in dfg
                .edges()
                .iter()
                .filter(|e| e.dist == 0 && e.dst.index() == n)
            {
                let src = e.src.index();
                let cand = asap[src] + dfg.nodes()[src].latency();
                asap[n] = asap[n].max(cand);
            }
        }
        asap
    }

    pub fn alap(dfg: &Dfg) -> Vec<u32> {
        let asap = asap(dfg);
        let horizon = dfg
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| asap[i] + n.latency())
            .max()
            .unwrap_or(0);
        let order = topo_order_dist0(dfg).expect("dist-0 subgraph must be acyclic");
        let mut alap: Vec<u32> = dfg
            .nodes()
            .iter()
            .map(|n| horizon.saturating_sub(n.latency()))
            .collect();
        for &n in order.iter().rev() {
            for e in dfg
                .edges()
                .iter()
                .filter(|e| e.dist == 0 && e.src.index() == n)
            {
                let cand = alap[e.dst.index()].saturating_sub(dfg.nodes()[n].latency());
                alap[n] = alap[n].min(cand);
            }
        }
        alap
    }

    pub fn critical_path(dfg: &Dfg) -> u32 {
        let asap = asap(dfg);
        dfg.nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| asap[i] + n.latency())
            .max()
            .unwrap_or(0)
    }

    pub fn topo_order_dist0(dfg: &Dfg) -> Option<Vec<usize>> {
        let n = dfg.len();
        let mut indeg = vec![0usize; n];
        for e in dfg.edges().iter().filter(|e| e.dist == 0) {
            indeg[e.dst.index()] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for e in dfg
                .edges()
                .iter()
                .filter(|e| e.dist == 0 && e.src.index() == v)
            {
                indeg[e.dst.index()] -= 1;
                if indeg[e.dst.index()] == 0 {
                    queue.push(e.dst.index());
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

/// `build_dfg`'s memory edges as they were added before they stopped
/// cloning: both access lists and both accesses cloned per (store, load)
/// pair, and each subscript distance read off a full subtraction.
mod cloning {
    use pt_map::ir::dfg::EdgeKind;
    use pt_map::ir::{Dfg, LoopId, NodeId, OpKind};

    /// `dfg` without its memory (order) edges, which `build_dfg` adds
    /// last, with them added back by the old definition.
    pub fn with_memory_edges(dfg: &Dfg, p: LoopId) -> Dfg {
        let mut out = Dfg::new();
        for n in dfg.nodes() {
            let id = out.add_node(n.op, n.access.clone(), n.imm);
            if let Some(s) = n.scalar {
                out.bind_scalar(id, s);
            }
        }
        for e in dfg.edges().iter().filter(|e| e.kind == EdgeKind::Data) {
            out.add_edge_kind(e.src, e.dst, e.dist, e.kind);
        }
        let of = |op: OpKind| -> Vec<NodeId> {
            out.nodes()
                .iter()
                .filter(|n| n.op == op)
                .map(|n| n.id)
                .collect()
        };
        let (stores, loads) = (of(OpKind::Store), of(OpKind::Load));
        add_memory_edges(&mut out, &stores, &loads, p);
        out
    }

    fn add_memory_edges(dfg: &mut Dfg, stores: &[NodeId], loads: &[NodeId], p: LoopId) {
        let stores = stores.to_vec();
        let loads = loads.to_vec();
        for &st in &stores {
            let sa = dfg.nodes()[st.index()]
                .access
                .clone()
                .expect("store has access");
            for &ld in &loads {
                let la = dfg.nodes()[ld.index()]
                    .access
                    .clone()
                    .expect("load has access");
                if la.array != sa.array || !la.is_uniform_with(&sa) {
                    continue;
                }
                let mut d: Option<i64> = None;
                let mut same_everywhere = true;
                let mut feasible = true;
                for (es, el) in sa.indices.iter().zip(&la.indices) {
                    let diff = es.clone() - el.clone();
                    let k = diff.constant_term();
                    let c = el.coeff(p);
                    if c == 0 {
                        if k != 0 {
                            feasible = false;
                            break;
                        }
                    } else {
                        same_everywhere = false;
                        if k % c != 0 {
                            feasible = false;
                            break;
                        }
                        let this_d = k / c;
                        match d {
                            None => d = Some(this_d),
                            Some(prev) if prev != this_d => {
                                feasible = false;
                                break;
                            }
                            _ => {}
                        }
                    }
                }
                if !feasible {
                    continue;
                }
                let dist = if same_everywhere {
                    if st.index() < ld.index() {
                        0
                    } else {
                        1
                    }
                } else {
                    d.unwrap_or(0)
                };
                match dist.cmp(&0) {
                    std::cmp::Ordering::Greater => {
                        dfg.add_edge_kind(st, ld, dist as u32, EdgeKind::Order);
                    }
                    std::cmp::Ordering::Equal => {
                        if st.index() < ld.index() {
                            dfg.add_edge_kind(st, ld, 0, EdgeKind::Order);
                        } else {
                            dfg.add_edge_kind(ld, st, 0, EdgeKind::Order);
                        }
                    }
                    std::cmp::Ordering::Less => {
                        dfg.add_edge_kind(ld, st, (-dist) as u32, EdgeKind::Order);
                    }
                }
            }
        }
    }
}
