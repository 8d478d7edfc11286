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

    /// `build_dfg` returns the same DFG (nodes, edges and their order) as
    /// the cloning definition it replaced, for random programs strip-mined
    /// to 1-3 loops under random unroll vectors of 1-3 dimensions.
    #[test]
    fn build_dfg_memory_edges_match_the_cloning_definition(
        seed in 0u64..300,
        depth in 1usize..4,
        dims in proptest::collection::vec((0usize..3, 1u32..9), 1..4),
    ) {
        let mut g = RandomProgramGenerator::new(RandomProgramConfig::default(), seed);
        let mut p = g.next_program();
        // Strip-mining the outermost loop by 4 adds a loop and gives the
        // subscripts coefficients other than 1 (16*i_t_t + 4*i_t + i).
        let mut outer = p.perfect_nests().remove(0).loops[0];
        for _ in 1..depth {
            (p, outer) = pt_map::transform::primitives::strip_mine(&p, outer, 4).unwrap();
        }
        let nest = p.perfect_nests().remove(0);
        let mut unroll: Vec<(LoopId, u32)> = Vec::new();
        for (pos, f) in dims {
            let l = nest.loops[pos % nest.loops.len()];
            if unroll.iter().all(|&(u, _)| u != l) {
                unroll.push((l, f));
            }
        }
        let dfg = build_dfg(&p, &nest, &unroll).unwrap();
        prop_assert_eq!(&dfg, &cloning::build_dfg(&p, &nest, &unroll).unwrap());
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

/// Every candidate the default exploration yields for the eleven fig9
/// apps gets the DFG the cloning definition builds. They include memory
/// reductions (COV, TMM), stencils (BLU, HAR) and scalar temporaries
/// (WIN).
#[test]
fn fig9_candidates_match_the_cloning_definition() {
    let config = pt_map::transform::ExploreConfig::default();
    let mut checked = 0;
    for (code, program) in pt_map::workloads::apps::all() {
        let forest = pt_map::transform::explore(&program, &config);
        for c in forest
            .variants
            .iter()
            .flat_map(|v| v.pnl_candidates.iter().flatten())
        {
            assert_eq!(
                build_dfg(&c.program, &c.nest, &c.unroll),
                cloning::build_dfg(&c.program, &c.nest, &c.unroll),
                "{code}: unroll {:?}",
                c.unroll
            );
            checked += 1;
        }
    }
    assert!(checked > 1000, "only {checked} candidates");
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

/// `build_dfg` as it was before it stopped rewriting statements: each
/// unrolled copy clones every statement and substitutes it once per
/// unrolled loop, loads are CSE'd through a map keyed on the substituted
/// access, every store is paired with every load, and every edge is
/// deduplicated against the whole edge list.
mod cloning {
    use pt_map::ir::dfg::EdgeKind;
    use pt_map::ir::{
        AffineExpr, ArrayAccess, Dfg, Expr, IrError, LValue, LoopId, NodeId, OpKind, PerfectNest,
        Program, ScalarId, Stmt,
    };
    use std::collections::HashMap;

    pub fn build_dfg(
        program: &Program,
        nest: &PerfectNest,
        unroll: &[(LoopId, u32)],
    ) -> Result<Dfg, IrError> {
        for &(l, f) in unroll {
            if f == 0 {
                return Err(IrError::ZeroUnrollFactor);
            }
            if nest.position(l).is_none() {
                return Err(IrError::BadUnrollArity {
                    loops: nest.loops.len(),
                    factors: unroll.len(),
                });
            }
        }
        let _ = program;

        let mut dims: Vec<(LoopId, u32)> = Vec::new();
        for &l in &nest.loops {
            let f = unroll
                .iter()
                .find(|&&(ul, _)| ul == l)
                .map(|&(_, f)| f)
                .unwrap_or(1);
            if f > 1 {
                dims.push((l, f));
            }
        }

        let mut builder = DfgBuilder::default();
        let written: Vec<ScalarId> = nest
            .stmts
            .iter()
            .filter_map(|s| match &s.target {
                LValue::Scalar(sc) => Some(*sc),
                _ => None,
            })
            .collect();
        builder.written_scalars = written;

        let total: u64 = dims.iter().map(|&(_, f)| f as u64).product();
        for combo in 0..total.max(1) {
            let mut rem = combo;
            let mut offsets: Vec<(LoopId, u32, u32)> = Vec::new();
            for &(l, f) in dims.iter().rev() {
                offsets.push((l, f, (rem % f as u64) as u32));
                rem /= f as u64;
            }
            offsets.reverse();
            for stmt in &nest.stmts {
                let mut inst = stmt.clone();
                for &(l, f, off) in &offsets {
                    let repl = AffineExpr::var(l) * f as i64 + AffineExpr::constant(off as i64);
                    inst = inst.substitute(l, &repl);
                }
                builder.emit_stmt(&inst);
            }
        }
        builder.patch_pending();
        builder.add_memory_edges(nest.pipelined_loop());
        Ok(builder.dfg)
    }

    #[derive(Default)]
    struct DfgBuilder {
        dfg: Dfg,
        load_cache: HashMap<ArrayAccess, NodeId>,
        const_cache: HashMap<i64, NodeId>,
        index_cache: HashMap<LoopId, NodeId>,
        scalar_env: HashMap<ScalarId, NodeId>,
        pending_reads: Vec<(ScalarId, NodeId)>,
        written_scalars: Vec<ScalarId>,
        stores: Vec<NodeId>,
        loads: Vec<NodeId>,
    }

    impl DfgBuilder {
        fn emit_stmt(&mut self, stmt: &Stmt) {
            if stmt.is_reduction() {
                if let (LValue::Scalar(s), Expr::Binary(op, a, b)) = (&stmt.target, &stmt.value) {
                    let other = if matches!(**a, Expr::Scalar(x) if x == *s) {
                        b
                    } else if matches!(**b, Expr::Scalar(x) if x == *s) {
                        a
                    } else {
                        unreachable!("is_reduction guarantees an operand reads the target")
                    };
                    let x = self.emit_expr(other);
                    let acc = self.dfg.add_node(*op, None, None);
                    self.dfg.add_edge(x, acc, 0);
                    self.dfg.add_edge(acc, acc, 1);
                    self.scalar_env.insert(*s, acc);
                    return;
                }
            }
            let value = self.emit_expr(&stmt.value);
            match &stmt.target {
                LValue::Scalar(s) => {
                    self.scalar_env.insert(*s, value);
                }
                LValue::Array(acc) => {
                    let st = self.dfg.add_node(OpKind::Store, Some(acc.clone()), None);
                    self.dfg.add_edge(value, st, 0);
                    self.stores.push(st);
                    self.load_cache.retain(|k, _| k.array != acc.array);
                }
            }
        }

        fn emit_expr(&mut self, e: &Expr) -> NodeId {
            match e {
                Expr::Const(c) => {
                    if let Some(&n) = self.const_cache.get(c) {
                        return n;
                    }
                    let n = self.dfg.add_node(OpKind::Const, None, Some(*c));
                    self.const_cache.insert(*c, n);
                    n
                }
                Expr::Index(l) => {
                    if let Some(&n) = self.index_cache.get(l) {
                        return n;
                    }
                    let n = self.dfg.add_node(OpKind::Const, None, None);
                    self.index_cache.insert(*l, n);
                    n
                }
                Expr::Scalar(s) => {
                    if let Some(&n) = self.scalar_env.get(s) {
                        n
                    } else if self.written_scalars.contains(s) {
                        let n = self.dfg.add_node(OpKind::Route, None, None);
                        self.pending_reads.push((*s, n));
                        n
                    } else {
                        let n = self.dfg.add_node(OpKind::Const, None, None);
                        self.dfg.bind_scalar(n, *s);
                        self.scalar_env.insert(*s, n);
                        n
                    }
                }
                Expr::Load(acc) => {
                    if let Some(&n) = self.load_cache.get(acc) {
                        return n;
                    }
                    let n = self.dfg.add_node(OpKind::Load, Some(acc.clone()), None);
                    self.load_cache.insert(acc.clone(), n);
                    self.loads.push(n);
                    n
                }
                Expr::Unary(op, a) => {
                    let an = self.emit_expr(a);
                    let n = self.dfg.add_node(*op, None, None);
                    self.dfg.add_edge(an, n, 0);
                    n
                }
                Expr::Binary(op, a, b) => {
                    let an = self.emit_expr(a);
                    let bn = self.emit_expr(b);
                    let n = self.dfg.add_node(*op, None, None);
                    self.dfg.add_edge(an, n, 0);
                    self.dfg.add_edge(bn, n, 0);
                    n
                }
            }
        }

        fn patch_pending(&mut self) {
            for (s, consumer) in std::mem::take(&mut self.pending_reads) {
                if let Some(&producer) = self.scalar_env.get(&s) {
                    self.dfg.add_edge(producer, consumer, 1);
                }
            }
        }

        fn add_memory_edges(&mut self, p: LoopId) {
            let mut edges = Vec::new();
            let nodes = self.dfg.nodes();
            for &st in &self.stores {
                let sa = nodes[st.index()].access.as_ref().expect("store has access");
                for &ld in &self.loads {
                    let la = nodes[ld.index()].access.as_ref().expect("load has access");
                    if la.array != sa.array || !la.is_uniform_with(sa) {
                        continue;
                    }
                    let mut d: Option<i64> = None;
                    let mut same_everywhere = true;
                    let mut feasible = true;
                    for (es, el) in sa.indices.iter().zip(&la.indices) {
                        let k = es.constant_term() - el.constant_term();
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
                            edges.push((st, ld, dist as u32));
                        }
                        std::cmp::Ordering::Equal => {
                            if st.index() < ld.index() {
                                edges.push((st, ld, 0));
                            } else {
                                edges.push((ld, st, 0));
                            }
                        }
                        std::cmp::Ordering::Less => {
                            edges.push((ld, st, (-dist) as u32));
                        }
                    }
                }
            }
            for (src, dst, dist) in edges {
                self.dfg.add_edge_kind(src, dst, dist, EdgeKind::Order);
            }
        }
    }
}
