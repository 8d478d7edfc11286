//! Dataflow-graph construction for pipelined innermost loops.
//!
//! The DFG of a PNL's innermost body (optionally unrolled along any nest
//! dimensions) is what the modulo-scheduling mapper places onto the PE
//! array and what the GNN model consumes as `G_sw`.
//!
//! Modeling decisions (documented per DESIGN.md):
//!
//! * Affine address computation is folded into load/store nodes (CGRA
//!   load/store units include affine address generation), so a load is a
//!   single 2-cycle node rather than a chain of index ALU ops.
//! * Identical loads are CSE'd until a potentially aliasing store
//!   invalidates them — this is what makes unrolling profitable for
//!   kernels with input reuse (e.g. `A[i][k]` shared across an unrolled
//!   `j` dimension in GEMM).
//! * Associative scalar reductions are *reassociated*: each unroll
//!   instance keeps a private accumulator realized as a self-edge with
//!   iteration distance 1, the standard CGRA-compiler treatment that
//!   keeps RecMII at the operator latency.
//! * Memory-carried recurrences (store feeding a later load of the same
//!   element) become cross-iteration edges with their exact distance, so
//!   through-memory accumulation (GEMM with `k` innermost) correctly
//!   limits the initiation interval.

use crate::access::ArrayAccess;
use crate::affine::AffineExpr;
use crate::error::IrError;
use crate::expr::{Expr, LValue, Stmt};
use crate::id::{ArrayId, LoopId, NodeId, ScalarId};
use crate::nest::PerfectNest;
use crate::op::{OpClass, OpKind};
use crate::program::Program;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// A node of the dataflow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DfgNode {
    /// Node identity (dense, equals the index into [`Dfg::nodes`]).
    pub id: NodeId,
    /// Operation performed.
    pub op: OpKind,
    /// The array access for load/store nodes.
    pub access: Option<ArrayAccess>,
    /// Immediate value for constant nodes.
    pub imm: Option<i64>,
    /// For live-in constants: the scalar parameter they materialize.
    #[serde(default)]
    pub scalar: Option<ScalarId>,
}

impl DfgNode {
    /// Latency of this node in cycles.
    pub fn latency(&self) -> u32 {
        self.op.latency()
    }
}

/// How an edge constrains the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// A value flows through registers/interconnect: must be routed.
    Data,
    /// A memory-carried or anti ordering constraint: the destination
    /// must not start before the source finishes (plus the iteration
    /// distance), but nothing travels on the interconnect — the data
    /// buffer carries it.
    Order,
}

/// A directed edge of the dataflow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DfgEdge {
    /// Producer node.
    pub src: NodeId,
    /// Consumer node.
    pub dst: NodeId,
    /// Iteration distance: 0 for intra-iteration dataflow, ≥ 1 for
    /// loop-carried recurrences (in iterations of the pipelined loop).
    pub dist: u32,
    /// Data (routed) or ordering-only constraint.
    pub kind: EdgeKind,
}

/// The dataflow graph of one pipelined loop body.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dfg {
    nodes: Vec<DfgNode>,
    edges: Vec<DfgEdge>,
}

impl Dfg {
    /// Creates an empty DFG.
    pub fn new() -> Self {
        Self::default()
    }

    /// The nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[DfgNode] {
        &self.nodes
    }

    /// The edges.
    pub fn edges(&self) -> &[DfgEdge] {
        &self.edges
    }

    /// Adds a node and returns its id.
    pub fn add_node(
        &mut self,
        op: OpKind,
        access: Option<ArrayAccess>,
        imm: Option<i64>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(DfgNode {
            id,
            op,
            access,
            imm,
            scalar: None,
        });
        id
    }

    /// Binds a live-in scalar parameter to a constant node.
    pub fn bind_scalar(&mut self, node: NodeId, scalar: ScalarId) {
        self.nodes[node.index()].scalar = Some(scalar);
    }

    /// Adds a data (routed) edge. Parallel edges are deduplicated.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, dist: u32) {
        self.add_edge_kind(src, dst, dist, EdgeKind::Data);
    }

    /// Adds an edge of an explicit kind. Parallel edges are deduplicated.
    pub fn add_edge_kind(&mut self, src: NodeId, dst: NodeId, dist: u32, kind: EdgeKind) {
        let e = DfgEdge {
            src,
            dst,
            dist,
            kind,
        };
        if !self.edges.contains(&e) {
            self.edges.push(e);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Predecessor edges of a node.
    pub fn preds(&self, n: NodeId) -> impl Iterator<Item = &DfgEdge> {
        self.edges.iter().filter(move |e| e.dst == n)
    }

    /// Successor edges of a node.
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = &DfgEdge> {
        self.edges.iter().filter(move |e| e.src == n)
    }

    /// In- and out-degree (incoming and outgoing edge counts) of every
    /// node, from one pass over the edges.
    pub fn degrees(&self) -> (Vec<usize>, Vec<usize>) {
        let mut in_degree = vec![0; self.nodes.len()];
        let mut out_degree = vec![0; self.nodes.len()];
        for e in &self.edges {
            in_degree[e.dst.index()] += 1;
            out_degree[e.src.index()] += 1;
        }
        (in_degree, out_degree)
    }

    /// Count of nodes per operation class.
    pub fn class_counts(&self) -> BTreeMap<OpClass, usize> {
        let mut out = BTreeMap::new();
        for n in &self.nodes {
            *out.entry(n.op.class()).or_insert(0) += 1;
        }
        out
    }

    /// Count of nodes per operation kind.
    pub fn op_counts(&self) -> BTreeMap<OpKind, usize> {
        let mut out = BTreeMap::new();
        for n in &self.nodes {
            *out.entry(n.op).or_insert(0) += 1;
        }
        out
    }

    /// ASAP start times over intra-iteration (distance-0) edges.
    ///
    /// # Panics
    ///
    /// Panics if the distance-0 subgraph has a cycle (a malformed DFG;
    /// [`validate`](Self::validate) catches this).
    pub fn asap(&self) -> Vec<u32> {
        let adj = Dist0::new(self);
        let order = adj.topo_order().expect("dist-0 subgraph must be acyclic");
        self.asap_in(&adj, &order)
    }

    /// ALAP start times against the ASAP schedule length.
    pub fn alap(&self) -> Vec<u32> {
        self.schedule().alap
    }

    /// Length of the critical path (cycles) through distance-0 edges,
    /// including the latency of the last node.
    pub fn critical_path(&self) -> u32 {
        self.horizon(&self.asap())
    }

    /// ASAP and ALAP start times and the critical path length, from one
    /// topological sort and one ASAP pass. Equal to [`asap`](Self::asap),
    /// [`alap`](Self::alap) and [`critical_path`](Self::critical_path).
    ///
    /// # Panics
    ///
    /// Panics if the distance-0 subgraph has a cycle.
    pub fn schedule(&self) -> Schedule {
        let adj = Dist0::new(self);
        let order = adj.topo_order().expect("dist-0 subgraph must be acyclic");
        let asap = self.asap_in(&adj, &order);
        let horizon = self.horizon(&asap);
        let mut alap: Vec<u32> = self
            .nodes
            .iter()
            .map(|n| horizon.saturating_sub(n.latency()))
            .collect();
        for &n in order.iter().rev() {
            for &dst in &adj.succs[n] {
                let cand = alap[dst].saturating_sub(self.nodes[n].latency());
                alap[n] = alap[n].min(cand);
            }
        }
        Schedule {
            asap,
            alap,
            critical_path: horizon,
        }
    }

    /// Topological order of the distance-0 subgraph, or `None` on a cycle.
    pub fn topo_order_dist0(&self) -> Option<Vec<usize>> {
        Dist0::new(self).topo_order()
    }

    fn asap_in(&self, adj: &Dist0, order: &[usize]) -> Vec<u32> {
        let mut asap = vec![0u32; self.nodes.len()];
        for &n in order {
            for &src in &adj.preds[n] {
                let cand = asap[src] + self.nodes[src].latency();
                asap[n] = asap[n].max(cand);
            }
        }
        asap
    }

    /// The latest finish time of the schedule `asap`.
    fn horizon(&self, asap: &[u32]) -> u32 {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| asap[i] + n.latency())
            .max()
            .unwrap_or(0)
    }

    /// Checks structural invariants: edge endpoints in range, positive
    /// self-edge distances, acyclic distance-0 subgraph.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::NotPerfectNest`] never; this method reports
    /// violations as a list of human-readable strings instead so callers
    /// can aggregate them.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        for e in &self.edges {
            if e.src.index() >= self.nodes.len() || e.dst.index() >= self.nodes.len() {
                problems.push(format!("edge {}->{} out of range", e.src, e.dst));
            }
            if e.src == e.dst && e.dist == 0 {
                problems.push(format!("zero-distance self edge on {}", e.src));
            }
        }
        if self.topo_order_dist0().is_none() {
            problems.push("distance-0 subgraph has a cycle".to_string());
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// Schedule bounds of a DFG's distance-0 subgraph (see [`Dfg::schedule`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// ASAP start time per node.
    pub asap: Vec<u32>,
    /// ALAP start time per node, against the ASAP schedule length.
    pub alap: Vec<u32>,
    /// Critical path length in cycles, including the last node's latency.
    pub critical_path: u32,
}

/// Per-node distance-0 neighbours: `preds[n]` holds the source of every
/// distance-0 edge into `n`, `succs[n]` the destination of every one out
/// of `n`, each list in global edge order (duplicates kept), so a walk
/// visits edges in the same order as a filtered scan of [`Dfg::edges`].
struct Dist0 {
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl Dist0 {
    fn new(dfg: &Dfg) -> Self {
        let n = dfg.nodes.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for e in dfg.edges.iter().filter(|e| e.dist == 0) {
            preds[e.dst.index()].push(e.src.index());
            succs[e.src.index()].push(e.dst.index());
        }
        Dist0 { preds, succs }
    }

    /// Kahn's algorithm with a LIFO work list, or `None` on a cycle.
    fn topo_order(&self) -> Option<Vec<usize>> {
        let n = self.preds.len();
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &dst in &self.succs[v] {
                indeg[dst] -= 1;
                if indeg[dst] == 0 {
                    queue.push(dst);
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

/// Builds the DFG of a PNL's innermost body with optional multi-dimensional
/// unrolling.
///
/// `unroll` maps nest loops to factors (absent loops keep factor 1). The
/// replication order is outermost-unrolled-first, matching source-level
/// unroll-and-jam.
///
/// # Errors
///
/// Returns [`IrError::ZeroUnrollFactor`] for zero factors and
/// [`IrError::BadUnrollArity`] when a factor refers to a loop outside the
/// nest.
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
    let _ = program; // array decls only matter to downstream consumers

    // Unrolled loops in nest order with their factors.
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

    // Pre-scan: which scalars are written anywhere in the body.
    let written: Vec<ScalarId> = nest
        .stmts
        .iter()
        .filter_map(|s| match &s.target {
            LValue::Scalar(sc) => Some(*sc),
            _ => None,
        })
        .collect();
    builder.written_scalars = written;

    // Enumerate offset combinations in lexicographic order. Each copy
    // substitutes `l := f*l + off` for every unrolled `(l, f, off)`,
    // applied while walking the original statements.
    let total: u64 = dims.iter().map(|&(_, f)| f as u64).product();
    let mut inst: Vec<(LoopId, u32, u32)> = dims.iter().map(|&(l, f)| (l, f, 0)).collect();
    for combo in 0..total.max(1) {
        let mut rem = combo;
        for slot in inst.iter_mut().rev() {
            slot.2 = (rem % slot.1 as u64) as u32;
            rem /= slot.1 as u64;
        }
        for stmt in &nest.stmts {
            builder.emit_stmt(stmt, &inst);
        }
    }
    builder.patch_pending();
    builder.add_memory_edges(nest.pipelined_loop());
    Ok(builder.dfg)
}

/// One unrolled copy of the body: `(loop, factor, offset)` for each
/// unrolled loop in nest order. The copy reads loop `l` as `f*l + off`.
type Instance = [(LoopId, u32, u32)];

/// `acc` as the copy `inst` reads it: every subscript with each
/// `l := f*l + off` applied, equal to [`ArrayAccess::substitute`] with
/// those replacements in turn.
fn instantiate(acc: &ArrayAccess, inst: &Instance) -> ArrayAccess {
    let mut out = acc.clone();
    for e in &mut out.indices {
        for &(l, f, off) in inst {
            e.unroll_in_place(l, f as i64, off as i64);
        }
    }
    out
}

/// Whether `have == instantiate(orig, inst)`, decided without building
/// the right-hand side.
fn is_instance(have: &ArrayAccess, orig: &ArrayAccess, inst: &Instance) -> bool {
    have.array == orig.array
        && have.indices.len() == orig.indices.len()
        && have
            .indices
            .iter()
            .zip(&orig.indices)
            .all(|(h, e)| is_subscript_instance(h, e, inst))
}

fn is_subscript_instance(have: &AffineExpr, orig: &AffineExpr, inst: &Instance) -> bool {
    let mut constant = orig.constant_term();
    let mut touched = false;
    for &(l, _, off) in inst {
        let c = orig.coeff(l);
        if c != 0 {
            touched = true;
            constant += c * off as i64;
        }
    }
    if !touched {
        // No substitution applies, so the copy keeps the subscript
        // verbatim, a stored zero coefficient included.
        return have == orig;
    }
    // Each applied substitution scales its loop's coefficient and drops
    // every zero coefficient.
    let factor = |l: LoopId| {
        inst.iter()
            .find(|&&(u, _, _)| u == l)
            .map_or(1, |&(_, f, _)| f as i64)
    };
    have.constant_term() == constant
        && have.terms().eq(orig
            .terms()
            .map(|(l, c)| (l, c * factor(l)))
            .filter(|&(_, c)| c != 0))
}

#[derive(Default)]
struct DfgBuilder {
    dfg: Dfg,
    /// Loads available for CSE, with their arrays; no two carry equal
    /// accesses. A store drops the loads of its array.
    live_loads: Vec<(ArrayId, NodeId)>,
    const_cache: HashMap<i64, NodeId>,
    index_cache: HashMap<LoopId, NodeId>,
    scalar_env: HashMap<ScalarId, NodeId>,
    /// Scalar reads that occurred before any write in body order:
    /// (scalar, consumer). Patched at the end to the last write (distance
    /// 1 recurrence) or a live-in constant node.
    pending_reads: Vec<(ScalarId, NodeId)>,
    written_scalars: Vec<ScalarId>,
    stores: Vec<NodeId>,
    loads: Vec<(ArrayId, NodeId)>,
}

impl DfgBuilder {
    /// Adds a data edge into `dst` unless it is already there. Every
    /// data edge into a node is added right after the node (a pending
    /// read's `Route` node has none until its one patch edge), so the
    /// edges into `dst` are the trailing run of the edge list.
    fn add_data_edge(&mut self, src: NodeId, dst: NodeId, dist: u32) {
        let e = DfgEdge {
            src,
            dst,
            dist,
            kind: EdgeKind::Data,
        };
        let edges = &mut self.dfg.edges;
        if !edges
            .iter()
            .rev()
            .take_while(|x| x.dst == dst)
            .any(|x| *x == e)
        {
            edges.push(e);
        }
    }

    fn emit_stmt(&mut self, stmt: &Stmt, inst: &Instance) {
        // Reassociated scalar reduction: `s = s ⊕ x` becomes an ⊕ node
        // with a distance-1 self edge; no separate read of `s`. Every
        // copy of a statement is a reduction exactly when the original
        // is: the substitution maps equal accesses to equal accesses.
        if stmt.is_reduction() {
            if let (LValue::Scalar(s), Expr::Binary(op, a, b)) = (&stmt.target, &stmt.value) {
                let other = if matches!(**a, Expr::Scalar(x) if x == *s) {
                    b
                } else if matches!(**b, Expr::Scalar(x) if x == *s) {
                    a
                } else {
                    unreachable!("is_reduction guarantees an operand reads the target")
                };
                let x = self.emit_expr(other, inst);
                let acc = self.dfg.add_node(*op, None, None);
                self.add_data_edge(x, acc, 0);
                self.add_data_edge(acc, acc, 1);
                self.scalar_env.insert(*s, acc);
                return;
            }
        }
        let value = self.emit_expr(&stmt.value, inst);
        match &stmt.target {
            LValue::Scalar(s) => {
                self.scalar_env.insert(*s, value);
            }
            LValue::Array(acc) => {
                let st = self
                    .dfg
                    .add_node(OpKind::Store, Some(instantiate(acc, inst)), None);
                self.add_data_edge(value, st, 0);
                self.stores.push(st);
                // Invalidate cached loads of this array (conservative
                // may-alias within the body).
                self.live_loads.retain(|&(a, _)| a != acc.array);
            }
        }
    }

    fn emit_const(&mut self, c: i64) -> NodeId {
        if let Some(&n) = self.const_cache.get(&c) {
            return n;
        }
        let n = self.dfg.add_node(OpKind::Const, None, Some(c));
        self.const_cache.insert(c, n);
        n
    }

    fn emit_index(&mut self, l: LoopId) -> NodeId {
        if let Some(&n) = self.index_cache.get(&l) {
            return n;
        }
        // Loop counters are produced by the controller; model as a
        // constant-class node occupying an issue slot once.
        let n = self.dfg.add_node(OpKind::Const, None, None);
        self.index_cache.insert(l, n);
        n
    }

    fn emit_expr(&mut self, e: &Expr, inst: &Instance) -> NodeId {
        match e {
            Expr::Const(c) => self.emit_const(*c),
            Expr::Index(l) => {
                let Some(&(_, f, off)) = inst.iter().find(|&&(u, _, _)| u == *l) else {
                    return self.emit_index(*l);
                };
                // The unrolled leaf `f*l + off` (f > 1), in the node order
                // of the tree `Expr::substitute` builds for it.
                let fac = self.emit_const(f as i64);
                let idx = self.emit_index(*l);
                let mul = self.dfg.add_node(OpKind::Mul, None, None);
                self.add_data_edge(fac, mul, 0);
                self.add_data_edge(idx, mul, 0);
                if off == 0 {
                    return mul;
                }
                let shift = self.emit_const(off as i64);
                let add = self.dfg.add_node(OpKind::Add, None, None);
                self.add_data_edge(mul, add, 0);
                self.add_data_edge(shift, add, 0);
                add
            }
            Expr::Scalar(s) => {
                if let Some(&n) = self.scalar_env.get(s) {
                    n
                } else if self.written_scalars.contains(s) {
                    // Read-before-write: loop-carried; patched later.
                    let n = self.dfg.add_node(OpKind::Route, None, None);
                    self.pending_reads.push((*s, n));
                    n
                } else {
                    // Live-in parameter: materialized once.
                    let n = self.dfg.add_node(OpKind::Const, None, None);
                    self.dfg.bind_scalar(n, *s);
                    self.scalar_env.insert(*s, n);
                    n
                }
            }
            Expr::Load(acc) => {
                let nodes = &self.dfg.nodes;
                let hit = self.live_loads.iter().find(|&&(a, n)| {
                    a == acc.array
                        && is_instance(
                            nodes[n.index()].access.as_ref().expect("load has access"),
                            acc,
                            inst,
                        )
                });
                if let Some(&(_, n)) = hit {
                    return n;
                }
                let n = self
                    .dfg
                    .add_node(OpKind::Load, Some(instantiate(acc, inst)), None);
                self.live_loads.push((acc.array, n));
                self.loads.push((acc.array, n));
                n
            }
            Expr::Unary(op, a) => {
                let an = self.emit_expr(a, inst);
                let n = self.dfg.add_node(*op, None, None);
                self.add_data_edge(an, n, 0);
                n
            }
            Expr::Binary(op, a, b) => {
                let an = self.emit_expr(a, inst);
                let bn = self.emit_expr(b, inst);
                let n = self.dfg.add_node(*op, None, None);
                self.add_data_edge(an, n, 0);
                self.add_data_edge(bn, n, 0);
                n
            }
        }
    }

    fn patch_pending(&mut self) {
        for (s, consumer) in std::mem::take(&mut self.pending_reads) {
            if let Some(&producer) = self.scalar_env.get(&s) {
                // Value flows from the last write of the previous iteration.
                self.add_data_edge(producer, consumer, 1);
            }
            // A scalar read with no write at all was already handled as a
            // live-in, so `scalar_env` always has an entry here.
        }
    }

    /// Adds memory-carried edges between stores and loads of the same
    /// element across iterations of the pipelined loop `p`, in
    /// (store, load) order. Only accesses to one array can alias, so a
    /// store is paired with the loads of its own array alone.
    fn add_memory_edges(&mut self, p: LoopId) {
        let nodes = &self.dfg.nodes;
        // A stable sort keeps each array's loads in emission order.
        self.loads.sort_by_key(|&(a, _)| a);
        let mut edges = Vec::new();
        for &st in &self.stores {
            let sa = nodes[st.index()].access.as_ref().expect("store has access");
            let first = self.loads.partition_point(|&(a, _)| a < sa.array);
            for &(_, ld) in self.loads[first..]
                .iter()
                .take_while(|&&(a, _)| a == sa.array)
            {
                let la = nodes[ld.index()].access.as_ref().expect("load has access");
                if !la.is_uniform_with(sa) {
                    continue;
                }
                // Solve e_store(t) == e_load(t + d) per dimension.
                let mut d: Option<i64> = None;
                let mut same_everywhere = true;
                let mut feasible = true;
                for (es, el) in sa.indices.iter().zip(&la.indices) {
                    // Uniform accesses share every coefficient, so the
                    // subscripts differ only in their constants.
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
                // Same address every iteration (e.g. an accumulator cell
                // read-modify-written several times per unrolled body):
                // program order within the iteration, distance 1 across.
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
                        // Same iteration: order by emission (store first ->
                        // forwardable flow; load first -> anti ordering).
                        if st.index() < ld.index() {
                            edges.push((st, ld, 0));
                        } else {
                            edges.push((ld, st, 0));
                        }
                    }
                    std::cmp::Ordering::Less => {
                        // Load of a *later* element than the store writes:
                        // anti dependence across iterations.
                        edges.push((ld, st, (-dist) as u32));
                    }
                }
            }
        }
        // A (store, load) pair yields at most one edge and no other pair
        // joins the same two nodes, so no order edge repeats; none equals
        // a data edge, which differs in kind.
        self.dfg
            .edges
            .extend(edges.into_iter().map(|(src, dst, dist)| DfgEdge {
                src,
                dst,
                dist,
                kind: EdgeKind::Order,
            }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

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
    fn gemm_base_dfg() {
        let p = gemm(8);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        // 3 loads + mul + add + store
        assert_eq!(dfg.len(), 6);
        dfg.validate().unwrap();
        // Through-memory accumulation: store C -> load C with dist 1.
        let has_mem_rec = dfg
            .edges()
            .iter()
            .any(|e| e.dist == 1 && dfg.nodes()[e.src.index()].op == OpKind::Store);
        assert!(has_mem_rec, "edges: {:?}", dfg.edges());
    }

    #[test]
    fn gemm_unroll_replicates_and_cses() {
        let p = gemm(8);
        let nest = p.perfect_nests().remove(0);
        let (i, j) = (nest.loops[0], nest.loops[1]);
        let dfg = build_dfg(&p, &nest, &[(i, 2), (j, 2)]).unwrap();
        // Loads of A[i][k] shared across j instances: 2 unique A loads,
        // 2 unique B loads, 4 C loads, 4 muls, 4 adds, 4 stores = 20.
        let counts = dfg.op_counts();
        assert_eq!(counts[&OpKind::Load], 8);
        assert_eq!(counts[&OpKind::Mul], 4);
        assert_eq!(counts[&OpKind::Add], 4);
        assert_eq!(counts[&OpKind::Store], 4);
        dfg.validate().unwrap();
    }

    #[test]
    fn reduction_becomes_self_edge() {
        let mut b = ProgramBuilder::new("red");
        let a = b.array("A", &[64]);
        let s = b.scalar("s");
        let i = b.open_loop("i", 64);
        let v = b.add(b.read_scalar(s), b.load(a, &[b.idx(i)]));
        b.assign(s, v);
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        // load + add, with a self edge dist 1 on the add.
        assert_eq!(dfg.len(), 2);
        assert!(dfg.edges().iter().any(|e| e.src == e.dst && e.dist == 1));
        dfg.validate().unwrap();
    }

    #[test]
    fn unrolled_reduction_has_independent_accumulators() {
        let mut b = ProgramBuilder::new("red");
        let a = b.array("A", &[64]);
        let s = b.scalar("s");
        let i = b.open_loop("i", 64);
        let v = b.add(b.read_scalar(s), b.load(a, &[b.idx(i)]));
        b.assign(s, v);
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[(nest.loops[0], 4)]).unwrap();
        // 4 loads + 4 accumulators; each accumulator has its own self edge.
        let self_edges = dfg
            .edges()
            .iter()
            .filter(|e| e.src == e.dst && e.dist == 1)
            .count();
        assert_eq!(self_edges, 4);
        dfg.validate().unwrap();
    }

    #[test]
    fn stencil_memory_distance() {
        // A[i] = A[i-2] + 1  -> store A[i] feeds load A[i-2] two
        // iterations later: edge dist 2.
        let mut b = ProgramBuilder::new("st");
        let a = b.array("A", &[64]);
        let i = b.open_loop("i", 64);
        let v = b.add(
            b.load(a, &[b.idx(i) - AffineExpr::constant(2)]),
            b.constant(1),
        );
        b.store(a, &[b.idx(i)], v);
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        assert!(dfg.edges().iter().any(|e| e.dist == 2));
        dfg.validate().unwrap();
    }

    #[test]
    fn asap_alap_consistent() {
        let p = gemm(8);
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let asap = dfg.asap();
        let alap = dfg.alap();
        for (i, (&a, &l)) in asap.iter().zip(&alap).enumerate() {
            assert!(a <= l, "node {i}: asap {a} > alap {l}");
        }
        assert!(dfg.critical_path() >= 1);
    }

    #[test]
    fn unrolled_index_leaf_is_the_substituted_tree() {
        // B[i][j] = A[i][j] + i under a 2x2 unroll of (i, j): the copies
        // with offset 0 on `i` read it as `2*i`, the others as `2*i + 1`,
        // exactly as the tree `Expr::substitute` builds.
        let mut b = ProgramBuilder::new("idx");
        let a = b.array("A", &[16, 16]);
        let bb = b.array("B", &[16, 16]);
        let i = b.open_loop("i", 16);
        let j = b.open_loop("j", 16);
        let v = b.add(b.load(a, &[b.idx(i), b.idx(j)]), Expr::Index(i));
        b.store(bb, &[b.idx(i), b.idx(j)], v);
        b.close_loop();
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        let unroll = [(i, 2), (j, 2)];
        let dfg = build_dfg(&p, &nest, &unroll).unwrap();

        let mut expected = DfgBuilder::default();
        for (off_i, off_j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            for stmt in &nest.stmts {
                let inst = stmt
                    .substitute(i, &(AffineExpr::var(i) * 2 + AffineExpr::constant(off_i)))
                    .substitute(j, &(AffineExpr::var(j) * 2 + AffineExpr::constant(off_j)));
                expected.emit_stmt(&inst, &[]);
            }
        }
        expected.patch_pending();
        expected.add_memory_edges(nest.pipelined_loop());
        assert_eq!(dfg, expected.dfg);

        // Per copy: load, Mul (and Add when the offset is not 0), the
        // add of the body, the store; Const(2), Const(1) and the index
        // node are shared.
        let counts = dfg.op_counts();
        assert_eq!(counts[&OpKind::Mul], 4);
        assert_eq!(counts[&OpKind::Add], 4 + 2);
        assert_eq!(counts[&OpKind::Const], 3);
        assert!(dfg.nodes().iter().any(|n| n.imm == Some(2)));
        assert!(dfg.nodes().iter().any(|n| n.imm == Some(1)));
        dfg.validate().unwrap();
    }

    #[test]
    fn zero_unroll_factor_rejected() {
        let p = gemm(8);
        let nest = p.perfect_nests().remove(0);
        let err = build_dfg(&p, &nest, &[(nest.loops[0], 0)]).unwrap_err();
        assert_eq!(err, IrError::ZeroUnrollFactor);
    }

    #[test]
    fn foreign_loop_rejected() {
        let p = gemm(8);
        let nest = p.perfect_nests().remove(0);
        let err = build_dfg(&p, &nest, &[(LoopId(77), 2)]).unwrap_err();
        assert!(matches!(err, IrError::BadUnrollArity { .. }));
    }

    #[test]
    fn max_fanout_counts() {
        let p = gemm(8);
        let nest = p.perfect_nests().remove(0);
        let (i, j) = (nest.loops[0], nest.loops[1]);
        let dfg = build_dfg(&p, &nest, &[(i, 1), (j, 4)]).unwrap();
        // A[i][k] load feeds 4 muls.
        assert!(dfg.degrees().1.into_iter().max().unwrap() >= 4);
    }

    use crate::affine::AffineExpr;
}
