//! Input representations for the predictive model (Tab. 3).
//!
//! * `G_sw`: the DFG with base attributes (operation one-hot, fan-in/out)
//!   and extended attributes (ASAP/ALAP schedules, in/out-degree);
//! * `G_hw`: the PE graph with the array shape/topology as adjacency and
//!   per-PE attributes (`op_list` multi-hot, LRF size, GRF size); the GRF
//!   appears as an extra node with an empty op list, connected to all;
//! * `Vec`: mapping meta-data — MII prior, max fanout, critical path.

use crate::tensor::Matrix;
use ptmap_arch::CgraArch;
use ptmap_ir::{Dfg, DfgEdge, OpKind};

/// Software node feature width: op one-hot + [fan-in, fan-out, asap,
/// alap, latency].
pub const SW_FEATS: usize = OpKind::ALL.len() + 5;
/// Hardware node feature width: op multi-hot + [lrf, grf, x, y].
pub const HW_FEATS: usize = OpKind::ALL.len() + 4;
/// Meta-data width: [MII, max fanout, critical path length].
pub const VEC_FEATS: usize = 3;

/// Offset of the first *extended* software feature (everything past the
/// op one-hot and fan-in/out base attributes).
pub const SW_EXT_START: usize = OpKind::ALL.len() + 2;
/// Offset of the first *extended* hardware feature (LRF/GRF sizes).
pub const HW_EXT_START: usize = OpKind::ALL.len();

/// Dense model inputs for one (DFG, architecture) pair.
///
/// Serializes so live-traffic samples can spill to the online-learning
/// JSONL log (`ptmap-learn`) and be replayed into training.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GnnInput {
    /// `[n_sw, SW_FEATS]` node features of the DFG.
    pub sw_x: Matrix,
    /// `[n_sw, n_sw]` attention mask (directed edges both ways plus self
    /// loops).
    pub sw_mask: Matrix,
    /// `[n_hw, HW_FEATS]` node features of the PE graph.
    pub hw_x: Matrix,
    /// `[n_hw, n_hw]` symmetric-normalized adjacency with self loops.
    pub hw_adj: Matrix,
    /// `[1, VEC_FEATS]` meta-data (scaled).
    pub vec: Matrix,
    /// Raw MII prior.
    pub mii: u32,
}

/// The per-candidate half of the model input: `G_sw` and `Vec`.
///
/// Inference builds this for every transformation candidate and pairs
/// it with an [`HwEmbedding`](crate::model::HwEmbedding) computed once
/// per architecture. Unlike [`GnnInput`] it holds the attention mask as
/// neighbour lists, not as a dense `n × n` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SwInput {
    /// `[n_sw, SW_FEATS]` node features of the DFG.
    pub sw_x: Matrix,
    /// Attention neighbourhoods (directed edges both ways plus self
    /// loops), the sparse form of [`GnnInput::sw_mask`].
    pub neighbours: Neighbourhoods,
    /// `[1, VEC_FEATS]` meta-data (scaled).
    pub vec: Matrix,
    /// Raw MII prior.
    pub mii: u32,
}

/// Per-node neighbour lists in compressed-row form: node `i` attends
/// over [`row(i)`](Self::row), ascending and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Neighbourhoods {
    offsets: Vec<usize>,
    nodes: Vec<usize>,
}

impl Neighbourhoods {
    /// Node `i`'s neighbours, ascending.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.nodes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nonzero entries of each row of a dense mask.
    pub(crate) fn from_mask(mask: &Matrix) -> Self {
        let mut offsets = vec![0];
        let mut nodes = Vec::new();
        for i in 0..mask.rows() {
            nodes.extend((0..mask.cols()).filter(|&j| mask.get(i, j) > 0.0));
            offsets.push(nodes.len());
        }
        Neighbourhoods { offsets, nodes }
    }

    /// The neighbourhoods of a DFG's nodes: self loops plus every edge,
    /// in both directions.
    fn of_dfg(dfg: &Dfg) -> Self {
        let n = dfg.len();
        let mut pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for e in dfg.edges() {
            let (s, d) = (e.src.index(), e.dst.index());
            pairs.extend([(s, d), (d, s)]);
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0; n + 1];
        for &(i, _) in &pairs {
            offsets[i + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let nodes = pairs.into_iter().map(|(_, j)| j).collect();
        Neighbourhoods { offsets, nodes }
    }
}

/// Builds the full-featured input for a DFG/architecture pair.
pub fn build_input(dfg: &Dfg, arch: &CgraArch) -> GnnInput {
    let SwInput {
        sw_x,
        neighbours,
        vec,
        mii,
    } = build_sw_input(dfg, arch);
    let n = neighbours.len();
    let mut sw_mask = Matrix::zeros(n, n);
    for i in 0..n {
        for &j in neighbours.row(i) {
            sw_mask.set(i, j, 1.0);
        }
    }
    let (hw_x, hw_adj) = hw_graph(arch);
    GnnInput {
        sw_x,
        sw_mask,
        hw_x,
        hw_adj,
        vec,
        mii,
    }
}

/// Builds the per-candidate input: the `G_sw` and `Vec` parts of
/// [`build_input`], with the mask as neighbour lists. Of the DFG it
/// reads only what its [`SwKey`] holds.
pub fn build_sw_input(dfg: &Dfg, arch: &CgraArch) -> SwInput {
    let mii = ptmap_mapper::mii(dfg, arch);
    let (sw_x, vec) = sw_features(dfg, mii);
    SwInput {
        sw_x,
        neighbours: Neighbourhoods::of_dfg(dfg),
        vec,
        mii,
    }
}

/// Everything of a DFG that [`build_sw_input`] reads: the node
/// operations in order and the edge list `(src, dst, dist, kind)` in
/// order. The MII prior, the schedule, the degrees and the attention
/// neighbourhoods are all functions of these two lists; a node's
/// `access`, `imm` and `scalar` are never read. So two DFGs with equal
/// keys get equal inputs on any one architecture, and a memo of
/// predictions per architecture can be keyed by it. Keys compare by
/// full equality, never by a digest alone.
///
/// Keep this in step with [`build_sw_input`]: a feature that starts
/// reading another part of the DFG must add that part here.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SwKey {
    ops: Vec<OpKind>,
    edges: Vec<DfgEdge>,
}

impl SwKey {
    /// The key of a DFG.
    pub fn of(dfg: &Dfg) -> Self {
        SwKey {
            ops: dfg.nodes().iter().map(|n| n.op).collect(),
            edges: dfg.edges().to_vec(),
        }
    }
}

/// `G_sw` node features and the `Vec` row of a DFG.
fn sw_features(dfg: &Dfg, mii: u32) -> (Matrix, Matrix) {
    let n = dfg.len();
    let schedule = dfg.schedule();
    let (in_degree, out_degree) = dfg.degrees();
    let mut sw_x = Matrix::zeros(n, SW_FEATS);
    for (i, node) in dfg.nodes().iter().enumerate() {
        sw_x.set(i, node.op.code(), 1.0);
        let base = OpKind::ALL.len();
        sw_x.set(i, base, in_degree[i] as f32 / 4.0);
        sw_x.set(i, base + 1, out_degree[i] as f32 / 4.0);
        sw_x.set(i, base + 2, schedule.asap[i] as f32 / 16.0);
        sw_x.set(i, base + 3, schedule.alap[i] as f32 / 16.0);
        sw_x.set(i, base + 4, node.latency() as f32 / 4.0);
    }
    let max_fanout = out_degree.iter().copied().max().unwrap_or(0);
    let vec = Matrix::row(vec![
        mii as f32 / 16.0,
        max_fanout as f32 / 8.0,
        schedule.critical_path as f32 / 32.0,
    ]);
    (sw_x, vec)
}

/// `G_hw` of an architecture: `[n_hw, HW_FEATS]` node features and the
/// `[n_hw, n_hw]` symmetric-normalized adjacency with self loops.
pub(crate) fn hw_graph(arch: &CgraArch) -> (Matrix, Matrix) {
    let pe_count = arch.pe_count();
    let has_grf = arch.grf_size() > 0;
    let m = pe_count + usize::from(has_grf);
    let mut hw_x = Matrix::zeros(m, HW_FEATS);
    for (i, pe) in arch.pe_ids().enumerate() {
        for op in &arch.pe(pe).ops {
            hw_x.set(i, op.code(), 1.0);
        }
        let (x, y) = pe.to_xy(arch.cols());
        hw_x.set(i, HW_EXT_START, arch.pe(pe).lrf_size as f32 / 8.0);
        hw_x.set(i, HW_EXT_START + 1, arch.grf_size() as f32 / 8.0);
        hw_x.set(i, HW_EXT_START + 2, x as f32 / 8.0);
        hw_x.set(i, HW_EXT_START + 3, y as f32 / 8.0);
    }
    if has_grf {
        // GRF: empty op list, LRF 0, full GRF feature.
        hw_x.set(pe_count, HW_EXT_START + 1, arch.grf_size() as f32 / 8.0);
    }
    let mut adj = Matrix::zeros(m, m);
    for i in 0..m {
        adj.set(i, i, 1.0);
    }
    for (i, pe) in arch.pe_ids().enumerate() {
        for n in arch.neighbors(pe) {
            adj.set(i, n.index(), 1.0);
            adj.set(n.index(), i, 1.0);
        }
        if has_grf {
            adj.set(i, pe_count, 1.0);
            adj.set(pe_count, i, 1.0);
        }
    }
    (hw_x, sym_normalize(&adj))
}

/// Zeroes the extended attributes, producing the GNN-b ablation's input.
pub fn strip_extended(input: &GnnInput) -> GnnInput {
    let mut out = input.clone();
    zero_from(&mut out.sw_x, SW_EXT_START);
    zero_from(&mut out.hw_x, HW_EXT_START);
    out
}

/// Zeroes every column from `start` on (the GNN-b feature stripping).
pub(crate) fn zero_from(m: &mut Matrix, start: usize) {
    for i in 0..m.rows() {
        for j in start..m.cols() {
            m.set(i, j, 0.0);
        }
    }
}

/// `D^{-1/2} (A) D^{-1/2}` (A already contains self loops).
fn sym_normalize(a: &Matrix) -> Matrix {
    let n = a.rows();
    let deg: Vec<f32> = (0..n)
        .map(|i| (0..n).map(|j| a.get(i, j)).sum::<f32>().max(1e-6))
        .collect();
    let mut out = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let v = a.get(i, j);
            if v != 0.0 {
                out.set(i, j, v / (deg[i].sqrt() * deg[j].sqrt()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;
    use ptmap_ir::{dfg::build_dfg, ProgramBuilder};

    fn sample_dfg() -> Dfg {
        let mut b = ProgramBuilder::new("k");
        let x = b.array("X", &[64]);
        let s = b.scalar("s");
        let i = b.open_loop("i", 64);
        let v = b.add(b.read_scalar(s), b.load(x, &[b.idx(i)]));
        b.assign(s, v);
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        build_dfg(&p, &nest, &[]).unwrap()
    }

    #[test]
    fn shapes_are_consistent() {
        let dfg = sample_dfg();
        let arch = presets::s4();
        let input = build_input(&dfg, &arch);
        assert_eq!(input.sw_x.rows(), dfg.len());
        assert_eq!(input.sw_x.cols(), SW_FEATS);
        assert_eq!(input.sw_mask.rows(), dfg.len());
        // S4 has a GRF -> 17 hardware nodes.
        assert_eq!(input.hw_x.rows(), 17);
        assert_eq!(input.vec.cols(), VEC_FEATS);
        assert!(input.mii >= 1);
    }

    #[test]
    fn grfless_arch_has_no_hub_node() {
        let dfg = sample_dfg();
        let input = build_input(&dfg, &presets::sl8());
        assert_eq!(input.hw_x.rows(), 64);
    }

    #[test]
    fn normalization_entries_bounded() {
        let dfg = sample_dfg();
        let input = build_input(&dfg, &presets::s4());
        for i in 0..input.hw_adj.rows() {
            for j in 0..input.hw_adj.cols() {
                let v = input.hw_adj.get(i, j);
                assert!((0.0..=1.0).contains(&v), "entry ({i},{j}) = {v}");
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn strip_extended_zeroes_only_extended() {
        let dfg = sample_dfg();
        let input = build_input(&dfg, &presets::s4());
        let basic = strip_extended(&input);
        // Base one-hot preserved.
        for i in 0..basic.sw_x.rows() {
            let onehot: f32 = (0..OpKind::ALL.len()).map(|j| basic.sw_x.get(i, j)).sum();
            assert_eq!(onehot, 1.0);
            for j in SW_EXT_START..SW_FEATS {
                assert_eq!(basic.sw_x.get(i, j), 0.0);
            }
        }
        assert_ne!(&basic, &input);
    }
}
