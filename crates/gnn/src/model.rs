//! The PT-Map predictive model (Fig. 5d, Tab. 2).
//!
//! Stacked GAT layers embed `G_sw`, stacked GCN layers embed `G_hw`;
//! average pooling gives graph-level vectors which are aligned by a
//! Kronecker product (letting SW and HW gradients interact), fused with
//! the `Vec` meta-features via a Hadamard product, and fed to per-task
//! FC heads:
//!
//! * **II equivalence** — classifies `II_map == MII`;
//! * **II residual** — regresses `II_res = II_map − MII` with the
//!   two-term loss (absolute + α·relative);
//! * **ProEpi** — regresses the pipeline fill/drain cycles.
//!
//! The ablation variants of Fig. 6 are selected by [`GnnVariant`].

use crate::autograd::{Graph, Var};
use crate::features::{self, GnnInput, Neighbourhoods, SwInput};
use crate::tensor::Matrix;
use crate::train::Param;
use ptmap_arch::CgraArch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Internal scale applied to the ProEpi regression target.
pub const PROEPI_SCALE: f32 = 0.1;
/// Internal scale applied to the II-residual regression target.
pub const RES_SCALE: f32 = 0.25;
/// Negative slope of the GAT attention scores' leaky ReLU.
const GAT_SLOPE: f32 = 0.2;

/// Model variants (the paper's Fig. 6 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GnnVariant {
    /// The full GNN-PT-Map model.
    Full,
    /// GNN-b: only base features in `G_sw`/`G_hw`.
    Basic,
    /// GNN-c: no Kronecker/Hadamard alignment (plain concatenation).
    NoAlign,
    /// GNN-e: direct II/ProEpi regression without the three sub-tasks.
    Direct,
}

/// Model hyper-parameters (Tab. 4; hidden size scaled down by default
/// for laptop-scale training — see DESIGN.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Hidden dimension (paper: 128; default here: 32).
    pub hidden: usize,
    /// Stacked GAT/GCN layer count (paper: 3).
    pub layers: usize,
    /// Variant selector.
    pub variant: GnnVariant,
    /// α of the two-term II-residual loss (paper: 0.5).
    pub alpha: f32,
    /// Parameter-initialization seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            hidden: 32,
            layers: 3,
            variant: GnnVariant::Full,
            alpha: 0.5,
            seed: 17,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct GatParams {
    w: Param,
    a_src: Param,
    a_dst: Param,
    b: Param,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct GcnParams {
    w: Param,
    b: Param,
}

/// The predictive model: parameters plus forward/predict logic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PtMapGnn {
    /// Configuration this model was built with. Fixed after
    /// construction: the memoized [`digest`](Self::digest) assumes only
    /// [`params_mut`](Self::params_mut) changes a model.
    pub config: ModelConfig,
    gat: Vec<GatParams>,
    gcn: Vec<GcnParams>,
    pool_sw_w: Param,
    pool_sw_b: Param,
    pool_hw_w: Param,
    pool_hw_b: Param,
    align_w: Param,
    align_b: Param,
    vec_w: Param,
    vec_b: Param,
    shared_w: Param,
    shared_b: Param,
    head_eq_w: Param,
    head_eq_b: Param,
    head_res_w: Param,
    head_res_b: Param,
    head_pe_w: Param,
    head_pe_b: Param,
    /// Memoized content digest (see [`digest`](Self::digest)). Clones
    /// share the cell; [`params_mut`](Self::params_mut) replaces it.
    #[serde(skip)]
    digest: Arc<OnceLock<String>>,
}

/// Forward-pass outputs (task heads) plus the parameter vars needed to
/// read gradients back.
pub struct Forward {
    /// `[1,2]` equivalence logits (heads reinterpreted for `Direct`).
    pub eq_logits: Var,
    /// `[1,1]` scaled II-residual (or direct II for `Direct`).
    pub res: Var,
    /// `[1,1]` scaled ProEpi.
    pub pro_epi: Var,
    /// Parameter vars, in [`PtMapGnn::params`] order.
    pub param_vars: Vec<Var>,
}

/// A prediction in integer metrics (Eqn. 3–4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted mapped II.
    pub ii: u32,
    /// Predicted pipeline fill/drain cycles.
    pub pro_epi: u32,
}

/// Raw task-head values of one forward pass (see [`Forward`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heads {
    /// Equivalence logits.
    pub eq_logits: [f32; 2],
    /// Scaled II-residual (or direct II for `Direct`).
    pub res: f32,
    /// Scaled ProEpi.
    pub pro_epi: f32,
}

impl Heads {
    /// Decodes the heads into integer metrics per Eqn. 3–4.
    pub fn prediction(&self, variant: GnnVariant, mii: u32) -> Prediction {
        let pro_epi = (self.pro_epi / PROEPI_SCALE).round().max(0.0) as u32;
        let ii = match variant {
            // Direct variant: `res` regresses the raw II.
            GnnVariant::Direct => (self.res / RES_SCALE).round().max(1.0) as u32,
            _ => {
                if self.eq_logits[1] >= self.eq_logits[0] {
                    mii
                } else {
                    let res = (self.res / RES_SCALE).round().max(0.0) as u32;
                    mii + res.max(1)
                }
            }
        };
        Prediction { ii, pro_epi }
    }
}

/// The pooled `G_hw` vector (`[1, hidden]`) of one architecture under
/// one model; see [`PtMapGnn::embed_arch`].
#[derive(Debug, Clone, PartialEq)]
pub struct HwEmbedding(Matrix);

/// Adds a `[1, d]` bias row to every row, as [`Graph::add_row`] does.
fn add_bias(mut x: Matrix, b: &Param) -> Matrix {
    let cols = x.cols();
    for row in x.as_mut_slice().chunks_mut(cols) {
        for (v, &bj) in row.iter_mut().zip(b.value.as_slice()) {
            *v += bj;
        }
    }
    x
}

/// `relu(x + b)`, as [`Graph::add_row`] then [`Graph::relu`].
fn bias_relu(x: Matrix, b: &Param) -> Matrix {
    let mut x = add_bias(x, b);
    for v in x.as_mut_slice() {
        *v = v.max(0.0);
    }
    x
}

/// A fully connected layer with ReLU: `relu(x·w + b)`.
fn dense(x: &Matrix, w: &Param, b: &Param) -> Matrix {
    bias_relu(x.matmul(&w.value), b)
}

/// Graph pooling: the mean node embedding concatenated with a
/// count-scaled copy, projected by a dense layer (see
/// [`PtMapGnn::forward`]).
fn pool(x: &Matrix, w: &Param, b: &Param) -> Matrix {
    let n = x.rows().max(1) as f32;
    let mut mean = vec![0.0f32; x.cols()];
    for row in x.as_slice().chunks(x.cols()) {
        for (m, &v) in mean.iter_mut().zip(row) {
            *m += v / n;
        }
    }
    let c = x.rows() as f32 / 16.0;
    let scaled: Vec<f32> = mean.iter().map(|&v| c * v).collect();
    dense(&Matrix::row([mean, scaled].concat()), w, b)
}

/// One GAT layer over neighbour lists. Same float order as the tape's
/// masked dense softmax: leaky-ReLU of `s_i + d_j`, then the row max and
/// the softmax denominator in ascending `j`, then `Σ a_ij·hw_j` in
/// ascending `j`, skipping `a_ij == 0` as [`Matrix::matmul`] does.
fn gat_layer(x: &Matrix, neighbours: &Neighbourhoods, p: &GatParams) -> Matrix {
    let hw = x.matmul(&p.w.value);
    let s = hw.matmul(&p.a_src.value);
    let d = hw.matmul(&p.a_dst.value);
    let h = hw.cols();
    let mut agg = Matrix::zeros(hw.rows(), h);
    let mut scores = Vec::new();
    for i in 0..hw.rows() {
        let row = neighbours.row(i);
        scores.clear();
        scores.extend(row.iter().map(|&j| {
            let v = s.get(i, 0) + d.get(j, 0);
            if v > 0.0 {
                v
            } else {
                GAT_SLOPE * v
            }
        }));
        let maxv = scores.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        if maxv == f32::NEG_INFINITY {
            continue;
        }
        let mut denom = 0.0;
        for &v in &scores {
            denom += (v - maxv).exp();
        }
        let out = &mut agg.as_mut_slice()[i * h..(i + 1) * h];
        for (&j, &v) in row.iter().zip(&scores) {
            let a = (v - maxv).exp() / denom;
            if a == 0.0 {
                continue;
            }
            for (o, &hj) in out.iter_mut().zip(&hw.as_slice()[j * h..(j + 1) * h]) {
                *o += a * hj;
            }
        }
    }
    bias_relu(agg, &p.b)
}

impl PtMapGnn {
    /// Initializes a model with Xavier-uniform parameters.
    pub fn new(config: ModelConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let h = config.hidden;
        let mut gat = Vec::new();
        let mut gcn = Vec::new();
        for l in 0..config.layers {
            let sw_in = if l == 0 { features::SW_FEATS } else { h };
            let hw_in = if l == 0 { features::HW_FEATS } else { h };
            gat.push(GatParams {
                w: Param::xavier(sw_in, h, &mut rng),
                a_src: Param::xavier(h, 1, &mut rng),
                a_dst: Param::xavier(h, 1, &mut rng),
                b: Param::zeros(1, h),
            });
            gcn.push(GcnParams {
                w: Param::xavier(hw_in, h, &mut rng),
                b: Param::zeros(1, h),
            });
        }
        let align_in = if config.variant == GnnVariant::NoAlign {
            2 * h
        } else {
            h * h
        };
        PtMapGnn {
            gat,
            gcn,
            pool_sw_w: Param::xavier(2 * h, h, &mut rng),
            pool_sw_b: Param::zeros(1, h),
            pool_hw_w: Param::xavier(2 * h, h, &mut rng),
            pool_hw_b: Param::zeros(1, h),
            align_w: Param::xavier(align_in, h, &mut rng),
            align_b: Param::zeros(1, h),
            vec_w: Param::xavier(features::VEC_FEATS, h, &mut rng),
            vec_b: Param::zeros(1, h),
            shared_w: Param::xavier(2 * h, h, &mut rng),
            shared_b: Param::zeros(1, h),
            head_eq_w: Param::xavier(h, 2, &mut rng),
            head_eq_b: Param::zeros(1, 2),
            head_res_w: Param::xavier(h, 1, &mut rng),
            head_res_b: Param::zeros(1, 1),
            head_pe_w: Param::xavier(h, 1, &mut rng),
            head_pe_b: Param::zeros(1, 1),
            config,
            digest: Arc::default(),
        }
    }

    /// Immutable parameter list in a stable order.
    pub fn params(&self) -> Vec<&Param> {
        let mut out = Vec::new();
        for g in &self.gat {
            out.extend([&g.w, &g.a_src, &g.a_dst, &g.b]);
        }
        for g in &self.gcn {
            out.extend([&g.w, &g.b]);
        }
        out.extend([
            &self.pool_sw_w,
            &self.pool_sw_b,
            &self.pool_hw_w,
            &self.pool_hw_b,
            &self.align_w,
            &self.align_b,
            &self.vec_w,
            &self.vec_b,
            &self.shared_w,
            &self.shared_b,
            &self.head_eq_w,
            &self.head_eq_b,
            &self.head_res_w,
            &self.head_res_b,
            &self.head_pe_w,
            &self.head_pe_b,
        ]);
        out
    }

    /// Mutable parameter list in the same order as [`params`](Self::params).
    /// Forgets the memoized [`digest`](Self::digest); clones taken
    /// earlier keep theirs.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.digest = Arc::default();
        let mut out: Vec<&mut Param> = Vec::new();
        for g in &mut self.gat {
            out.push(&mut g.w);
            out.push(&mut g.a_src);
            out.push(&mut g.a_dst);
            out.push(&mut g.b);
        }
        for g in &mut self.gcn {
            out.push(&mut g.w);
            out.push(&mut g.b);
        }
        out.push(&mut self.pool_sw_w);
        out.push(&mut self.pool_sw_b);
        out.push(&mut self.pool_hw_w);
        out.push(&mut self.pool_hw_b);
        out.push(&mut self.align_w);
        out.push(&mut self.align_b);
        out.push(&mut self.vec_w);
        out.push(&mut self.vec_b);
        out.push(&mut self.shared_w);
        out.push(&mut self.shared_b);
        out.push(&mut self.head_eq_w);
        out.push(&mut self.head_eq_b);
        out.push(&mut self.head_res_w);
        out.push(&mut self.head_res_b);
        out.push(&mut self.head_pe_w);
        out.push(&mut self.head_pe_b);
        out
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.params()
            .iter()
            .map(|p| p.value.rows() * p.value.cols())
            .sum()
    }

    /// Runs the forward pass on a tape.
    pub fn forward(&self, g: &mut Graph, input: &GnnInput) -> Forward {
        let input_owned;
        let input = if self.config.variant == GnnVariant::Basic {
            input_owned = features::strip_extended(input);
            &input_owned
        } else {
            input
        };
        // Feed parameters in `params()` order, remembering their vars.
        let param_vars: Vec<Var> = self
            .params()
            .iter()
            .map(|p| g.input(p.value.clone()))
            .collect();
        let mut k = 0usize;
        let mut next = || {
            let v = param_vars[k];
            k += 1;
            v
        };
        // GAT stack over G_sw.
        let mask = g.input(input.sw_mask.clone());
        let mut sw = g.input(input.sw_x.clone());
        for _ in 0..self.config.layers {
            let (w, a_s, a_d, b) = (next(), next(), next(), next());
            let hw = g.matmul(sw, w);
            let s = g.matmul(hw, a_s);
            let d = g.matmul(hw, a_d);
            let scores = g.broadcast_sum(s, d);
            let scores = g.leaky_relu(scores, GAT_SLOPE);
            let att = g.masked_softmax_rows(scores, mask);
            let agg = g.matmul(att, hw);
            let agg = g.add_row(agg, b);
            sw = g.relu(agg);
        }
        // GCN stack over G_hw.
        let adj = g.input(input.hw_adj.clone());
        let mut hwv = g.input(input.hw_x.clone());
        for _ in 0..self.config.layers {
            let (w, b) = (next(), next());
            let xw = g.matmul(hwv, w);
            let prop = g.matmul(adj, xw);
            let prop = g.add_row(prop, b);
            hwv = g.relu(prop);
        }
        // Pooling: mean embedding concatenated with a count-scaled copy
        // (average pooling alone erases graph size, the dominant
        // congestion signal), projected back to the hidden width.
        let n_sw = input.sw_x.rows() as f32;
        let n_hw = input.hw_x.rows() as f32;
        let sw_mean = g.mean_rows(sw);
        let sw_sum = g.scale(sw_mean, n_sw / 16.0);
        let sw_cat = g.concat_cols(sw_mean, sw_sum);
        let (psw_w, psw_b) = (next(), next());
        let sw_vec = g.matmul(sw_cat, psw_w);
        let sw_vec = g.add_row(sw_vec, psw_b);
        let sw_vec = g.relu(sw_vec);
        let hw_mean = g.mean_rows(hwv);
        let hw_sum = g.scale(hw_mean, n_hw / 16.0);
        let hw_cat = g.concat_cols(hw_mean, hw_sum);
        let (phw_w, phw_b) = (next(), next());
        let hw_vec = g.matmul(hw_cat, phw_w);
        let hw_vec = g.add_row(hw_vec, phw_b);
        let hw_vec = g.relu(hw_vec);
        // Alignment.
        let (align_w, align_b) = (next(), next());
        let aligned_in = if self.config.variant == GnnVariant::NoAlign {
            g.concat_cols(sw_vec, hw_vec)
        } else {
            g.kron_rows(sw_vec, hw_vec)
        };
        let aligned = g.matmul(aligned_in, align_w);
        let aligned = g.add_row(aligned, align_b);
        let aligned = g.relu(aligned);
        // Vec features.
        let (vec_w, vec_b) = (next(), next());
        let vec_in = g.input(input.vec.clone());
        let vec_h = g.matmul(vec_in, vec_w);
        let vec_h = g.add_row(vec_h, vec_b);
        let vec_h = g.relu(vec_h);
        // Hadamard fusion (skipped by NoAlign) + concat + shared FC.
        let fused = if self.config.variant == GnnVariant::NoAlign {
            aligned
        } else {
            g.mul(aligned, vec_h)
        };
        let unified = g.concat_cols(fused, vec_h);
        let (shared_w, shared_b) = (next(), next());
        let shared = g.matmul(unified, shared_w);
        let shared = g.add_row(shared, shared_b);
        let shared = g.relu(shared);
        // Heads.
        let (eq_w, eq_b) = (next(), next());
        let eq = g.matmul(shared, eq_w);
        let eq_logits = g.add_row(eq, eq_b);
        let (res_w, res_b) = (next(), next());
        let res = g.matmul(shared, res_w);
        let res = g.add_row(res, res_b);
        let (pe_w, pe_b) = (next(), next());
        let pe = g.matmul(shared, pe_w);
        let pro_epi = g.add_row(pe, pe_b);
        Forward {
            eq_logits,
            res,
            pro_epi,
            param_vars,
        }
    }

    /// Predicts integer metrics per Eqn. 3–4 from a dense input.
    pub fn predict(&self, input: &GnnInput) -> Prediction {
        let hw = self.embed_hw(&input.hw_x, &input.hw_adj);
        let neighbours = Neighbourhoods::from_mask(&input.sw_mask);
        self.sw_heads(&input.sw_x, &neighbours, &input.vec, &hw)
            .prediction(self.config.variant, input.mii)
    }

    /// Predicts integer metrics for one candidate against a `G_hw`
    /// embedding from [`embed_arch`](Self::embed_arch). Equal to
    /// [`predict`](Self::predict) on the candidate's [`build_input`].
    ///
    /// [`build_input`]: crate::features::build_input
    pub fn predict_sw(&self, sw: &SwInput, hw: &HwEmbedding) -> Prediction {
        self.heads(sw, hw).prediction(self.config.variant, sw.mii)
    }

    /// The `G_hw` branch for an architecture: the GCN stack and its
    /// pooling. It depends only on the model and the architecture, so
    /// inference computes it once per architecture.
    pub fn embed_arch(&self, arch: &CgraArch) -> HwEmbedding {
        let (hw_x, hw_adj) = features::hw_graph(arch);
        self.embed_hw(&hw_x, &hw_adj)
    }

    /// The raw task heads of the tape-free forward pass. Bit-identical
    /// to the heads of [`forward`](Self::forward) on the same candidate.
    pub fn heads(&self, sw: &SwInput, hw: &HwEmbedding) -> Heads {
        self.sw_heads(&sw.sw_x, &sw.neighbours, &sw.vec, hw)
    }

    fn embed_hw(&self, hw_x: &Matrix, hw_adj: &Matrix) -> HwEmbedding {
        let mut x = hw_x.clone();
        if self.config.variant == GnnVariant::Basic {
            features::zero_from(&mut x, features::HW_EXT_START);
        }
        for layer in &self.gcn {
            let prop = hw_adj.matmul(&x.matmul(&layer.w.value));
            x = bias_relu(prop, &layer.b);
        }
        HwEmbedding(pool(&x, &self.pool_hw_w, &self.pool_hw_b))
    }

    /// The forward pass after the `G_hw` branch, in the same float
    /// order as [`forward`](Self::forward).
    fn sw_heads(
        &self,
        sw_x: &Matrix,
        neighbours: &Neighbourhoods,
        vec: &Matrix,
        hw: &HwEmbedding,
    ) -> Heads {
        let mut x = sw_x.clone();
        if self.config.variant == GnnVariant::Basic {
            features::zero_from(&mut x, features::SW_EXT_START);
        }
        for layer in &self.gat {
            x = gat_layer(&x, neighbours, layer);
        }
        let sw_vec = pool(&x, &self.pool_sw_w, &self.pool_sw_b);
        let hw_vec = hw.0.as_slice();
        let aligned_in = if self.config.variant == GnnVariant::NoAlign {
            [sw_vec.as_slice(), hw_vec].concat()
        } else {
            sw_vec
                .as_slice()
                .iter()
                .flat_map(|&a| hw_vec.iter().map(move |&b| a * b))
                .collect()
        };
        let aligned = dense(&Matrix::row(aligned_in), &self.align_w, &self.align_b);
        let vec_h = dense(vec, &self.vec_w, &self.vec_b);
        let fused: Vec<f32> = if self.config.variant == GnnVariant::NoAlign {
            aligned.as_slice().to_vec()
        } else {
            aligned
                .as_slice()
                .iter()
                .zip(vec_h.as_slice())
                .map(|(p, q)| p * q)
                .collect()
        };
        let unified = Matrix::row([fused.as_slice(), vec_h.as_slice()].concat());
        let shared = dense(&unified, &self.shared_w, &self.shared_b);
        let head = |w: &Param, b: &Param| add_bias(shared.matmul(&w.value), b);
        let eq = head(&self.head_eq_w, &self.head_eq_b);
        Heads {
            eq_logits: [eq.get(0, 0), eq.get(0, 1)],
            res: head(&self.head_res_w, &self.head_res_b).get(0, 0),
            pro_epi: head(&self.head_pe_w, &self.head_pe_b).get(0, 0),
        }
    }

    /// The model's content digest: `compute(self)` on first use, then
    /// the memoized value, shared with every clone taken since the last
    /// [`params_mut`](Self::params_mut). Every caller must pass the same
    /// pure `compute`; the cache key is the one user.
    pub fn digest(&self, compute: impl FnOnce(&Self) -> String) -> &str {
        self.digest.get_or_init(|| compute(self))
    }

    /// Serializes the model (weights, Adam moments, config) to a
    /// deterministic JSON byte string. The encoding is stable for a
    /// given model value — `from_bytes(to_bytes(m)).to_bytes()` is
    /// byte-identical — so the bytes can be content-addressed and
    /// checksummed.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("model serialization cannot fail")
            .into_bytes()
    }

    /// Deserializes a model produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("model not utf-8: {e}"))?;
        serde_json::from_str(text).map_err(|e| format!("model decode failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;
    use ptmap_ir::{dfg::build_dfg, ProgramBuilder};

    fn input() -> GnnInput {
        let mut b = ProgramBuilder::new("k");
        let x = b.array("X", &[64]);
        let y = b.array("Y", &[64]);
        let i = b.open_loop("i", 64);
        let v = b.mul(b.load(x, &[b.idx(i)]), b.load(y, &[b.idx(i)]));
        b.store(y, &[b.idx(i)], v);
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        features::build_input(&dfg, &presets::s4())
    }

    #[test]
    fn forward_shapes() {
        let model = PtMapGnn::new(ModelConfig::default());
        let mut g = Graph::new();
        let out = model.forward(&mut g, &input());
        assert_eq!(g.value(out.eq_logits).cols(), 2);
        assert_eq!(g.value(out.res).cols(), 1);
        assert_eq!(g.value(out.pro_epi).cols(), 1);
        assert_eq!(out.param_vars.len(), model.params().len());
    }

    #[test]
    fn predict_is_deterministic_and_sane() {
        let model = PtMapGnn::new(ModelConfig::default());
        let inp = input();
        let a = model.predict(&inp);
        let b = model.predict(&inp);
        assert_eq!(a, b);
        assert!(a.ii >= 1);
    }

    #[test]
    fn variants_share_param_ordering() {
        for variant in [
            GnnVariant::Full,
            GnnVariant::Basic,
            GnnVariant::NoAlign,
            GnnVariant::Direct,
        ] {
            let mut model = PtMapGnn::new(ModelConfig {
                variant,
                ..ModelConfig::default()
            });
            let shape = |m: &Matrix| (m.rows(), m.cols());
            let shapes: Vec<_> = model.params().iter().map(|p| shape(&p.value)).collect();
            let mut g = Graph::new();
            let out = model.forward(&mut g, &input());
            let var_shapes: Vec<_> = out.param_vars.iter().map(|&v| shape(g.value(v))).collect();
            assert_eq!(var_shapes, shapes, "{variant:?}: param_vars vs params");
            let mut_shapes: Vec<_> = model.params_mut().iter().map(|p| shape(&p.value)).collect();
            assert_eq!(mut_shapes, shapes, "{variant:?}: params_mut vs params");
        }
    }

    #[test]
    fn param_lists_agree() {
        let mut model = PtMapGnn::new(ModelConfig::default());
        let shapes: Vec<(usize, usize)> = model
            .params()
            .iter()
            .map(|p| (p.value.rows(), p.value.cols()))
            .collect();
        let shapes_mut: Vec<(usize, usize)> = model
            .params_mut()
            .iter()
            .map(|p| (p.value.rows(), p.value.cols()))
            .collect();
        assert_eq!(shapes, shapes_mut);
    }

    #[test]
    fn full_model_has_nontrivial_capacity() {
        let model = PtMapGnn::new(ModelConfig::default());
        assert!(model.param_count() > 10_000);
    }
}
