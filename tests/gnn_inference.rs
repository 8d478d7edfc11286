//! The tape-free inference path must reproduce the training forward
//! bit for bit: for random and hand-made DFGs on every architecture
//! file, for the committed checkpoint and for seeded untrained models of
//! every variant, the raw heads of `PtMapGnn::forward` equal those of
//! `PtMapGnn::heads` by `f32::to_bits`, and every predict entry point
//! returns the same prediction.

use pt_map::arch::CgraArch;
use pt_map::eval::{GnnPredictor, IiPredictor};
use pt_map::gnn::autograd::Graph;
use pt_map::gnn::{
    build_input, build_sw_input, GnnInput, GnnVariant, Heads, ModelConfig, PtMapGnn,
};
use pt_map::ir::dfg::{build_dfg, EdgeKind};
use pt_map::ir::{Dfg, OpKind};
use pt_map::workloads::{RandomProgramConfig, RandomProgramGenerator};
use serde_json::Value;
use std::path::Path;

const CHECKPOINT: &str = "results/gnn_full_3000_120.json";

fn repo_path(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Every architecture description under `archs/`, in file-name order.
fn archs() -> Vec<CgraArch> {
    let mut paths: Vec<_> = std::fs::read_dir(repo_path("archs"))
        .expect("archs/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    paths
        .iter()
        .map(|p| pt_map::arch::io::load(p).expect("arch file loads"))
        .collect()
}

/// A DFG with parallel edges (same endpoints, different distance or
/// kind), an exact duplicate edge, a two-way recurrence and an isolated
/// node.
fn awkward_dfg() -> Dfg {
    let mut d = Dfg::new();
    let a = d.add_node(OpKind::Load, None, None);
    let b = d.add_node(OpKind::Add, None, None);
    let c = d.add_node(OpKind::Mul, None, None);
    d.add_node(OpKind::Const, None, Some(3));
    d.add_edge(a, b, 0);
    d.add_edge_kind(a, b, 1, EdgeKind::Order);
    d.add_edge(b, a, 1);
    d.add_edge(b, c, 0);
    d.add_edge(c, b, 2);
    // `add_edge` deduplicates exact repeats; a decoded DFG need not.
    let mut v = serde_json::to_value(&d).expect("dfg serializes");
    let Value::Object(fields) = &mut v else {
        panic!("dfg is an object")
    };
    let (_, Value::Array(edges)) = fields
        .iter_mut()
        .find(|(k, _)| k == "edges")
        .expect("edges field")
    else {
        panic!("edges is an array")
    };
    edges.push(edges[0].clone());
    let d: Dfg = serde_json::from_value(&v).expect("dfg decodes");
    assert_eq!(d.edges()[0], d.edges()[d.edges().len() - 1]);
    d
}

fn dfgs() -> Vec<Dfg> {
    let mut out = vec![awkward_dfg()];
    for seed in 0..8 {
        let mut g = RandomProgramGenerator::new(RandomProgramConfig::default(), seed);
        let p = g.next_program();
        let nest = p.perfect_nests().remove(0);
        for factor in [1, 3] {
            out.push(build_dfg(&p, &nest, &[(nest.pipelined_loop(), factor)]).unwrap());
        }
    }
    out
}

fn models() -> Vec<PtMapGnn> {
    let text = std::fs::read_to_string(repo_path(CHECKPOINT)).expect("checkpoint is committed");
    let mut out = vec![serde_json::from_str(&text).expect("checkpoint parses")];
    for (seed, variant) in [
        GnnVariant::Full,
        GnnVariant::Basic,
        GnnVariant::NoAlign,
        GnnVariant::Direct,
    ]
    .into_iter()
    .enumerate()
    {
        out.push(PtMapGnn::new(ModelConfig {
            variant,
            seed: 100 + seed as u64,
            ..ModelConfig::default()
        }));
    }
    out
}

/// The raw heads of the training (tape) forward.
fn tape_heads(model: &PtMapGnn, input: &GnnInput) -> Heads {
    let mut g = Graph::new();
    let out = model.forward(&mut g, input);
    let eq = g.value(out.eq_logits);
    Heads {
        eq_logits: [eq.get(0, 0), eq.get(0, 1)],
        res: g.value(out.res).get(0, 0),
        pro_epi: g.value(out.pro_epi).get(0, 0),
    }
}

fn bits(h: &Heads) -> [u32; 4] {
    [
        h.eq_logits[0].to_bits(),
        h.eq_logits[1].to_bits(),
        h.res.to_bits(),
        h.pro_epi.to_bits(),
    ]
}

#[test]
fn tape_free_heads_are_bit_identical_to_the_tape_forward() {
    let dfgs = dfgs();
    let archs = archs();
    for model in models() {
        let variant = model.config.variant;
        let predictor = GnnPredictor::new(model.clone());
        for arch in &archs {
            let hw = model.embed_arch(arch);
            for (k, dfg) in dfgs.iter().enumerate() {
                let what = format!("{variant:?} on {} dfg #{k}", arch.name());
                let input = build_input(dfg, arch);
                let sw = build_sw_input(dfg, arch);
                let tape = tape_heads(&model, &input);
                let fast = model.heads(&sw, &hw);
                assert_eq!(bits(&tape), bits(&fast), "{what}: {tape:?} vs {fast:?}");
                let p = tape.prediction(variant, input.mii);
                assert_eq!(model.predict(&input), p, "{what}: dense predict");
                assert_eq!(model.predict_sw(&sw, &hw), p, "{what}: predict_sw");
                assert_eq!(
                    predictor.predict(dfg, arch),
                    (p.ii.max(1), p.pro_epi),
                    "{what}: GnnPredictor"
                );
            }
        }
    }
}

#[test]
fn attention_mask_is_edges_both_ways_plus_self_loops() {
    let arch = pt_map::arch::presets::s4();
    for dfg in dfgs() {
        let n = dfg.len();
        let mut want = pt_map::gnn::Matrix::zeros(n, n);
        for i in 0..n {
            want.set(i, i, 1.0);
        }
        for e in dfg.edges() {
            want.set(e.src.index(), e.dst.index(), 1.0);
            want.set(e.dst.index(), e.src.index(), 1.0);
        }
        assert_eq!(build_input(&dfg, &arch).sw_mask, want);
        let sw = build_sw_input(&dfg, &arch);
        assert_eq!(sw.neighbours.len(), n);
        for i in 0..n {
            let masked: Vec<usize> = (0..n).filter(|&j| want.get(i, j) > 0.0).collect();
            assert_eq!(sw.neighbours.row(i), masked.as_slice());
        }
    }
}
