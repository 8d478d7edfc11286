//! The tape-free inference path must reproduce the training forward
//! bit for bit: for random and hand-made DFGs on every architecture
//! file, for the committed checkpoint and for seeded untrained models of
//! every variant, the raw heads of `PtMapGnn::forward` equal those of
//! `PtMapGnn::heads` by `f32::to_bits`, and every predict entry point
//! returns the same prediction.
//!
//! `GnnPredictor` memoizes its answer per DFG shape (`SwKey`): a memoized
//! answer must equal a fresh forward pass, on a miss, on a hit and when
//! threads share the memo, and the key must hold exactly what
//! `build_sw_input` reads.

use pt_map::arch::CgraArch;
use pt_map::core::PtMapConfig;
use pt_map::eval::{GnnPredictor, IiPredictor};
use pt_map::gnn::autograd::Graph;
use pt_map::gnn::{
    build_input, build_sw_input, GnnInput, GnnVariant, Heads, ModelConfig, PtMapGnn, SwKey,
};
use pt_map::ir::dfg::{build_dfg, DfgEdge, EdgeKind};
use pt_map::ir::{AffineExpr, ArrayAccess, ArrayId, Dfg, DfgNode, OpKind, ScalarId};
use pt_map::workloads::{apps, RandomProgramConfig, RandomProgramGenerator};
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

/// The DFG with exactly these nodes and edges, duplicate edges kept
/// (`Dfg::add_edge` would drop them).
fn dfg_of(nodes: &[DfgNode], edges: &[DfgEdge]) -> Dfg {
    let v = Value::Object(vec![
        ("nodes".to_string(), serde_json::to_value(nodes).unwrap()),
        ("edges".to_string(), serde_json::to_value(edges).unwrap()),
    ]);
    serde_json::from_value(&v).expect("dfg decodes")
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
    let mut edges = d.edges().to_vec();
    edges.push(edges[0]);
    let d = dfg_of(d.nodes(), &edges);
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

/// The DFG of every candidate the default exploration yields for two
/// fig9 apps, in exploration order, repeated shapes included.
fn explored_dfgs() -> Vec<Dfg> {
    let config = PtMapConfig::default().explore;
    let mut out = Vec::new();
    for program in [apps::atax(), apps::trisolv()] {
        let forest = pt_map::transform::explore(&program, &config);
        for c in forest
            .variants
            .iter()
            .flat_map(|v| v.pnl_candidates.iter().flatten())
        {
            match build_dfg(&c.program, &c.nest, &c.unroll) {
                Ok(dfg) if !dfg.is_empty() => out.push(dfg),
                _ => {}
            }
        }
    }
    out
}

fn checkpoint() -> PtMapGnn {
    let text = std::fs::read_to_string(repo_path(CHECKPOINT)).expect("checkpoint is committed");
    serde_json::from_str(&text).expect("checkpoint parses")
}

fn models() -> Vec<PtMapGnn> {
    let mut out = vec![checkpoint()];
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

#[test]
fn memoized_predictions_equal_a_fresh_forward() {
    let model = checkpoint();
    let mut dfgs = dfgs();
    dfgs.extend(explored_dfgs());
    let shapes: std::collections::HashSet<SwKey> = dfgs.iter().map(SwKey::of).collect();
    assert!(
        shapes.len() < dfgs.len(),
        "the explored candidates repeat shapes, so the memo is exercised"
    );
    // One predictor (and one shared by threads) across every
    // architecture, so an answer must never leak between them.
    let predictor = GnnPredictor::new(model.clone());
    let shared = GnnPredictor::new(model.clone());
    for arch in &archs() {
        let hw = model.embed_arch(arch);
        let want: Vec<(u32, u32)> = dfgs
            .iter()
            .map(|dfg| {
                let p = model.predict_sw(&build_sw_input(dfg, arch), &hw);
                (p.ii.max(1), p.pro_epi)
            })
            .collect();
        for pass in ["first", "repeat"] {
            for (k, dfg) in dfgs.iter().enumerate() {
                assert_eq!(
                    predictor.predict(dfg, arch),
                    want[k],
                    "{pass} call, {} dfg #{k}",
                    arch.name()
                );
            }
        }
        // Four threads share one memo: a compiler holds its predictor
        // as `Send + Sync`, so concurrent calls must agree with it.
        let got: Vec<Vec<(usize, (u32, u32))>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (shared, dfgs) = (&shared, &dfgs);
                    scope.spawn(move || {
                        (t..dfgs.len())
                            .step_by(4)
                            .map(|k| (k, shared.predict(&dfgs[k], arch)))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (k, answer) in got.into_iter().flatten() {
            assert_eq!(answer, want[k], "4 threads, {} dfg #{k}", arch.name());
        }
    }
}

#[test]
fn access_imm_and_scalar_stay_out_of_the_key() {
    let model = checkpoint();
    let archs = archs();
    let other = ArrayAccess::new(ArrayId(7), vec![AffineExpr::constant(5)]);
    for dfg in dfgs() {
        let mut nodes = dfg.nodes().to_vec();
        for n in &mut nodes {
            n.access = match n.access {
                Some(_) => None,
                None => Some(other.clone()),
            };
            n.imm = Some(n.imm.map_or(41, |v| v + 1));
            n.scalar = Some(ScalarId(3));
        }
        let moved = dfg_of(&nodes, dfg.edges());
        assert_ne!(moved, dfg);
        assert_eq!(SwKey::of(&moved), SwKey::of(&dfg));
        for arch in &archs {
            let hw = model.embed_arch(arch);
            let heads = |d: &Dfg| bits(&model.heads(&build_sw_input(d, arch), &hw));
            assert_eq!(heads(&moved), heads(&dfg), "on {}", arch.name());
        }
    }
}

#[test]
fn ops_and_edges_enter_the_key() {
    for dfg in dfgs() {
        let key = SwKey::of(&dfg);
        assert_eq!(dfg_of(dfg.nodes(), dfg.edges()), dfg);
        let mut nodes = dfg.nodes().to_vec();
        nodes[0].op = match nodes[0].op {
            OpKind::Add => OpKind::Sub,
            _ => OpKind::Add,
        };
        assert_ne!(SwKey::of(&dfg_of(&nodes, dfg.edges())), key, "changed op");
        if dfg.edges().is_empty() {
            continue;
        }
        let n = dfg.len() as u32;
        let changed_edge = |change: &dyn Fn(&mut DfgEdge)| {
            let mut edges = dfg.edges().to_vec();
            change(edges.last_mut().unwrap());
            SwKey::of(&dfg_of(dfg.nodes(), &edges))
        };
        if n > 1 {
            let endpoint = changed_edge(&|e| e.dst.0 = (e.dst.0 + 1) % n);
            assert_ne!(endpoint, key, "changed endpoint");
        }
        assert_ne!(changed_edge(&|e| e.dist += 1), key, "changed dist");
        let kind = changed_edge(&|e| {
            e.kind = match e.kind {
                EdgeKind::Data => EdgeKind::Order,
                EdgeKind::Order => EdgeKind::Data,
            }
        });
        assert_ne!(kind, key, "changed kind");
    }
}
