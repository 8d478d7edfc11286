//! Microbenchmark for the modulo-scheduling mapper's hot path.
//!
//! PT-Map calls `map_dfg` once per transformed candidate per kernel, so
//! the router's inner loop dominates batch compile time. The cases here
//! are the routing-dominated ones the ISSUE targets: unrolled gemm on
//! the homogeneous S4 (tight capacity, lots of contention) and the
//! large SL8 (long routes across a 8x8 array), plus a high-fanout
//! kernel that stresses shared route trees.
//!
//! `build_dfg/fig9_candidates` times the front end in front of every
//! mapping: it builds the DFG of every candidate the default exploration
//! yields for the eleven fig9 apps.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ptmap_arch::presets;
use ptmap_ir::dfg::build_dfg;
use ptmap_ir::{Dfg, Program, ProgramBuilder};
use ptmap_mapper::{map_dfg, MapperConfig};
use ptmap_transform::{explore, ExploreConfig, PnlCandidate};

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

fn fanout(width: usize) -> Program {
    let mut b = ProgramBuilder::new("fanout");
    let x = b.array("X", &[256]);
    let outs: Vec<_> = (0..width)
        .map(|k| b.array(format!("O{k}"), &[256]))
        .collect();
    let i = b.open_loop("i", 256);
    for (k, &o) in outs.iter().enumerate() {
        let v = b.add(b.load(x, &[b.idx(i)]), b.constant(k as i64 + 1));
        b.store(o, &[b.idx(i)], v);
    }
    b.close_loop();
    b.finish()
}

fn unrolled_dfg(p: &Program, factors: &[(usize, u32)]) -> Dfg {
    let nest = p.perfect_nests().remove(0);
    let unroll: Vec<_> = factors.iter().map(|&(l, f)| (nest.loops[l], f)).collect();
    build_dfg(p, &nest, &unroll).unwrap()
}

fn mapper_hotpath(c: &mut Criterion) {
    let cfg = MapperConfig::default();
    let gemm24 = gemm(24);
    let cases = vec![
        (
            "gemm24_u2x2_s4",
            unrolled_dfg(&gemm24, &[(0, 2), (1, 2)]),
            presets::s4(),
        ),
        (
            "gemm24_u2x2_sl8",
            unrolled_dfg(&gemm24, &[(0, 2), (1, 2)]),
            presets::sl8(),
        ),
        (
            "gemm24_u4x2_sl8",
            unrolled_dfg(&gemm24, &[(0, 4), (1, 2)]),
            presets::sl8(),
        ),
        (
            "fanout8_u2_s4",
            unrolled_dfg(&fanout(8), &[(0, 2)]),
            presets::s4(),
        ),
    ];
    for (name, dfg, arch) in &cases {
        c.bench_function(&format!("map_dfg/{name}"), |b| {
            b.iter(|| map_dfg(black_box(dfg), arch, &cfg).unwrap());
        });
    }
}

fn build_dfg_fig9(c: &mut Criterion) {
    let config = ExploreConfig::default();
    let forests: Vec<_> = ptmap_workloads::apps::all()
        .iter()
        .map(|(_, p)| explore(p, &config))
        .collect();
    let candidates: Vec<&PnlCandidate> = forests
        .iter()
        .flat_map(|f| &f.variants)
        .flat_map(|v| v.pnl_candidates.iter().flatten())
        .collect();
    c.bench_function("build_dfg/fig9_candidates", |b| {
        b.iter(|| {
            for cand in &candidates {
                let _ = black_box(build_dfg(&cand.program, &cand.nest, &cand.unroll));
            }
        });
    });
}

criterion_group!(benches, mapper_hotpath, build_dfg_fig9);
criterion_main!(benches);
