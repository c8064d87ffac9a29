//! Ablation: MPMGJN vs Stack-Tree structural joins on the
//! same root-split index — the paper's "more efficient stack-based
//! approaches can be directly applied over our root-split coding".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use si_bench::harness::bench_fixture;
use si_core::join::JoinAlgo;
use si_core::Coding;
use si_query::parse_query;

fn bench_join_ablation(c: &mut Criterion) {
    let (_work, big, mut index) = bench_fixture(2_000, 2, Coding::RootSplit);
    let mut interner = big.interner().clone();
    let queries = [
        ("deep", "S(NP(NP(NN))(PP(IN)(NP)))(VP)"),
        ("wide", "S(NP(DT)(JJ)(NN))(VP(VBZ)(NP))"),
        ("descendant", "S(//NN)"),
    ];
    let mut group = c.benchmark_group("join_ablation_mss2");
    group.sample_size(15);
    for (name, src) in queries {
        let q = parse_query(src, &mut interner).unwrap();
        for algo in [JoinAlgo::Mpmgjn, JoinAlgo::StackTree] {
            index.set_join_algo(algo);
            // Criterion runs the closure after set_join_algo per algo id.
            let label = format!("{algo:?}");
            let result = index.evaluate(&q).expect("evaluate").len();
            group.bench_with_input(
                BenchmarkId::new(label, format!("{name}({result})")),
                &q,
                |b, q| b.iter(|| index.evaluate(q).expect("evaluate").len()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_join_ablation);
criterion_main!(benches);
