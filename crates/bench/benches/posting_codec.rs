//! Posting-list codec throughput per coding scheme (the varint delta
//! encoding ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use si_core::coding::{decode_postings, Coding, NodeVal, PostingBuilder};

fn occurrences(n: usize) -> Vec<(u32, Vec<(NodeVal, u8)>)> {
    (0..n)
        .map(|i| {
            let tid = (i / 4) as u32;
            let pre = (i % 4) as u32 * 7;
            (
                tid,
                vec![
                    (NodeVal { pre, post: pre + 6, level: 2 }, 1),
                    (NodeVal { pre: pre + 1, post: pre + 2, level: 3 }, 2),
                    (NodeVal { pre: pre + 3, post: pre + 5, level: 3 }, 3),
                ],
            )
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let occs = occurrences(100_000);
    let mut group = c.benchmark_group("posting_codec");
    group.throughput(Throughput::Elements(occs.len() as u64));
    for coding in Coding::ALL {
        group.bench_with_input(BenchmarkId::new("encode", coding.name()), &occs, |b, occs| {
            b.iter(|| {
                let mut builder = PostingBuilder::new(coding);
                for (tid, nodes) in occs {
                    builder.push(*tid, nodes);
                }
                builder.finish().len()
            })
        });
        let mut builder = PostingBuilder::new(coding);
        for (tid, nodes) in &occs {
            builder.push(*tid, nodes);
        }
        let bytes = builder.finish();
        group.bench_with_input(BenchmarkId::new("decode", coding.name()), &bytes, |b, bytes| {
            b.iter(|| decode_postings(coding, 3, bytes).count())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
