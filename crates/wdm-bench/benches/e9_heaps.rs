//! E9 — heap ablation: the same layered-graph Dijkstra driven by every
//! [`HeapKind`]: the Fibonacci heap (Theorem 1's choice), the pairing,
//! binary, skew and leftist heaps, the monotone radix heap the residual
//! search kernel uses, and the CFZ-era array scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wdm_bench::{log2_ceil, sparse_instance};
use wdm_core::{HeapKind, LiangShenRouter};
use wdm_graph::NodeId;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_heaps");
    group.sample_size(10);
    for exp in [8usize, 10] {
        let n = 1usize << exp;
        let k = log2_ceil(n);
        let net = sparse_instance(n, k, 900 + exp as u64);
        let (s, t) = (NodeId::new(0), NodeId::new(n / 2));
        for kind in HeapKind::ALL {
            let router = LiangShenRouter::with_heap(kind);
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &n, |b, _| {
                b.iter(|| std::hint::black_box(router.route(&net, s, t).expect("ok")));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
