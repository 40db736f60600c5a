//! Micro-benchmarks of the priority-queue substrate itself: heapsort
//! (push + pop only) and a decrease-key-heavy mixed workload, per heap.
//! Complements E9, which measures the heaps inside the full routing
//! algorithm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use heaps::{
    ArrayHeap, BinaryHeap, FibonacciHeap, HeapKind, IndexedPriorityQueue, LeftistHeap, PairingHeap,
    RadixHeap, SkewHeap,
};

const N: usize = 4096;

/// Deterministic pseudo-random priorities.
fn priorities() -> Vec<u64> {
    let mut state: u64 = 0x243F6A8885A308D3;
    (0..N)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 1_000_000
        })
        .collect()
}

fn heapsort<Q: IndexedPriorityQueue<u64>>(prios: &[u64]) -> u64 {
    let mut q = Q::with_capacity(prios.len());
    for (i, &p) in prios.iter().enumerate() {
        q.push(i, p);
    }
    let mut checksum = 0u64;
    while let Some((_, p)) = q.pop_min() {
        checksum = checksum.wrapping_add(p);
    }
    checksum
}

fn decrease_heavy<Q: IndexedPriorityQueue<u64>>(prios: &[u64]) -> u64 {
    let mut q = Q::with_capacity(prios.len());
    for (i, &p) in prios.iter().enumerate() {
        q.push(i, 1_000_000 + p);
    }
    // Simulate Dijkstra-like waves: repeatedly improve random items.
    for round in 0..4u64 {
        for (i, &p) in prios.iter().enumerate() {
            let target = 900_000u64.saturating_sub(round * 200_000) + p / 2;
            let _ = q.push_or_decrease(i, target.min(*q.priority(i).unwrap_or(&u64::MAX)));
        }
    }
    let mut checksum = 0u64;
    while let Some((_, p)) = q.pop_min() {
        checksum = checksum.wrapping_add(p);
    }
    checksum
}

fn run<Q: IndexedPriorityQueue<u64>>(kind: &str, workload: &str, prios: &[u64]) -> u64 {
    match workload {
        "heapsort" => heapsort::<Q>(prios),
        _ => decrease_heavy::<Q>(prios),
    }
    .wrapping_add(kind.len() as u64)
}

fn bench(c: &mut Criterion) {
    let prios = priorities();
    for workload in ["heapsort", "decrease_heavy"] {
        let mut group = c.benchmark_group(format!("heaps_{workload}"));
        group.sample_size(10);
        for kind in HeapKind::ALL {
            // ArrayHeap's O(n) pops make heapsort quadratic; skip it at
            // this N to keep the bench suite fast (E9 covers it).
            if kind == HeapKind::Array {
                continue;
            }
            group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
                b.iter(|| {
                    let out = match k {
                        HeapKind::Fibonacci => run::<FibonacciHeap<u64>>("f", workload, &prios),
                        HeapKind::Pairing => run::<PairingHeap<u64>>("p", workload, &prios),
                        HeapKind::Binary => run::<BinaryHeap<u64>>("b", workload, &prios),
                        HeapKind::Skew => run::<SkewHeap<u64>>("s", workload, &prios),
                        HeapKind::Leftist => run::<LeftistHeap<u64>>("l", workload, &prios),
                        HeapKind::Radix => run::<RadixHeap<u64>>("r", workload, &prios),
                        HeapKind::Array => run::<ArrayHeap<u64>>("a", workload, &prios),
                    };
                    std::hint::black_box(out)
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
