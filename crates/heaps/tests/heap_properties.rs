//! Property-based tests: every heap implementation must behave exactly like a
//! simple reference priority queue under arbitrary operation sequences.

use heaps::{
    ArrayHeap, BinaryHeap, FibonacciHeap, IndexedPriorityQueue, LeftistHeap, PairingHeap,
    RadixHeap, SkewHeap,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Reference model: ordered set of (priority, item).
#[derive(Default)]
struct Model {
    set: BTreeSet<(u64, usize)>,
    prio: Vec<Option<u64>>,
}

impl Model {
    fn with_capacity(n: usize) -> Self {
        Model {
            set: BTreeSet::new(),
            prio: vec![None; n],
        }
    }

    fn contains(&self, item: usize) -> bool {
        self.prio[item].is_some()
    }

    fn push(&mut self, item: usize, p: u64) {
        assert!(self.prio[item].is_none());
        self.prio[item] = Some(p);
        self.set.insert((p, item));
    }

    fn decrease_key(&mut self, item: usize, p: u64) {
        let old = self.prio[item].expect("queued");
        assert!(p <= old);
        self.set.remove(&(old, item));
        self.set.insert((p, item));
        self.prio[item] = Some(p);
    }

    /// Removes a specific (priority, item) pair; used to mirror the heap's
    /// tie-breaking choice.
    fn remove(&mut self, item: usize, p: u64) {
        assert_eq!(
            self.prio[item],
            Some(p),
            "heap popped a pair the model lacks"
        );
        assert!(
            self.set.iter().next().map(|&(mp, _)| mp) == Some(p),
            "heap popped non-minimal priority {p}"
        );
        self.set.remove(&(p, item));
        self.prio[item] = None;
    }
}

#[derive(Debug, Clone)]
enum Op {
    Push(usize, u64),
    DecreaseKey(usize, u64),
    PopMin,
}

fn op_strategy(universe: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..universe, 0u64..1000).prop_map(|(i, p)| Op::Push(i, p)),
        (0..universe, 0u64..1000).prop_map(|(i, p)| Op::DecreaseKey(i, p)),
        Just(Op::PopMin),
    ]
}

fn run_against_model<Q: IndexedPriorityQueue<u64>>(ops: &[Op], universe: usize) {
    let mut heap = Q::with_capacity(universe);
    let mut model = Model::with_capacity(universe);
    for op in ops {
        match *op {
            Op::Push(item, p) => {
                if !model.contains(item) {
                    heap.push(item, p);
                    model.push(item, p);
                }
            }
            Op::DecreaseKey(item, p) => {
                if let Some(old) = model.prio[item] {
                    let p = p.min(old);
                    heap.decrease_key(item, p);
                    model.decrease_key(item, p);
                }
            }
            Op::PopMin => match heap.pop_min() {
                Some((item, p)) => model.remove(item, p),
                None => assert!(model.set.is_empty()),
            },
        }
        assert_eq!(heap.len(), model.set.len());
        if let Some((_, p)) = heap.peek_min() {
            let &(mp, _) = model.set.iter().next().expect("model non-empty");
            assert_eq!(*p, mp, "peek_min priority mismatch");
        }
    }
    // Drain: priorities must come out in the model's sorted order.
    while let Some((item, p)) = heap.pop_min() {
        model.remove(item, p);
    }
    assert!(model.set.is_empty());
}

/// A Dijkstra-shaped operation: keys are offsets above the last popped
/// priority, so every push and decrease is monotone.
#[derive(Debug, Clone)]
enum MonotoneOp {
    Push(usize, u64),
    /// Lowers the item's key to `floor + (current - floor) * num / 8`.
    DecreaseKey(usize, u64),
    PopMin,
}

/// Offsets from small ties up to the top bits, so every radix bucket and
/// its redistribution get exercised.
fn offset_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4,
        0u64..1000,
        (0u64..1000).prop_map(|x| (1 << 40) + x),
        (0u64..64).prop_map(|b| 1u64 << b),
        Just(u64::MAX),
    ]
}

fn monotone_op_strategy(universe: usize) -> impl Strategy<Value = MonotoneOp> {
    prop_oneof![
        (0..universe, offset_strategy()).prop_map(|(i, d)| MonotoneOp::Push(i, d)),
        (0..universe, 0u64..9).prop_map(|(i, num)| MonotoneOp::DecreaseKey(i, num)),
        Just(MonotoneOp::PopMin),
    ]
}

/// Drives the radix heap and the binary heap through the same monotone
/// sequence: they must pop the same priorities and agree on `len`,
/// `contains` and `priority` after every operation.
///
/// Equal priorities may pop in different orders, so the binary side
/// addresses item `alias[i]` where the radix side addresses `i`; a tie
/// popped differently swaps the two aliases, which keeps both heaps in the
/// same state up to naming.
fn radix_matches_binary(ops: &[MonotoneOp], universe: usize) {
    let mut radix: RadixHeap<u64> = RadixHeap::with_capacity(universe);
    let mut binary: BinaryHeap<u64> = BinaryHeap::with_capacity(universe);
    let mut alias: Vec<usize> = (0..universe).collect();
    // Keys stay below u64::MAX, the sentinel Dijkstra never queues.
    let mut floor = 0u64;
    for op in ops {
        match *op {
            MonotoneOp::Push(item, offset) => {
                if !radix.contains(item) {
                    let p = floor.saturating_add(offset).min(u64::MAX - 1);
                    radix.push(item, p);
                    binary.push(alias[item], p);
                }
            }
            MonotoneOp::DecreaseKey(item, num) => {
                if let Some(&old) = radix.priority(item) {
                    let lowered = u128::from(old - floor) * u128::from(num) / 8;
                    let p = floor + u64::try_from(lowered).expect("below old - floor");
                    radix.decrease_key(item, p);
                    binary.decrease_key(alias[item], p);
                }
            }
            MonotoneOp::PopMin => match (radix.pop_min(), binary.pop_min()) {
                (Some((r, p)), Some((b, q))) => {
                    assert_eq!(p, q, "popped priority");
                    floor = p;
                    if alias[r] != b {
                        let other = alias.iter().position(|&a| a == b).expect("alias");
                        alias.swap(r, other);
                    }
                }
                (r, b) => assert_eq!(r, b, "one heap ran empty first"),
            },
        }
        assert_eq!(radix.len(), binary.len());
        for (item, &b) in alias.iter().enumerate() {
            assert_eq!(radix.contains(item), binary.contains(b), "contains({item})");
            assert_eq!(radix.priority(item), binary.priority(b), "priority({item})");
        }
    }
    while let Some((_, p)) = radix.pop_min() {
        assert_eq!(binary.pop_min().map(|(_, q)| q), Some(p));
    }
    assert!(binary.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn radix_matches_binary_on_monotone_sequences(
        ops in prop::collection::vec(monotone_op_strategy(24), 1..300),
    ) {
        radix_matches_binary(&ops, 24);
    }

    #[test]
    fn fibonacci_matches_model(ops in prop::collection::vec(op_strategy(24), 1..200)) {
        run_against_model::<FibonacciHeap<u64>>(&ops, 24);
    }

    #[test]
    fn pairing_matches_model(ops in prop::collection::vec(op_strategy(24), 1..200)) {
        run_against_model::<PairingHeap<u64>>(&ops, 24);
    }

    #[test]
    fn binary_matches_model(ops in prop::collection::vec(op_strategy(24), 1..200)) {
        run_against_model::<BinaryHeap<u64>>(&ops, 24);
    }

    #[test]
    fn array_matches_model(ops in prop::collection::vec(op_strategy(24), 1..200)) {
        run_against_model::<ArrayHeap<u64>>(&ops, 24);
    }

    #[test]
    fn skew_matches_model(ops in prop::collection::vec(op_strategy(24), 1..200)) {
        run_against_model::<SkewHeap<u64>>(&ops, 24);
    }

    #[test]
    fn leftist_matches_model(ops in prop::collection::vec(op_strategy(24), 1..200)) {
        run_against_model::<LeftistHeap<u64>>(&ops, 24);
    }

    #[test]
    fn heaps_agree_on_heapsort(mut priorities in prop::collection::vec(0u64..10_000, 1..128)) {
        let n = priorities.len();
        let mut fib: FibonacciHeap<u64> = FibonacciHeap::with_capacity(n);
        let mut pair: PairingHeap<u64> = PairingHeap::with_capacity(n);
        let mut bin: BinaryHeap<u64> = BinaryHeap::with_capacity(n);
        let mut arr: ArrayHeap<u64> = ArrayHeap::with_capacity(n);
        for (i, &p) in priorities.iter().enumerate() {
            fib.push(i, p);
            pair.push(i, p);
            bin.push(i, p);
            arr.push(i, p);
        }
        priorities.sort_unstable();
        for &expect in &priorities {
            assert_eq!(fib.pop_min().map(|(_, p)| p), Some(expect));
            assert_eq!(pair.pop_min().map(|(_, p)| p), Some(expect));
            assert_eq!(bin.pop_min().map(|(_, p)| p), Some(expect));
            assert_eq!(arr.pop_min().map(|(_, p)| p), Some(expect));
        }
    }
}
