//! Indexed monotone radix heap for integer keys (Ahuja, Mehlhorn, Orlin &
//! Tarjan, "Faster algorithms for the shortest path problem", JACM 1990).

use crate::IndexedPriorityQueue;

/// A priority with an order-preserving `u64` image, so that
/// [`RadixHeap`] can bucket it by bits.
///
/// The image must be monotone in the priority's [`Ord`]:
/// `a <= b` exactly when `a.radix_key() <= b.radix_key()`.
pub trait RadixKey {
    /// The key's `u64` image.
    fn radix_key(&self) -> u64;
}

impl RadixKey for u64 {
    fn radix_key(&self) -> u64 {
        *self
    }
}

/// One bucket per possible highest differing bit, plus bucket 0 for keys
/// equal to the last popped key.
const BUCKETS: usize = 65;

/// `pos[item].0` for an item that is not queued.
const ABSENT: usize = usize::MAX;

/// The bucket of `key` relative to the last popped key `last`: 0 when they
/// are equal, otherwise one plus the index of the highest bit in which they
/// differ.
fn bucket_of(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

/// An indexed monotone radix heap over dense `usize` items.
///
/// Keys are bucketed by the highest bit in which they differ from the last
/// popped key, so a key moves to a lower bucket at most 64 times over its
/// life: `push` and `decrease_key` are `O(1)`, `pop_min` is `O(1)`
/// amortized plus the redistribution of one bucket. The position map gives
/// the `O(1)` `decrease_key` the [`IndexedPriorityQueue`] trait needs.
///
/// The heap is *monotone*: every pushed or decreased key must be at least
/// the last popped key, which is exactly what Dijkstra's algorithm with
/// non-negative edge costs guarantees. Ties pop last-in first-out among
/// the items holding the minimum.
///
/// # Panics
///
/// `push` and `decrease_key` panic on a key below the last popped key;
/// [`clear`](IndexedPriorityQueue::clear) resets that floor to zero.
///
/// # Examples
///
/// ```
/// use heaps::{IndexedPriorityQueue, RadixHeap};
///
/// let mut h: RadixHeap<u64> = RadixHeap::with_capacity(4);
/// h.push(0, 8);
/// h.push(1, 2);
/// h.push(2, 1 << 40);
/// assert_eq!(h.pop_min(), Some((1, 2)));
/// h.decrease_key(0, 3);
/// assert_eq!(h.pop_min(), Some((0, 3)));
/// assert_eq!(h.pop_min(), Some((2, 1 << 40)));
/// ```
#[derive(Debug, Clone)]
pub struct RadixHeap<P> {
    buckets: Vec<Vec<(usize, P)>>,
    /// Bit `b` is set when `buckets[b]` is non-empty.
    occupied: u128,
    /// `pos[item]` = (bucket, index in bucket), or `(ABSENT, _)`.
    pos: Vec<(usize, usize)>,
    /// The last popped key: the floor for every queued key.
    last: u64,
    len: usize,
}

impl<P: Ord + Clone + RadixKey> RadixHeap<P> {
    /// Appends `item` to bucket `b`.
    fn insert(&mut self, b: usize, item: usize, priority: P) {
        let bucket = &mut self.buckets[b];
        self.pos[item] = (b, bucket.len());
        bucket.push((item, priority));
        self.occupied |= 1 << b;
    }

    /// Removes entry `i` of bucket `b`, moving the bucket's last entry
    /// into its place.
    fn remove(&mut self, b: usize, i: usize) -> (usize, P) {
        let bucket = &mut self.buckets[b];
        let entry = bucket.swap_remove(i);
        if let Some(&(moved, _)) = bucket.get(i) {
            self.pos[moved].1 = i;
        }
        if bucket.is_empty() {
            self.occupied &= !(1 << b);
        }
        self.pos[entry.0].0 = ABSENT;
        entry
    }

    /// Index in bucket `b` of the entry `pop_min` would take next: the
    /// last one holding the bucket's minimum key.
    fn min_index(&self, b: usize) -> Option<usize> {
        let bucket = &self.buckets[b];
        (0..bucket.len())
            .rev()
            .min_by(|&x, &y| bucket[x].1.cmp(&bucket[y].1))
    }
}

impl<P: Ord + Clone + RadixKey> IndexedPriorityQueue<P> for RadixHeap<P> {
    fn with_capacity(capacity: usize) -> Self {
        RadixHeap {
            buckets: vec![Vec::new(); BUCKETS],
            occupied: 0,
            pos: vec![(ABSENT, 0); capacity],
            last: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.pos.len()
    }

    fn contains(&self, item: usize) -> bool {
        self.pos.get(item).is_some_and(|&(b, _)| b != ABSENT)
    }

    fn priority(&self, item: usize) -> Option<&P> {
        let &(b, i) = self.pos.get(item)?;
        self.buckets.get(b).map(|bucket| &bucket[i].1)
    }

    // wdm-lint: hot-path
    fn push(&mut self, item: usize, priority: P) {
        assert!(item < self.pos.len(), "item {item} out of capacity");
        assert!(self.pos[item].0 == ABSENT, "item {item} already queued");
        let key = priority.radix_key();
        assert!(key >= self.last, "non-monotone push for item {item}");
        self.insert(bucket_of(key, self.last), item, priority);
        self.len += 1;
    }

    // wdm-lint: hot-path
    fn decrease_key(&mut self, item: usize, priority: P) {
        let (b, i) = self.pos.get(item).copied().unwrap_or((ABSENT, 0));
        assert!(b != ABSENT, "item {item} not queued");
        assert!(
            priority <= self.buckets[b][i].1,
            "decrease_key with greater priority for item {item}"
        );
        let key = priority.radix_key();
        assert!(
            key >= self.last,
            "non-monotone decrease_key for item {item}"
        );
        let nb = bucket_of(key, self.last);
        if nb == b {
            self.buckets[b][i].1 = priority;
        } else {
            self.remove(b, i);
            self.insert(nb, item, priority);
        }
    }

    // wdm-lint: hot-path
    fn pop_min(&mut self) -> Option<(usize, P)> {
        if self.occupied == 0 {
            return None;
        }
        if self.occupied & 1 == 0 {
            // Bucket 0 is empty: the minimum lies in the lowest occupied
            // bucket. Make it the new floor and spread that bucket's
            // entries over the buckets below it, relative to the floor.
            let b = self.occupied.trailing_zeros() as usize;
            let mut spill = std::mem::take(&mut self.buckets[b]);
            self.occupied &= !(1 << b);
            if let Some(floor) = spill.iter().map(|(_, p)| p.radix_key()).min() {
                self.last = floor;
            }
            for (item, priority) in spill.drain(..) {
                let nb = bucket_of(priority.radix_key(), self.last);
                self.insert(nb, item, priority);
            }
            // Hand the emptied buffer back so its capacity is reused.
            self.buckets[b] = spill;
        }
        let last = self.buckets[0].len().checked_sub(1)?;
        self.len -= 1;
        Some(self.remove(0, last))
    }

    fn peek_min(&self) -> Option<(usize, &P)> {
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        let i = self.min_index(b)?;
        let (item, ref priority) = self.buckets[b][i];
        Some((item, priority))
    }

    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            for (item, _) in bucket.drain(..) {
                self.pos[item].0 = ABSENT;
            }
        }
        self.occupied = 0;
        self.last = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_sorted_order_across_all_bit_widths() {
        let keys = [5, 1 << 40, 3, u64::MAX - 1, (1 << 40) + 7, 0, 1 << 63, 3];
        let mut h: RadixHeap<u64> = RadixHeap::with_capacity(keys.len());
        for (i, &k) in keys.iter().enumerate() {
            h.push(i, k);
        }
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        let mut out = Vec::new();
        while let Some((_, k)) = h.pop_min() {
            out.push(k);
        }
        assert_eq!(out, expected);
        assert!(h.is_empty());
    }

    #[test]
    fn ties_pop_last_in_first_out() {
        let mut h: RadixHeap<u64> = RadixHeap::with_capacity(4);
        h.push(0, 0);
        h.push(1, 0);
        h.push(2, 0);
        assert_eq!(h.peek_min(), Some((2, &0)));
        assert_eq!(h.pop_min(), Some((2, 0)));
        assert_eq!(h.pop_min(), Some((1, 0)));
        h.push(3, 9);
        h.push(2, 9);
        assert_eq!(h.pop_min(), Some((0, 0)));
        // Both 9s sit in one higher bucket; peek names the one pop takes.
        let (peeked, _) = h.peek_min().expect("non-empty");
        assert_eq!(h.pop_min(), Some((peeked, 9)));
        assert_eq!(h.pop_min(), Some((5 - peeked, 9)));
    }

    #[test]
    fn decrease_key_moves_between_buckets() {
        let mut h: RadixHeap<u64> = RadixHeap::with_capacity(4);
        h.push(0, 10);
        h.push(1, 1 << 50);
        h.push(2, 1 << 50);
        assert_eq!(h.pop_min(), Some((0, 10)));
        h.decrease_key(1, 11);
        assert_eq!(h.priority(1), Some(&11));
        h.decrease_key(2, 1 << 49);
        h.decrease_key(2, 1 << 49);
        assert_eq!(h.pop_min(), Some((1, 11)));
        assert_eq!(h.pop_min(), Some((2, 1 << 49)));
        assert_eq!(h.pop_min(), None);
    }

    #[test]
    fn clear_resets_the_floor() {
        let mut h: RadixHeap<u64> = RadixHeap::with_capacity(2);
        h.push(0, 100);
        h.push(1, 200);
        assert_eq!(h.pop_min(), Some((0, 100)));
        h.clear();
        assert!(h.is_empty() && !h.contains(1));
        h.push(1, 1);
        assert_eq!(h.pop_min(), Some((1, 1)));
    }

    #[test]
    #[should_panic(expected = "non-monotone push")]
    fn push_below_last_pop_panics() {
        let mut h: RadixHeap<u64> = RadixHeap::with_capacity(2);
        h.push(0, 5);
        h.pop_min();
        h.push(1, 4);
    }

    #[test]
    #[should_panic(expected = "non-monotone decrease_key")]
    fn decrease_below_last_pop_panics() {
        let mut h: RadixHeap<u64> = RadixHeap::with_capacity(2);
        h.push(0, 5);
        h.push(1, 9);
        h.pop_min();
        h.decrease_key(1, 4);
    }

    #[test]
    #[should_panic(expected = "greater priority")]
    fn increase_key_panics() {
        let mut h: RadixHeap<u64> = RadixHeap::with_capacity(2);
        h.push(0, 1);
        h.decrease_key(0, 5);
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn double_push_panics() {
        let mut h: RadixHeap<u64> = RadixHeap::with_capacity(2);
        h.push(0, 1);
        h.push(0, 2);
    }

    #[test]
    #[should_panic(expected = "not queued")]
    fn decrease_absent_panics() {
        let mut h: RadixHeap<u64> = RadixHeap::with_capacity(2);
        h.decrease_key(0, 1);
    }
}
