//! Wavelength identifiers and wavelength sets.

use std::fmt;

/// A wavelength `λ_i` out of the network's set `Λ = {λ_0, …, λ_{k-1}}`.
///
/// Wavelengths are dense indices; the paper's 1-based `λ_1 … λ_k` maps to
/// `0 … k-1` here.
///
/// # Examples
///
/// ```
/// use wdm_core::Wavelength;
/// let l = Wavelength::new(2);
/// assert_eq!(l.index(), 2);
/// assert_eq!(l.to_string(), "λ2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Wavelength(u32);

impl Wavelength {
    /// Creates a wavelength from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit into `u32`.
    pub fn new(index: usize) -> Self {
        let Ok(raw) = u32::try_from(index) else {
            unreachable!("wavelength index {index} exceeds u32")
        };
        Wavelength(raw)
    }

    /// The dense index of this wavelength.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Absolute spectral distance `|p - q|`, used by banded converters.
    pub fn distance(self, other: Wavelength) -> usize {
        (self.0.max(other.0) - self.0.min(other.0)) as usize
    }
}

impl From<usize> for Wavelength {
    fn from(index: usize) -> Self {
        Wavelength::new(index)
    }
}

impl fmt::Display for Wavelength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}", self.0)
    }
}

/// A set of wavelengths out of `Λ = 0..k`, stored as a bitset.
///
/// Used for the paper's per-link availability sets `Λ(e)` and the per-node
/// sets `Λ_in(G_M, v)` / `Λ_out(G_M, v)`.
///
/// # Examples
///
/// ```
/// use wdm_core::{Wavelength, WavelengthSet};
///
/// let mut s = WavelengthSet::empty(4);
/// s.insert(Wavelength::new(0));
/// s.insert(Wavelength::new(3));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(Wavelength::new(3)));
/// let t = WavelengthSet::from_indices(4, [1, 3]);
/// assert_eq!(s.intersection(&t).iter().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WavelengthSet {
    k: usize,
    blocks: Vec<u64>,
}

impl WavelengthSet {
    /// The empty set over a universe of `k` wavelengths.
    pub fn empty(k: usize) -> Self {
        WavelengthSet {
            k,
            blocks: vec![0; k.div_ceil(64)],
        }
    }

    /// The full set `Λ = {λ_0 … λ_{k-1}}`.
    pub fn full(k: usize) -> Self {
        let mut s = WavelengthSet::empty(k);
        for i in 0..k {
            s.insert(Wavelength::new(i));
        }
        s
    }

    /// Builds a set from wavelength indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= k`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(k: usize, indices: I) -> Self {
        let mut s = WavelengthSet::empty(k);
        for i in indices {
            s.insert(Wavelength::new(i));
        }
        s
    }

    /// The universe size `k`.
    pub fn universe(&self) -> usize {
        self.k
    }

    /// Inserts a wavelength; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `w.index() >= k`.
    pub fn insert(&mut self, w: Wavelength) -> bool {
        assert!(
            w.index() < self.k,
            "{w} outside universe of size {}",
            self.k
        );
        let (blk, bit) = (w.index() / 64, w.index() % 64);
        let was = self.blocks[blk] & (1 << bit) != 0;
        self.blocks[blk] |= 1 << bit;
        !was
    }

    /// Removes a wavelength; returns `true` if it was present.
    pub fn remove(&mut self, w: Wavelength) -> bool {
        if w.index() >= self.k {
            return false;
        }
        let (blk, bit) = (w.index() / 64, w.index() % 64);
        let was = self.blocks[blk] & (1 << bit) != 0;
        self.blocks[blk] &= !(1 << bit);
        was
    }

    /// Membership test.
    pub fn contains(&self, w: Wavelength) -> bool {
        w.index() < self.k && self.blocks[w.index() / 64] & (1 << (w.index() % 64)) != 0
    }

    /// Number of wavelengths in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Set union (universes must match).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union(&self, other: &WavelengthSet) -> WavelengthSet {
        assert_eq!(self.k, other.k, "universe mismatch");
        WavelengthSet {
            k: self.k,
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Set intersection (universes must match).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection(&self, other: &WavelengthSet) -> WavelengthSet {
        assert_eq!(self.k, other.k, "universe mismatch");
        WavelengthSet {
            k: self.k,
            blocks: self
                .blocks
                .iter()
                .zip(&other.blocks)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &WavelengthSet) {
        assert_eq!(self.k, other.k, "universe mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Iterates the wavelengths in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = Wavelength> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            (0..64).filter_map(move |bit| {
                if block & (1u64 << bit) != 0 {
                    Some(Wavelength::new(bi * 64 + bit))
                } else {
                    None
                }
            })
        })
    }
}

impl FromIterator<Wavelength> for WavelengthSet {
    /// Collects into a set whose universe is one past the largest index
    /// (empty iterator → empty universe).
    fn from_iter<I: IntoIterator<Item = Wavelength>>(iter: I) -> Self {
        let items: Vec<Wavelength> = iter.into_iter().collect();
        let k = items.iter().map(|w| w.index() + 1).max().unwrap_or(0);
        let mut s = WavelengthSet::empty(k);
        for w in items {
            s.insert(w);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = WavelengthSet::empty(130);
        assert!(s.insert(Wavelength::new(0)));
        assert!(s.insert(Wavelength::new(64)));
        assert!(s.insert(Wavelength::new(129)));
        assert!(!s.insert(Wavelength::new(129)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(Wavelength::new(64)));
        assert!(!s.contains(Wavelength::new(65)));
        assert!(s.remove(Wavelength::new(64)));
        assert!(!s.remove(Wavelength::new(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn full_set() {
        let s = WavelengthSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(Wavelength::new(69)));
        assert_eq!(s.iter().count(), 70);
    }

    #[test]
    fn iteration_is_sorted() {
        let s = WavelengthSet::from_indices(100, [99, 0, 63, 64, 5]);
        let order: Vec<usize> = s.iter().map(|w| w.index()).collect();
        assert_eq!(order, vec![0, 5, 63, 64, 99]);
    }

    #[test]
    fn union_and_intersection() {
        let a = WavelengthSet::from_indices(10, [1, 3, 5]);
        let b = WavelengthSet::from_indices(10, [3, 5, 7]);
        let u = a.union(&b);
        let i = a.intersection(&b);
        assert_eq!(u.len(), 4);
        assert_eq!(i.len(), 2);
        assert!(i.contains(Wavelength::new(3)));
        assert!(!i.contains(Wavelength::new(1)));
    }

    #[test]
    fn union_with_accumulates() {
        let mut acc = WavelengthSet::empty(8);
        acc.union_with(&WavelengthSet::from_indices(8, [1]));
        acc.union_with(&WavelengthSet::from_indices(8, [6]));
        assert_eq!(acc.len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        let mut s = WavelengthSet::empty(4);
        s.insert(Wavelength::new(4));
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: WavelengthSet = [Wavelength::new(2), Wavelength::new(7)]
            .into_iter()
            .collect();
        assert_eq!(s.universe(), 8);
        assert_eq!(s.len(), 2);
        let empty: WavelengthSet = std::iter::empty().collect();
        assert!(empty.is_empty());
        assert_eq!(empty.universe(), 0);
    }

    #[test]
    fn wavelength_distance() {
        assert_eq!(Wavelength::new(3).distance(Wavelength::new(7)), 4);
        assert_eq!(Wavelength::new(7).distance(Wavelength::new(3)), 4);
        assert_eq!(Wavelength::new(5).distance(Wavelength::new(5)), 0);
    }
}
