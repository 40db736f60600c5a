//! L7 fixture: allocation inside a hot-path annotated function.

/// Sums a copy of `v`.
// wdm-lint: hot-path
pub fn hot_sum(v: &[u32]) -> u32 {
    let copy = v.to_vec();
    let boxed = Box::new(0u32);
    copy.iter().sum::<u32>() + *boxed
}
