//! L6 fixture: direct panics in library code.

/// Returns the first element of `v`.
pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

/// Always fails.
pub fn boom() -> u32 {
    panic!("boom")
}
