//! Kernels over contiguous factor slabs.
//!
//! The AMF model stores each side's latent factors as one contiguous
//! `Vec<f64>` (entity `i` occupies `i*dim..(i+1)*dim`). These kernels stream
//! a single query vector against such a slab — the adaptation framework's
//! candidate-ranking query (score every service for one user, keep the best
//! `k`) reduces to one pass over the service slab plus a bounded-heap
//! selection.
//!
//! **Read-only path.** The unrolled dot accumulates in four lanes, which
//! reorders floating-point additions relative to the sequential
//! [`crate::vector::dot`]. That is acceptable only for prediction and
//! ranking; training updates must keep the sequential kernel so that
//! bitwise sequential-vs-batched parity holds.

/// Dot product with four accumulator lanes (unrolled by 4).
///
/// Numerically equivalent to [`crate::vector::dot`] up to addition
/// reassociation — do **not** substitute it on any path that feeds training
/// state.
///
/// # Panics
///
/// Panics in debug builds if the slices differ in length; in release builds
/// the shorter length wins.
///
/// # Examples
///
/// ```
/// let a = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let b = [5.0, 4.0, 3.0, 2.0, 1.0];
/// assert_eq!(qos_linalg::slab::dot_unrolled4(&a, &b), 35.0);
/// ```
#[inline]
pub fn dot_unrolled4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot_unrolled4: length mismatch");
    let n = a.len().min(b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let chunks = n / 4;
    for i in 0..chunks {
        let k = i * 4;
        s0 += a[k] * b[k];
        s1 += a[k + 1] * b[k + 1];
        s2 += a[k + 2] * b[k + 2];
        s3 += a[k + 3] * b[k + 3];
    }
    let mut tail = 0.0;
    for k in chunks * 4..n {
        tail += a[k] * b[k];
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Scores a query vector against every row of a contiguous slab:
/// `out[i] = dot(query, slab[i*dim..(i+1)*dim])`.
///
/// `out` is cleared and refilled with `slab.len() / dim` scores; its
/// capacity is reused across calls, so a caller looping over queries incurs
/// at most one allocation. Rows are independent, so the unrolled dot's lane
/// reordering affects each score identically and deterministically.
///
/// # Panics
///
/// Panics if `dim == 0` or `slab.len()` is not a multiple of `dim`, or in
/// debug builds if `query.len() != dim`.
pub fn scores_into(query: &[f64], slab: &[f64], dim: usize, out: &mut Vec<f64>) {
    assert!(dim > 0, "scores_into: dim must be positive");
    assert_eq!(
        slab.len() % dim,
        0,
        "scores_into: slab length {} not a multiple of dim {dim}",
        slab.len()
    );
    debug_assert_eq!(query.len(), dim, "scores_into: query/dim mismatch");
    out.clear();
    out.reserve(slab.len() / dim);
    out.extend(slab.chunks_exact(dim).map(|row| dot_unrolled4(query, row)));
}

/// Selects the `k` smallest `(score, index)` pairs from `scores`, ascending.
///
/// Ordering is total and deterministic: by score under [`f64::total_cmp`],
/// ties broken by index. Uses a bounded max-heap of size `k`, so a top-10
/// query over thousands of scores does no full sort and no allocation beyond
/// the `k`-element result.
///
/// # Examples
///
/// ```
/// let top = qos_linalg::slab::top_k_ascending(&[3.0, 1.0, 2.0, 1.0], 2);
/// assert_eq!(top, vec![(1, 1.0), (3, 1.0)]);
/// ```
pub fn top_k_ascending(scores: &[f64], k: usize) -> Vec<(usize, f64)> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    // `heap` is a max-heap on (score, index): the root is the worst of the
    // current best-k, evicted whenever a strictly better candidate arrives.
    let mut heap: Vec<(usize, f64)> = Vec::with_capacity(k);
    let worse = |x: &(usize, f64), y: &(usize, f64)| {
        x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)) == std::cmp::Ordering::Greater
    };
    for (i, &score) in scores.iter().enumerate() {
        let candidate = (i, score);
        if heap.len() < k {
            heap.push(candidate);
            // Sift up.
            let mut child = heap.len() - 1;
            while child > 0 {
                let parent = (child - 1) / 2;
                if worse(&heap[child], &heap[parent]) {
                    heap.swap(child, parent);
                    child = parent;
                } else {
                    break;
                }
            }
        } else if worse(&heap[0], &candidate) {
            heap[0] = candidate;
            // Sift down.
            let mut parent = 0;
            loop {
                let (l, r) = (2 * parent + 1, 2 * parent + 2);
                let mut largest = parent;
                if l < k && worse(&heap[l], &heap[largest]) {
                    largest = l;
                }
                if r < k && worse(&heap[r], &heap[largest]) {
                    largest = r;
                }
                if largest == parent {
                    break;
                }
                heap.swap(parent, largest);
                parent = largest;
            }
        }
    }
    heap.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    heap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::dot;
    use proptest::prelude::*;

    #[test]
    fn unrolled_dot_matches_sequential_on_exact_cases() {
        // Powers of two keep every intermediate exact, so the reassociated
        // sum must equal the sequential one bit-for-bit.
        let a: Vec<f64> = (0..11).map(|k| (1u64 << k) as f64).collect();
        let b: Vec<f64> = (0..11).map(|k| (1u64 << (10 - k)) as f64).collect();
        assert_eq!(dot_unrolled4(&a, &b), dot(&a, &b));
        assert_eq!(dot_unrolled4(&[], &[]), 0.0);
        assert_eq!(dot_unrolled4(&[2.0], &[3.0]), 6.0);
    }

    #[test]
    fn scores_into_reuses_buffer() {
        let slab = [1.0, 0.0, 0.0, 1.0, 2.0, 2.0];
        let mut out = vec![99.0; 10];
        scores_into(&[3.0, 4.0], &slab, 2, &mut out);
        assert_eq!(out, vec![3.0, 4.0, 14.0]);
        scores_into(&[1.0, 1.0], &slab, 2, &mut out);
        assert_eq!(out, vec![1.0, 1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn scores_into_rejects_ragged_slab() {
        scores_into(&[1.0, 1.0], &[1.0, 2.0, 3.0], 2, &mut Vec::new());
    }

    #[test]
    fn top_k_breaks_ties_by_index() {
        let top = top_k_ascending(&[5.0, 1.0, 1.0, 1.0, 0.5], 3);
        assert_eq!(top, vec![(4, 0.5), (1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn top_k_handles_degenerate_k() {
        assert_eq!(top_k_ascending(&[1.0, 2.0], 0), vec![]);
        assert_eq!(top_k_ascending(&[], 5), vec![]);
        assert_eq!(top_k_ascending(&[2.0, 1.0], 5), vec![(1, 1.0), (0, 2.0)]);
    }

    proptest! {
        #[test]
        fn unrolled_dot_is_close_to_sequential(
            a in proptest::collection::vec(-1e3..1e3f64, 0..40)
        ) {
            let b: Vec<f64> = a.iter().map(|x| 1.0 - x * 0.25).collect();
            let scale: f64 = a.iter().map(|x| x.abs()).sum::<f64>().max(1.0);
            prop_assert!((dot_unrolled4(&a, &b) - dot(&a, &b)).abs() <= 1e-9 * scale * scale);
        }

        #[test]
        fn top_k_agrees_with_full_argsort(
            scores in proptest::collection::vec(-1e6..1e6f64, 0..200),
            k in 0usize..20
        ) {
            let mut full: Vec<(usize, f64)> =
                scores.iter().copied().enumerate().collect();
            full.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            full.truncate(k.min(scores.len()));
            prop_assert_eq!(top_k_ascending(&scores, k), full);
        }
    }
}
