//! Sorted-set kernels used by embedding extension.
//!
//! All inputs are strictly-ascending `VertexId` slices (the invariant CSR
//! adjacency lists maintain). These kernels are the computational core of
//! pattern-aware enumeration: every extension step is one or more
//! intersections plus candidate filtering (paper Fig 1).

use crate::VertexId;

/// The elements of sorted `list` strictly between `lo` and `hi` (either
/// bound may be absent), as a sub-slice.
///
/// This is how order restrictions reach the kernels: a caller clamps every
/// input to the window its candidates must fall in and intersects the
/// clamped slices, so elements outside the window are never compared and
/// the gallop/merge choice below sees the lengths that are really scanned.
///
/// # Example
///
/// ```
/// use gpm_graph::set_ops::clamp;
/// assert_eq!(clamp(&[1, 3, 5, 7, 9], Some(3), Some(9)), &[5, 7]);
/// assert_eq!(clamp(&[1, 3, 5], None, Some(4)), &[1, 3]);
/// assert_eq!(clamp(&[1, 3, 5], Some(8), Some(2)), &[] as &[u32]);
/// ```
#[inline]
pub fn clamp(list: &[VertexId], lo: Option<VertexId>, hi: Option<VertexId>) -> &[VertexId] {
    let list = match hi {
        Some(h) => &list[..list.partition_point(|&v| v < h)],
        None => list,
    };
    match lo {
        Some(l) => &list[list.partition_point(|&v| v <= l)..],
        None => list,
    }
}

/// One input is at least this many times longer than the other: probe the
/// long one by galloping instead of merging.
const GALLOP_RATIO: usize = 16;

/// `(short, long, gallop?)` for a pair of inputs.
#[inline]
fn by_length<'a>(a: &'a [VertexId], b: &'a [VertexId]) -> (&'a [VertexId], &'a [VertexId], bool) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    (short, long, long.len() / short.len().max(1) >= GALLOP_RATIO)
}

/// Intersection of two sorted slices, appended to `out`.
///
/// Switches to galloping (exponential) search when one input is much
/// shorter, which is the common case when intersecting a hot vertex's long
/// list with a short one.
///
/// # Example
///
/// ```
/// let mut out = Vec::new();
/// gpm_graph::set_ops::intersect_into(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
/// assert_eq!(out, vec![3, 7]);
/// ```
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (short, long, gallop) = by_length(a, b);
    if short.is_empty() {
        return;
    }
    if gallop {
        gallop_intersect(short, long, |x| out.push(x));
    } else {
        merge_intersect_into(short, long, out);
    }
}

/// Branch-free merge: both cursors and the output length advance by
/// comparison results, and the store is unconditional, so the loop has no
/// data-dependent branch for adjacency lists to mispredict.
fn merge_intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let base = out.len();
    // At most min(|a|, |b|) matches; the slot past the last match is the
    // one the unconditional store scribbles on.
    out.resize(base + a.len().min(b.len()) + 1, 0);
    let dst = &mut out[base..];
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        dst[k] = x;
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        k += usize::from(x == y);
    }
    out.truncate(base + k);
}

fn merge_intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        count += usize::from(x == y);
    }
    count
}

/// Calls `hit` for every element of `short` found in `long`.
#[inline]
fn gallop_intersect(short: &[VertexId], long: &[VertexId], mut hit: impl FnMut(VertexId)) {
    let mut base = 0usize;
    for &x in short {
        let rest = &long[base..];
        let pos = gallop(rest, x);
        if pos < rest.len() && rest[pos] == x {
            hit(x);
        }
        base += pos;
        if base >= long.len() {
            break;
        }
    }
}

/// Index of the first element `>= x` in sorted `s`, found by exponential
/// probing followed by binary search.
pub fn gallop(s: &[VertexId], x: VertexId) -> usize {
    if s.is_empty() || s[0] >= x {
        return 0;
    }
    let mut hi = 1usize;
    while hi < s.len() && s[hi] < x {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(|&v| v < x)
}

/// Number of common elements of two sorted slices (no allocation).
///
/// # Example
///
/// ```
/// assert_eq!(gpm_graph::set_ops::intersect_count(&[1, 2, 3], &[2, 3, 4]), 2);
/// ```
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (short, long, gallop) = by_length(a, b);
    if short.is_empty() {
        return 0;
    }
    if gallop {
        let mut count = 0usize;
        gallop_intersect(short, long, |_| count += 1);
        count
    } else {
        merge_intersect_count(short, long)
    }
}

/// Intersection of `k >= 1` sorted slices, replacing the contents of
/// `out`. `tmp` is working space whose contents are clobbered; neither
/// buffer is allocated per call once grown.
///
/// `lists` is reordered: the slices are intersected smallest-first to keep
/// intermediates small.
///
/// # Panics
///
/// Panics if `lists` is empty (an empty intersection is ill-defined: it
/// would be "all vertices").
pub fn intersect_many_into(
    lists: &mut [&[VertexId]],
    tmp: &mut Vec<VertexId>,
    out: &mut Vec<VertexId>,
) {
    out.clear();
    match lists {
        [] => panic!("intersect_many_into requires at least one list"),
        [only] => out.extend_from_slice(only),
        [a, b] => intersect_into(a, b, out),
        _ => {
            lists.sort_unstable_by_key(|l| l.len());
            intersect_into(lists[0], lists[1], out);
            for list in &lists[2..] {
                if out.is_empty() {
                    break;
                }
                tmp.clear();
                intersect_into(out, list, tmp);
                std::mem::swap(out, tmp);
            }
        }
    }
}

/// Size of the intersection of `k >= 1` sorted slices. Only the
/// intersection of all but the longest list is materialised (in `out`,
/// with `tmp` as working space; both are clobbered), so one or two lists
/// write nothing at all.
///
/// # Panics
///
/// Panics if `lists` is empty, like [`intersect_many_into`].
pub fn intersect_many_count(
    lists: &mut [&[VertexId]],
    tmp: &mut Vec<VertexId>,
    out: &mut Vec<VertexId>,
) -> usize {
    match lists {
        [] => panic!("intersect_many_count requires at least one list"),
        [only] => only.len(),
        [a, b] => intersect_count(a, b),
        _ => {
            lists.sort_unstable_by_key(|l| l.len());
            let (longest, rest) = lists.split_last_mut().expect("three or more lists");
            intersect_many_into(rest, tmp, out);
            intersect_count(out, longest)
        }
    }
}

/// Elements of sorted `a` not present in sorted `b`, appended to `out`.
///
/// # Example
///
/// ```
/// let mut out = Vec::new();
/// gpm_graph::set_ops::subtract_into(&[1, 2, 3, 4], &[2, 4], &mut out);
/// assert_eq!(out, vec![1, 3]);
/// ```
pub fn subtract_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else if a[i] > b[j] {
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
}

/// Whether sorted slice `s` contains `x` (binary search).
#[inline]
pub fn contains(s: &[VertexId], x: VertexId) -> bool {
    s.binary_search(&x).is_ok()
}

/// Number of elements of sorted `s` strictly below `x`.
#[inline]
pub fn count_below(s: &[VertexId], x: VertexId) -> usize {
    s.partition_point(|&v| v < x)
}

/// Number of elements of sorted `s` strictly above `x`.
#[inline]
pub fn count_above(s: &[VertexId], x: VertexId) -> usize {
    s.len() - s.partition_point(|&v| v <= x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic() {
        let mut out = Vec::new();
        intersect_into(&[1, 2, 3, 5, 8], &[2, 3, 4, 8], &mut out);
        assert_eq!(out, vec![2, 3, 8]);
    }

    #[test]
    fn intersect_disjoint_and_empty() {
        let mut out = Vec::new();
        intersect_into(&[1, 3], &[2, 4], &mut out);
        assert!(out.is_empty());
        intersect_into(&[], &[1, 2], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn galloping_path_matches_merge_path() {
        // Force the galloping branch with a 1:250 size ratio.
        let long: Vec<VertexId> = (0..1000).map(|i| i * 3).collect();
        let short = vec![0, 7, 1500, 2997];
        let mut fast = Vec::new();
        intersect_into(&short, &long, &mut fast);
        let mut slow = Vec::new();
        merge_intersect_into(&short, &long, &mut slow);
        assert_eq!(fast, slow);
        assert_eq!(fast, vec![0, 1500, 2997]);
        assert_eq!(intersect_count(&short, &long), 3);
        assert_eq!(merge_intersect_count(&short, &long), 3);
    }

    #[test]
    fn merge_appends_after_existing_output() {
        let mut out = vec![99];
        intersect_into(&[1, 2, 3, 4], &[2, 4, 6], &mut out);
        assert_eq!(out, vec![99, 2, 4]);
    }

    #[test]
    fn clamp_is_exclusive_on_both_sides() {
        let s = &[2, 4, 6, 8];
        assert_eq!(clamp(s, None, None), s);
        assert_eq!(clamp(s, Some(2), Some(8)), &[4, 6]);
        assert_eq!(clamp(s, Some(1), Some(9)), s);
        assert_eq!(clamp(s, Some(8), None), &[] as &[VertexId]);
        assert_eq!(clamp(s, None, Some(2)), &[] as &[VertexId]);
        assert_eq!(clamp(s, Some(6), Some(4)), &[] as &[VertexId]);
        assert_eq!(clamp(&[], Some(1), Some(2)), &[] as &[VertexId]);
    }

    #[test]
    fn gallop_boundaries() {
        let s = &[10, 20, 30];
        assert_eq!(gallop(s, 5), 0);
        assert_eq!(gallop(s, 10), 0);
        assert_eq!(gallop(s, 11), 1);
        assert_eq!(gallop(s, 30), 2);
        assert_eq!(gallop(s, 31), 3);
        assert_eq!(gallop(&[], 1), 0);
    }

    #[test]
    fn count_matches_materialized() {
        let a = &[1, 4, 6, 9, 12];
        let b = &[2, 4, 9, 10, 12, 14];
        let mut out = Vec::new();
        intersect_into(a, b, &mut out);
        assert_eq!(intersect_count(a, b), out.len());
    }

    #[test]
    fn many_way_intersection() {
        let a: &[VertexId] = &[1, 2, 3, 4, 5, 6];
        let b: &[VertexId] = &[2, 4, 6, 8];
        let c: &[VertexId] = &[4, 5, 6];
        let d: &[VertexId] = &[0, 4, 6, 7, 9];
        let (mut tmp, mut out) = (vec![42], vec![42]);
        intersect_many_into(&mut [a, b, c], &mut tmp, &mut out);
        assert_eq!(out, vec![4, 6]);
        intersect_many_into(&mut [a, b, c, d], &mut tmp, &mut out);
        assert_eq!(out, vec![4, 6]);
        intersect_many_into(&mut [a, b], &mut tmp, &mut out);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(intersect_many_count(&mut [a, b, c, d], &mut tmp, &mut out), 2);
        assert_eq!(intersect_many_count(&mut [a, b], &mut tmp, &mut out), 3);
        assert_eq!(intersect_many_count(&mut [c], &mut tmp, &mut out), 3);
    }

    #[test]
    fn single_list_intersection_is_copy() {
        let mut out = vec![1];
        intersect_many_into(&mut [&[3, 1 + 1, 7][..]], &mut Vec::new(), &mut out);
        assert_eq!(out, vec![3, 2, 7]); // copied verbatim, replacing `out`
    }

    #[test]
    #[should_panic(expected = "at least one list")]
    fn empty_list_set_panics() {
        intersect_many_into(&mut [], &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn subtraction() {
        let mut out = Vec::new();
        subtract_into(&[1, 2, 3], &[], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        out.clear();
        subtract_into(&[1, 2, 3], &[1, 2, 3, 4], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn bounds_counting() {
        let s = &[2, 4, 6, 8];
        assert_eq!(count_below(s, 5), 2);
        assert_eq!(count_below(s, 2), 0);
        assert_eq!(count_above(s, 5), 2);
        assert_eq!(count_above(s, 8), 0);
        assert!(contains(s, 6));
        assert!(!contains(s, 5));
    }
}
