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

/// A list is *hot* when a bitmap over the ids it can hold — a bit per id —
/// is no larger than the list itself, 32 bits per entry.
pub const HOT_RATIO: usize = 32;

/// The first id a list cut above `above` can hold: 0 for a whole list.
#[inline]
fn first_id(above: Option<VertexId>) -> usize {
    above.map_or(0, |above| above as usize + 1)
}

/// The hot rule, `len × 32 ≥ span`: whether a holder keeps a bitmap beside
/// a list of `len` entries that holds the ids of its vertex's whole list
/// above `above` (`None`: all of them), in a graph of `vertices` vertices.
/// The span is the ids such a list can hold, from the cut to `|V|`: `|V|`
/// for a whole list, fewer for a window a fetch cut. The bitmap covers
/// that span only, so it is never larger than the list (and a word), and
/// a hub's short window above a high bound is as hot as its whole list.
/// Every holder — a graph, a part, the cache, a chunk's fetched lists —
/// asks this one function, of the list it has in hand.
#[inline]
pub fn is_hot(len: usize, above: Option<VertexId>, vertices: usize) -> bool {
    len > 0 && len * HOT_RATIO >= vertices.saturating_sub(first_id(above))
}

/// Words of a bitmap over the ids from `first_id(above)` to `vertices`,
/// whole words from the one that holds the first.
#[inline]
fn bitmap_words(above: Option<VertexId>, vertices: usize) -> usize {
    vertices.div_ceil(64).saturating_sub(first_id(above) >> 6)
}

/// Appends to `words` the bitmap of `list`, cut above `above`, over the
/// ids it can hold: `bitmap_words` words, bit `v` set (counted from the
/// word that holds the first id) for every `v` in the list.
pub fn push_bitmap(
    list: &[VertexId],
    above: Option<VertexId>,
    vertices: usize,
    words: &mut Vec<u64>,
) {
    let (base, first) = (words.len(), first_id(above) >> 6);
    words.resize(base + bitmap_words(above, vertices), 0);
    let map = &mut words[base..];
    for &v in list {
        map[(v as usize >> 6) - first] |= 1 << (v & 63);
    }
}

/// A bitmap of one list, borrowed from its holder: bit `v` is set iff `v`
/// is in the list. A list fetched cut above a bound builds a bitmap that
/// covers only the ids above it — which is all any reader asks, because
/// every probed id is a member of a window whose lower bound is at least
/// the fetch bound.
#[derive(Debug, Clone, Copy)]
pub struct Bits<'a> {
    words: &'a [u64],
    /// The first id the list can hold: its cut plus one, 0 when whole.
    lo: VertexId,
    /// The word of the id space that `words[0]` is.
    first: u32,
}

impl<'a> Bits<'a> {
    /// The bitmap in `words` ([`push_bitmap`] of the same `above`), of a
    /// list that holds every id of the whole list above `above` (`None`:
    /// the whole list).
    #[inline]
    pub fn new(words: &'a [u64], above: Option<VertexId>) -> Self {
        let lo = first_id(above) as VertexId;
        Bits { words, lo, first: lo >> 6 }
    }

    #[inline]
    fn bit(self, v: VertexId) -> usize {
        (self.words[(v >> 6) as usize - self.first as usize] >> (v & 63) & 1) as usize
    }

    /// Whether `v` is in the list. `v` must be above the bound the list
    /// was cut at.
    #[inline]
    pub fn contains(self, v: VertexId) -> bool {
        debug_assert!(self.covers(v), "{v} is below {}, the first id the list holds", self.lo);
        self.bit(v) == 1
    }

    /// Whether the list this bitmap was built from holds `v` if the whole
    /// list does: `v` is above the cut.
    #[inline]
    fn covers(self, v: VertexId) -> bool {
        v >= self.lo
    }

    /// Whether it covers every id above `lo` (every id, for `None`).
    #[inline]
    fn covers_above(self, lo: Option<VertexId>) -> bool {
        self.lo == 0 || lo.is_some_and(|lo| lo >= self.lo - 1)
    }
}

/// One input of an intersection: a sorted list, and the list's bitmap
/// where its holder keeps one.
#[derive(Debug, Clone, Copy)]
pub struct Side<'a> {
    /// The sorted list.
    pub list: &'a [VertexId],
    /// Its bitmap, if the list is hot and the holder built one.
    pub bits: Option<Bits<'a>>,
}

impl<'a> Side<'a> {
    /// A list with no bitmap.
    #[inline]
    pub fn plain(list: &'a [VertexId]) -> Self {
        Side { list, bits: None }
    }

    /// Whether `v` is in the list: one bit where there is a bitmap, a
    /// binary search where there is not.
    #[inline]
    pub fn contains(self, v: VertexId) -> bool {
        self.bits.map_or_else(|| contains(self.list, v), |bits| bits.contains(v))
    }
}

/// The bitmaps of one holder's hot lists, back to back, found by key — a
/// vertex id, or an owned vertex's rank — through a slot table. A holder
/// none of whose lists is hot allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct HotLists {
    /// `slot[key]` = the bitmap's index, or [`HotLists::COLD`]; empty when
    /// no list is hot.
    slot: Vec<u32>,
    words: Vec<u64>,
    stride: usize,
}

impl HotLists {
    const COLD: u32 = u32::MAX;

    /// The bitmaps of the hot lists among `lists` (keyed by position) of a
    /// graph of `vertices` vertices.
    pub fn build<'a>(
        vertices: usize,
        lists: impl ExactSizeIterator<Item = &'a [VertexId]>,
    ) -> HotLists {
        let keys = lists.len();
        let mut hot = HotLists { stride: bitmap_words(None, vertices), ..HotLists::default() };
        if vertices == 0 {
            return hot;
        }
        for (key, list) in lists.enumerate() {
            if is_hot(list.len(), None, vertices) {
                if hot.slot.is_empty() {
                    hot.slot = vec![HotLists::COLD; keys];
                }
                hot.slot[key] = hot.len() as u32;
                push_bitmap(list, None, vertices, &mut hot.words);
            }
        }
        hot
    }

    /// The bitmap of the list at `key`, if it is hot.
    #[inline]
    pub fn get(&self, key: usize) -> Option<Bits<'_>> {
        match self.slot.get(key) {
            Some(&slot) if slot != HotLists::COLD => {
                let at = slot as usize * self.stride;
                Some(Bits::new(&self.words[at..at + self.stride], None))
            }
            _ => None,
        }
    }

    /// How many lists carry a bitmap.
    pub fn len(&self) -> usize {
        self.words.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Bytes of bitmaps and slot table.
    pub fn size_bytes(&self) -> usize {
        self.slot.len() * std::mem::size_of::<u32>() + self.words.len() * std::mem::size_of::<u64>()
    }
}

/// One input is at least this many times longer than the other: probe the
/// long one by galloping instead of merging.
const GALLOP_RATIO: usize = 16;

/// How a pair of sorted lists without bitmaps is intersected;
/// [`by_length`] decides, once [`by_shape`] has found no bitmap to probe.
enum Kernel {
    /// An input is empty: nothing to scan.
    Empty,
    /// Skewed lengths: search the long side for each element of the short.
    Gallop,
    /// Balanced, and at least one block on each side: 8×8 vector compares
    /// for the whole blocks, the tails classified again.
    #[cfg(target_arch = "x86_64")]
    Block(avx2::Avx2),
    /// Everything else, and everything on a CPU without the vector unit.
    Merge,
}

/// Where choosing a kernel starts, for two sides restricted to the
/// exclusive window `(lo, hi)`: a side with a bitmap is probed. The result
/// is the list to probe — the other side's window (the shorter list's,
/// when both carry a bitmap) — and the bitmap; the bitmap's own list is
/// neither clamped nor scanned. `None` when neither side has one: the pair
/// is then clamped and classified [`by_length`]. Inlined always: a pair
/// without a bitmap must cost its caller two tests, not a call.
#[inline(always)]
fn by_shape<'a>(
    a: Side<'a>,
    b: Side<'a>,
    lo: Option<VertexId>,
    hi: Option<VertexId>,
) -> Option<(&'a [VertexId], Bits<'a>)> {
    let (probe, bits) = match (a.bits, b.bits) {
        (None, None) => return None,
        (Some(x), Some(_)) if b.list.len() < a.list.len() => (b.list, x),
        (_, Some(y)) => (a.list, y),
        (Some(x), None) => (b.list, x),
    };
    debug_assert!(bits.covers_above(lo), "a window from {lo:?} probes a list cut above it");
    Some((clamp(probe, lo, hi), bits))
}

/// `(short, long, kernel)` for a pair of lists without bitmaps. The
/// lengths are the only evidence: callers clamp first, so they are the
/// lengths really scanned.
#[inline]
fn by_length<'a>(a: &'a [VertexId], b: &'a [VertexId]) -> (&'a [VertexId], &'a [VertexId], Kernel) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let kernel = match short.len() {
        0 => Kernel::Empty,
        // `long / short >= GALLOP_RATIO`, without dividing.
        n if long.len() / GALLOP_RATIO >= n => Kernel::Gallop,
        #[cfg(target_arch = "x86_64")]
        n if n >= avx2::BLOCK => avx2::Avx2::detect().map_or(Kernel::Merge, Kernel::Block),
        _ => Kernel::Merge,
    };
    (short, long, kernel)
}

/// Which merge kernel balanced inputs get on this CPU: `"avx2"` or
/// `"scalar"`. Printed beside timings so that a record from another host
/// explains its own kernel numbers.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2::Avx2::detect().is_some() {
        return "avx2";
    }
    "scalar"
}

/// Intersection of two sorted slices, appended to `out`.
///
/// The kernel follows the shape of the inputs: galloping (exponential)
/// search when one is at least 16 times longer — a hot vertex's list
/// against a short one; 8×8 vector block compares when both hold at least
/// 8 elements and the CPU has AVX2; the scalar merge otherwise.
///
/// # Example
///
/// ```
/// let mut out = Vec::new();
/// gpm_graph::set_ops::intersect_into(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
/// assert_eq!(out, vec![3, 7]);
/// ```
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (short, long, kernel) = by_length(a, b);
    match kernel {
        Kernel::Empty => {}
        Kernel::Gallop => gallop_intersect(short, long, |x| out.push(x)),
        #[cfg(target_arch = "x86_64")]
        Kernel::Block(cpu) => block_intersect_into(cpu, short, long, out),
        Kernel::Merge => merge_intersect_into(short, long, out),
    }
}

/// The members of both sides strictly between `lo` and `hi`, appended to
/// `out` in ascending order: [`intersect_into`] of the two lists clamped to
/// the window, except that a side with a bitmap is never clamped or
/// scanned — the other side's window is probed against it.
///
/// # Example
///
/// ```
/// use gpm_graph::set_ops::{push_bitmap, intersect_sides_into, Bits, Side};
/// let hot = [1, 2, 3, 5, 8];
/// let mut words = Vec::new();
/// push_bitmap(&hot, None, 10, &mut words);
/// let hot = Side { list: &hot, bits: Some(Bits::new(&words, None)) };
/// let mut out = Vec::new();
/// intersect_sides_into(hot, Side::plain(&[0, 2, 5, 8, 9]), Some(2), None, &mut out);
/// assert_eq!(out, vec![5, 8]);
/// ```
#[inline]
pub fn intersect_sides_into(
    a: Side<'_>,
    b: Side<'_>,
    lo: Option<VertexId>,
    hi: Option<VertexId>,
    out: &mut Vec<VertexId>,
) {
    match by_shape(a, b, lo, hi) {
        Some((probe, bits)) => probe_into(probe, bits, out),
        None => intersect_into(clamp(a.list, lo, hi), clamp(b.list, lo, hi), out),
    }
}

/// The block loop, then whatever it left: one side has less than a block
/// by then, so the rest gallops or merges and the recursion is one deep.
/// Out of line, so that short inputs do not pay for its frame.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
fn block_intersect_into(cpu: avx2::Avx2, a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (i, j) = cpu.intersect_into(a, b, out);
    intersect_into(&a[i..], &b[j..], out);
}

/// [`block_intersect_into`], counting only.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
fn block_intersect_count(cpu: avx2::Avx2, a: &[VertexId], b: &[VertexId]) -> usize {
    let (i, j, count) = cpu.intersect_count(a, b);
    count + intersect_count(&a[i..], &b[j..])
}

/// The scalar merge, for any pair of sorted inputs: [`intersect_into`]
/// without the choice. It is the kernel of short lists and of every CPU
/// without AVX2, and the reference the vector path is tested against.
///
/// Branch-free: both cursors and the output length advance by comparison
/// results, and the store is unconditional, so the loop has no
/// data-dependent branch for adjacency lists to mispredict.
#[inline]
pub fn merge_intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
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

/// The scalar merge of [`merge_intersect_into`], counting only.
#[inline]
pub fn merge_intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        count += usize::from(x == y);
    }
    count
}

/// The elements of sorted `probe` that `bits` holds, appended to `out`:
/// the kernel of a hot list against any other, one load and one shift per
/// probed id however long the hot list is. Branch-free like the merge:
/// the store is unconditional and the output cursor advances by the bit.
///
/// # Example
///
/// ```
/// use gpm_graph::set_ops::{probe_count, probe_into, push_bitmap, Bits};
/// let mut words = Vec::new();
/// push_bitmap(&[3, 64, 65, 99], None, 100, &mut words);
/// let mut out = vec![7];
/// probe_into(&[1, 3, 65, 98, 99], Bits::new(&words, None), &mut out);
/// assert_eq!(out, vec![7, 3, 65, 99]);
/// assert_eq!(probe_count(&[1, 3, 65, 98, 99], Bits::new(&words, None)), 3);
/// ```
pub fn probe_into(probe: &[VertexId], bits: Bits<'_>, out: &mut Vec<VertexId>) {
    debug_assert!(probe.first().is_none_or(|&x| bits.covers(x)), "probe below the cut");
    let base = out.len();
    out.resize(base + probe.len(), 0);
    let dst = &mut out[base..];
    let mut k = 0;
    for &x in probe {
        // At most as many hits as elements before this one: in bounds.
        dst[k] = x;
        k += bits.bit(x);
    }
    out.truncate(base + k);
}

/// [`probe_into`], counting only.
pub fn probe_count(probe: &[VertexId], bits: Bits<'_>) -> usize {
    debug_assert!(probe.first().is_none_or(|&x| bits.covers(x)), "probe below the cut");
    probe.iter().map(|&x| bits.bit(x)).sum()
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
    let (short, long, kernel) = by_length(a, b);
    match kernel {
        Kernel::Empty => 0,
        Kernel::Gallop => {
            let mut count = 0usize;
            gallop_intersect(short, long, |_| count += 1);
            count
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Block(cpu) => block_intersect_count(cpu, short, long),
        Kernel::Merge => merge_intersect_count(short, long),
    }
}

/// [`intersect_sides_into`], counting only.
#[inline]
pub fn intersect_sides_count(
    a: Side<'_>,
    b: Side<'_>,
    lo: Option<VertexId>,
    hi: Option<VertexId>,
) -> usize {
    match by_shape(a, b, lo, hi) {
        Some((probe, bits)) => probe_count(probe, bits),
        None => intersect_count(clamp(a.list, lo, hi), clamp(b.list, lo, hi)),
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

/// The vector half of the intersection kernels, and the only `unsafe` in
/// this crate.
///
/// Both loops hold one block of 8 ids from each side, compare all 64 pairs
/// and move past the block whose last id is the smaller (both on a tie).
/// That is a merge: ids ascend strictly, so the block left behind is below
/// everything still unread on the other side and has been compared with
/// every block that could hold a partner, and a pair of blocks meets only
/// once. When a side has less than a block left the loops stop and return
/// their cursors; what remains is intersected by the caller.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::VertexId;
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// Ids per vector.
    pub const BLOCK: usize = 8;

    /// Proof that this CPU has AVX2 and POPCNT: [`Avx2::detect`] is the only
    /// constructor, so holding one is what makes the loops below callable.
    #[derive(Clone, Copy)]
    pub struct Avx2(());

    impl Avx2 {
        /// `std` keeps the answer of the first `cpuid` in an atomic; every
        /// later call is a load and a bit test.
        #[inline]
        pub fn detect() -> Option<Self> {
            (is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt"))
                .then_some(Self(()))
        }

        /// Appends to `out` the common ids of the whole blocks of `a` and
        /// `b`; returns how far into each the blocks reached.
        pub fn intersect_into(
            self,
            a: &[VertexId],
            b: &[VertexId],
            out: &mut Vec<VertexId>,
        ) -> (usize, usize) {
            // A store writes a whole block at the output cursor, which is
            // the number of matches so far: at most min(|a|, |b|).
            out.reserve(a.len().min(b.len()) + BLOCK);
            let base = out.len();
            // SAFETY: `self` exists, so `detect` saw both features.
            let (i, j, k) = unsafe { merge_blocks_into(a, b, out.spare_capacity_mut()) };
            // SAFETY: `merge_blocks_into` wrote the first `k` slots of the
            // spare capacity it was handed and checked that they are in it.
            unsafe { out.set_len(base + k) };
            (i, j)
        }

        /// Counts the common ids of the whole blocks of `a` and `b`;
        /// returns the two cursors and the count.
        pub fn intersect_count(self, a: &[VertexId], b: &[VertexId]) -> (usize, usize, usize) {
            // SAFETY: `self` exists, so `detect` saw both features.
            unsafe { merge_blocks_count(a, b) }
        }
    }

    /// Row `m` lists the set bits of `m`, lowest first: the permutation
    /// that packs the lanes selected by mask `m` to the front of a vector.
    #[repr(align(32))]
    struct PackTable([[u32; BLOCK]; 256]);

    static PACK: PackTable = {
        let mut rows = [[0u32; BLOCK]; 256];
        let mut m = 0;
        while m < 256 {
            let (mut lane, mut k) = (0, 0);
            while lane < BLOCK {
                if m >> lane & 1 == 1 {
                    rows[m][k] = lane as u32;
                    k += 1;
                }
                lane += 1;
            }
            m += 1;
        }
        PackTable(rows)
    };

    /// Bit `l` is set when lane `l` of `va` equals some lane of `vb`: `va`
    /// against the four in-lane rotations of `vb` and of its half-swapped
    /// copy is every one of the 64 pairs.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn match_mask(va: __m256i, vb: __m256i) -> usize {
        let eq4 = |v: __m256i| {
            let r0 = _mm256_cmpeq_epi32(va, v);
            let r1 = _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32::<0b00_11_10_01>(v));
            let r2 = _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32::<0b01_00_11_10>(v));
            let r3 = _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32::<0b10_01_00_11>(v));
            _mm256_or_si256(_mm256_or_si256(r0, r1), _mm256_or_si256(r2, r3))
        };
        let hits = _mm256_or_si256(eq4(vb), eq4(_mm256_permute2x128_si256::<0x01>(vb, vb)));
        _mm256_movemask_ps(_mm256_castsi256_ps(hits)) as usize
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(block: &[VertexId; BLOCK]) -> __m256i {
        // SAFETY: `block` is 8 × 4 readable bytes; the load is unaligned.
        unsafe { _mm256_loadu_si256(block.as_ptr().cast()) }
    }

    /// The block loop of [`Avx2::intersect_into`]: `(i, j, k)` are the
    /// cursors into `a`, `b` and `dst`, and `dst[..k]` is initialised.
    #[target_feature(enable = "avx2,popcnt")]
    fn merge_blocks_into(
        a: &[VertexId],
        b: &[VertexId],
        dst: &mut [MaybeUninit<VertexId>],
    ) -> (usize, usize, usize) {
        let ((a, _), (b, _)) = (a.as_chunks::<BLOCK>(), b.as_chunks::<BLOCK>());
        let (mut i, mut j, mut k) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (&a[i], &b[j]);
            let vx = load(x);
            let mask = match_mask(vx, load(y));
            // SAFETY: a row of `PACK` is 32 readable bytes, 32-aligned.
            let pack = unsafe { _mm256_load_si256(PACK.0[mask].as_ptr().cast()) };
            let slot: &mut [MaybeUninit<VertexId>] = &mut dst[k..k + BLOCK];
            // SAFETY: `slot` is 8 × 4 writable bytes; the store is unaligned.
            unsafe {
                _mm256_storeu_si256(slot.as_mut_ptr().cast(), _mm256_permutevar8x32_epi32(vx, pack))
            };
            k += mask.count_ones() as usize;
            i += usize::from(x[BLOCK - 1] <= y[BLOCK - 1]);
            j += usize::from(y[BLOCK - 1] <= x[BLOCK - 1]);
        }
        (i * BLOCK, j * BLOCK, k)
    }

    /// The block loop of [`Avx2::intersect_count`]: cursors and count.
    #[target_feature(enable = "avx2,popcnt")]
    fn merge_blocks_count(a: &[VertexId], b: &[VertexId]) -> (usize, usize, usize) {
        let ((a, _), (b, _)) = (a.as_chunks::<BLOCK>(), b.as_chunks::<BLOCK>());
        let (mut i, mut j, mut count) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (&a[i], &b[j]);
            count += match_mask(load(x), load(y)).count_ones() as usize;
            i += usize::from(x[BLOCK - 1] <= y[BLOCK - 1]);
            j += usize::from(y[BLOCK - 1] <= x[BLOCK - 1]);
        }
        (i * BLOCK, j * BLOCK, count)
    }
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
        assert!(!reaches_block_loop(&short, &long));
        check(&short, &long);
        assert_eq!(intersect_count(&short, &long), 3);
    }

    /// Whether `intersect_into`/`intersect_count` send this pair through
    /// the block loop on a CPU with AVX2: balanced, and a whole block on
    /// the shorter side. (Elsewhere the same rows run the scalar merge.)
    fn reaches_block_loop(a: &[VertexId], b: &[VertexId]) -> bool {
        let (short, long) = (a.len().min(b.len()), a.len().max(b.len()));
        short >= 8 && long / short < GALLOP_RATIO
    }

    /// The dispatching kernels, in both argument orders, against a filter
    /// and against the scalar merge called directly; `out` on entry is
    /// empty, and non-empty with no spare capacity. Also that the pair was
    /// classified as its lengths say.
    fn check(a: &[VertexId], b: &[VertexId]) {
        let (short, long) = (a.len().min(b.len()), a.len().max(b.len()));
        let chosen = match by_length(a, b).2 {
            Kernel::Empty => "empty",
            Kernel::Gallop => "gallop",
            #[cfg(target_arch = "x86_64")]
            Kernel::Block(_) => "avx2",
            Kernel::Merge => "scalar",
        };
        let expect = match short {
            0 => "empty",
            _ if long / short >= GALLOP_RATIO => "gallop",
            _ if reaches_block_loop(a, b) => kernel(),
            _ => "scalar",
        };
        assert_eq!(chosen, expect, "lengths {} and {}", a.len(), b.len());
        let naive: Vec<VertexId> =
            a.iter().copied().filter(|x| b.binary_search(x).is_ok()).collect();
        let mut scalar = Vec::new();
        merge_intersect_into(a, b, &mut scalar);
        assert_eq!(scalar, naive);
        assert_eq!(merge_intersect_count(a, b), naive.len());
        for (x, y) in [(a, b), (b, a)] {
            let mut out = Vec::new();
            intersect_into(x, y, &mut out);
            assert_eq!(out, naive, "{x:?} ∩ {y:?}");
            let mut out = vec![VertexId::MAX, 0];
            out.shrink_to_fit();
            intersect_into(x, y, &mut out);
            assert_eq!((&out[..2], &out[2..]), (&[VertexId::MAX, 0][..], &naive[..]));
            assert_eq!(intersect_count(x, y), naive.len(), "{x:?} ∩ {y:?}");
        }
    }

    #[test]
    fn kernels_agree_at_every_length_residue_density_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        // `len` distinct ids below `range`, or as far below `u32::MAX`.
        let mut ids = |len: usize, range: u32, top: bool| -> Vec<VertexId> {
            let mut set = std::collections::BTreeSet::new();
            while set.len() < len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state % u64::from(range)) as VertexId;
                set.insert(if top { VertexId::MAX - v } else { v });
            }
            set.into_iter().collect()
        };
        // Every residue mod 8 on both sides, below and far above one block.
        let lengths = || (0..=40).chain(200..208).chain([333]);
        let mut block_rows = 0;
        for la in lengths() {
            for lb in lengths() {
                // Dense (most ids shared), sparse (few), and up against the
                // top of the id space.
                for (spread, top) in [(2, false), (40, false), (3, true)] {
                    let range = (la.max(lb) as u32 + 3) * spread;
                    // Element offsets 1 and 3 into the allocations, so
                    // that no block load is 32-byte aligned.
                    let (a, b) = (ids(la + 1, range, top), ids(lb + 3, range, top));
                    let (a, b) = (&a[1..], &b[3..]);
                    check(a, b);
                    block_rows += usize::from(reaches_block_loop(a, b));
                }
            }
        }
        // 42 lengths of a block or more on each side; the long ones are
        // 16× the shortest of them, and those pairs gallop.
        assert_eq!(block_rows, 3 * 1658);
    }

    #[test]
    fn block_loop_rows_with_the_matches_where_a_cursor_rule_could_lose_them() {
        let run: Vec<VertexId> = (0..203).map(|i| i * 7 + 1).collect();
        let shifted = |s: &[VertexId], by: VertexId| s.iter().map(|v| v + by).collect::<Vec<_>>();
        for len in [8, 9, 15, 16, 17, 24, 64, 203] {
            let a = &run[..len];
            let (first, last) = (a[0], a[len - 1]);
            let rows = [
                a.to_vec(),                                         // identical
                shifted(a, 1),                                      // disjoint, interleaved
                shifted(a, 10_000),                                 // disjoint, wholly above
                [&[first][..], &shifted(&a[1..], 1)].concat(),      // only the first id shared
                [&shifted(&a[..len - 1], 1)[..], &[last]].concat(), // only the last id shared
                [&[0][..], a].concat(), // the same run, one lane out of step
            ];
            for b in &rows {
                assert!(reaches_block_loop(a, b));
                check(a, b);
                // The same row with its largest id at `u32::MAX`.
                let up = VertexId::MAX - b.last().unwrap().max(&last);
                check(&shifted(a, up), &shifted(b, up));
            }
        }
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
        assert!(contains(s, 6));
        assert!(!contains(s, 5));
    }

    #[test]
    fn probe_kernels_equal_the_merge_on_random_lists_windows_and_cut_bitmaps() {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut draw = |below: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below.max(1) as u64) as usize
        };
        let (mut probed, mut cut, mut both) = (0, 0, 0);
        for vertices in [1, 63, 64, 65, 130, 700, 4096] {
            for _ in 0..300 {
                // Two random sorted lists, each of a random density.
                let list = |draw: &mut dyn FnMut(usize) -> usize| -> Vec<VertexId> {
                    let keep = 1 + draw(40);
                    (0..vertices as VertexId).filter(|_| draw(40) < keep).collect()
                };
                let (hot, other) = (list(&mut draw), list(&mut draw));
                let id = |draw: &mut dyn FnMut(usize) -> usize| {
                    (draw(4) > 0).then(|| draw(vertices + 2) as VertexId)
                };
                // The hot list arrives cut above `above`, or whole; every
                // reader's window starts at or above the cut.
                let above = if draw(3) == 0 { id(&mut draw) } else { None };
                let (lo, hi) = (id(&mut draw).max(above), id(&mut draw));
                let held = clamp(&hot, above, None);
                let (mut hot_words, mut other_words) = (Vec::new(), Vec::new());
                push_bitmap(held, above, vertices, &mut hot_words);
                push_bitmap(&other, None, vertices, &mut other_words);
                let bits = Bits::new(&hot_words, above);
                let (a, b) = (clamp(&hot, lo, hi), clamp(&other, lo, hi));
                let mut expect = Vec::new();
                merge_intersect_into(a, b, &mut expect);
                let what = format!("|V| {vertices}, cut {above:?}, window {lo:?}..{hi:?}");

                assert_eq!(probe_count(b, bits), expect.len(), "{what}");
                let mut out = vec![VertexId::MAX];
                probe_into(b, bits, &mut out);
                assert_eq!((out[0], &out[1..]), (VertexId::MAX, &expect[..]), "{what}");
                let hot_side = Side { list: held, bits: Some(bits) };
                let other_bits = Some(Bits::new(&other_words, None));
                for other_side in [Side::plain(&other), Side { list: &other, bits: other_bits }] {
                    for (x, y) in [(hot_side, other_side), (other_side, hot_side)] {
                        let mut out = Vec::new();
                        intersect_sides_into(x, y, lo, hi, &mut out);
                        assert_eq!(out, expect, "{what}");
                        assert_eq!(intersect_sides_count(x, y, lo, hi), expect.len(), "{what}");
                    }
                }
                for v in (lo.map_or(0, |lo| lo + 1)..vertices as VertexId).take(50) {
                    assert_eq!(hot_side.contains(v), contains(&hot, v), "{v}: {what}");
                }
                probed += usize::from(!b.is_empty());
                cut += usize::from(above.is_some_and(|above| held.len() < hot.len() && above > 0));
                both += usize::from(!expect.is_empty());
            }
        }
        assert!(probed > 1000 && cut > 200 && both > 1000, "{probed} {cut} {both}");
    }

    #[test]
    fn a_side_with_a_bitmap_is_probed_and_its_list_never_scanned() {
        let hot: Vec<VertexId> = (0..200).collect();
        let mut words = Vec::new();
        push_bitmap(&hot, None, 256, &mut words);
        let bits = Some(Bits::new(&words, None));
        let hot_side = Side { list: &hot, bits };
        let cold = Side::plain(&[3, 50, 70]);
        let (probe, _) = by_shape(hot_side, cold, Some(10), None).unwrap();
        assert_eq!(probe, &[50, 70]);
        let (probe, _) = by_shape(cold, hot_side, Some(70), None).unwrap();
        assert!(probe.is_empty());
        assert!(by_shape(cold, cold, None, None).is_none());
        // Both hot: the shorter list is the one probed, inside the window.
        let short = Side { list: &hot[..20], bits };
        let (probe, _) = by_shape(hot_side, short, Some(9), None).unwrap();
        assert_eq!(probe, &hot[10..20]);
    }

    #[test]
    fn the_hot_rule_and_where_the_bitmaps_live() {
        assert!(is_hot(32, None, 1024) && !is_hot(31, None, 1024) && is_hot(1, None, 32));
        assert!(!is_hot(0, None, 1) && !is_hot(0, Some(0), 1));
        // A window cut above 959 of |V| = 1024 spans 64 ids: two make it
        // hot, and its bitmap is the one word that holds them.
        assert!(is_hot(2, Some(959), 1024) && !is_hot(1, Some(959), 1024));
        let mut words = vec![7];
        push_bitmap(&[960, 1023], Some(959), 1024, &mut words);
        assert_eq!(words, [7, 1 | 1 << 63]);
        let bits = Bits::new(&words[1..], Some(959));
        assert!(bits.contains(960) && bits.contains(1023) && !bits.contains(1000));
        // Its word holds ids from 960; a cut above 900 starts at 896.
        assert_eq!((bitmap_words(Some(959), 1024), bitmap_words(Some(900), 1024)), (1, 2));
        let lists: [&[VertexId]; 4] = [&[1, 2], &[0], &[], &[0, 1, 2, 3]];
        // |V| = 64: a list of two or more entries is hot.
        let hot = HotLists::build(64, lists.iter().copied());
        assert_eq!((hot.len(), hot.size_bytes()), (2, 4 * 4 + 2 * 8));
        for (key, list) in lists.iter().enumerate() {
            let bits = hot.get(key);
            assert_eq!(bits.is_some(), is_hot(list.len(), None, 64), "{key}");
            if let Some(bits) = bits {
                assert!((0..64).all(|v| bits.contains(v) == list.contains(&v)), "{key}");
            }
        }
        assert!(hot.get(7).is_none());
        // Nothing hot: nothing allocated.
        let cold = HotLists::build(1000, lists.iter().copied());
        assert!(cold.len() == 0 && cold.size_bytes() == 0 && cold.get(3).is_none());
    }
}
