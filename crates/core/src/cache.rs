//! Software graph-data caches.
//!
//! The engine's default is the paper's **static cache** (§5.3): edge lists
//! fetched from remote machines are inserted if the vertex's full degree
//! passes a threshold and the cache is not yet full. Ids are ranked by
//! degree ([`gpm_graph::rank`]), so that test is one compare of the id
//! against the first hot one; nothing is ever evicted, so
//! lookups need only a read lock and no bookkeeping — and while the cache
//! holds nothing (a low-skew graph never passes the threshold) a lookup is
//! one relaxed load and no lock at all. The replacement
//! policies FIFO/LIFO/LRU/MRU are implemented behind the same interface
//! for the paper's Figure 16 comparison — note how every one of them needs
//! a *write* lock per lookup or insert-with-eviction, the overhead the
//! paper measures.
//!
//! A list is cached as it was fetched, cut above its request's bound or
//! whole, and keeps that bound: a lookup hits only at a bound at or above
//! the entry's. Every clique plan asks for `N(v)` above `v` itself, so one
//! cached `N(v) ∩ (v, ∞)` answers every later request for `v`.
//!
//! Entries hand out `Arc<Entry>` so an evicted list stays alive while any
//! extendable embedding still references it — eviction can never dangle a
//! task's data. A hot list ([`set_ops::is_hot`] of the list as cut, so a
//! hub's short window above a high bound is hot) is admitted with its
//! bitmap, built once at admission over the ids above its cut. The
//! capacity budget counts list bytes only, so the bitmaps change nothing
//! about which lists are admitted; no bitmap is larger than its list (and
//! a word), so they at most double what the cache holds.

use gpm_graph::partition::vertex_hash;
use gpm_graph::set_ops::{self, Bits, Side};
use gpm_graph::{Degree, VertexId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CachePolicy {
    /// Insert-until-full, never evict (the paper's design, §5.3).
    #[default]
    Static,
    /// Evict the oldest-inserted entry.
    Fifo,
    /// Evict the newest-inserted entry.
    Lifo,
    /// Evict the least recently used entry.
    Lru,
    /// Evict the most recently used entry.
    Mru,
    /// No cache at all (Table 6's "no cache" column).
    Disabled,
}

/// Cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes **per machine**; divided evenly among its NUMA
    /// sockets (§5.4).
    pub capacity_per_machine: usize,
    /// Minimum full degree of a vertex whose list is admitted (the
    /// paper's degree threshold, e.g. 64, §5.3), however short the window
    /// its fetch cut. Applied by the static policy only; replacement
    /// policies accept everything, as G-thinker-style general caches do.
    pub degree_threshold: Degree,
    /// Replacement policy.
    pub policy: CachePolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_per_machine: 8 << 20, // 8 MiB of lists per machine
            degree_threshold: 64,
            policy: CachePolicy::Static,
        }
    }
}

impl CacheConfig {
    /// A disabled cache.
    pub fn disabled() -> Self {
        CacheConfig { policy: CachePolicy::Disabled, ..CacheConfig::default() }
    }
}

/// One cached edge list, with the bound it was fetched above and its
/// bitmap when the list is hot, which covers the ids above that bound.
#[derive(Debug)]
pub struct Entry {
    list: Box<[VertexId]>,
    /// The exclusive lower bound the list was cut at; `None`: whole.
    pub(crate) above: Option<VertexId>,
    /// The bitmap of a hot list; empty for a cold one.
    words: Box<[u64]>,
}

impl Entry {
    /// `list`, cut above `above`, with its bitmap if it is hot in a graph
    /// of `vertices` ids.
    fn new(list: &[VertexId], above: Option<VertexId>, vertices: Option<usize>) -> Entry {
        let mut words = Vec::new();
        if let Some(vertices) = vertices.filter(|&n| set_ops::is_hot(list.len(), above, n)) {
            set_ops::push_bitmap(list, above, vertices, &mut words);
        }
        Entry { list: list.into(), above, words: words.into() }
    }

    /// The list with its bitmap, if it has one.
    #[inline]
    pub fn side(&self) -> Side<'_> {
        let bits = (!self.words.is_empty()).then(|| Bits::new(&self.words, self.above));
        Side { list: &self.list, bits }
    }

    fn bitmap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.words[..])
    }
}

impl std::ops::Deref for Entry {
    type Target = [VertexId];

    fn deref(&self) -> &[VertexId] {
        &self.list
    }
}

/// A shared per-part software cache of remote edge lists.
#[derive(Debug)]
pub struct SharedCache {
    policy: CachePolicy,
    capacity_bytes: usize,
    /// `|V|` of the graph whose lists are cached, for the bitmaps of the
    /// hot ones; `None` keeps no bitmaps.
    vertices: Option<usize>,
    /// The first ranked id whose full degree reaches the threshold
    /// ([`gpm_graph::partition::PartitionedGraph::hot_from`]): the static
    /// policy admits exactly the ids from here up.
    hot_from: VertexId,
    /// `inner.map.len()`, written under the write lock and read without
    /// any: zero lets a lookup answer "miss" without taking the lock.
    entries: AtomicUsize,
    inner: RwLock<Inner>,
}

/// A vertex with its [`vertex_hash`]: the map hashes with the value the
/// resolve loop already computed for the owner and the share table,
/// instead of running its own hash function over the id.
#[derive(Debug, Clone, Copy)]
struct Key {
    v: VertexId,
    hash: u64,
}

impl Key {
    fn of(v: VertexId) -> Key {
        Key { v, hash: vertex_hash(v) }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.v == other.v
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hands a [`Key`]'s precomputed hash to the map unchanged.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("Key hashes with write_u64 only");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<Key, Arc<Entry>, BuildHasherDefault<PassThrough>>,
    /// Insertion/recency order queue for the replacement policies (front =
    /// next victim candidate end depends on policy). Unused by `Static`.
    order: Vec<VertexId>,
    /// List bytes held: what the capacity bounds.
    bytes: usize,
    /// Bitmap bytes held beside them, outside the capacity.
    bitmap_bytes: usize,
    full: bool,
}

impl Inner {
    fn admit(&mut self, key: Key, entry: Entry) {
        self.bytes += std::mem::size_of_val(&entry[..]);
        self.bitmap_bytes += entry.bitmap_bytes();
        self.map.insert(key, Arc::new(entry));
    }

    fn evict(&mut self, v: VertexId) {
        if let Some(old) = self.map.remove(&Key::of(v)) {
            self.bytes -= std::mem::size_of_val(&old[..]);
            self.bitmap_bytes -= old.bitmap_bytes();
        }
    }
}

impl SharedCache {
    /// Creates a cache with `capacity_bytes` of list storage. It does not
    /// know the graph, so it keeps no bitmaps and cannot tell a vertex's
    /// full degree: a static one admits every vertex, whatever
    /// `_degree_threshold` says. [`SharedCache::for_part`] applies the
    /// threshold.
    pub fn new(policy: CachePolicy, capacity_bytes: usize, _degree_threshold: Degree) -> Self {
        SharedCache {
            policy,
            capacity_bytes,
            vertices: None,
            hot_from: 0,
            entries: AtomicUsize::new(0),
            inner: RwLock::new(Inner::default()),
        }
    }

    /// Builds the per-part cache for a machine-level [`CacheConfig`], for a
    /// ranked graph of `vertices` vertices whose ids from `hot_from` up
    /// have a full degree at or above the threshold: every hot list it
    /// admits gets its bitmap.
    pub fn for_part(
        cfg: &CacheConfig,
        sockets_per_machine: usize,
        vertices: usize,
        hot_from: VertexId,
    ) -> Self {
        SharedCache {
            vertices: Some(vertices),
            hot_from,
            ..SharedCache::new(
                cfg.policy,
                cfg.capacity_per_machine / sockets_per_machine.max(1),
                cfg.degree_threshold,
            )
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Whether lookups can ever succeed.
    pub fn is_enabled(&self) -> bool {
        self.policy != CachePolicy::Disabled && self.capacity_bytes > 0
    }

    /// Looks up the edge list of `v`.
    ///
    /// For LRU/MRU this updates recency (and therefore takes the write
    /// lock — the measured cost of those policies); `Static`, FIFO and
    /// LIFO lookups take only the read lock, and no lock while the cache
    /// is empty.
    pub fn lookup(&self, v: VertexId) -> Option<Arc<Entry>> {
        self.lookup_above(v, None)
    }

    /// [`SharedCache::lookup`] of `v`'s list above `above` (`None`: whole):
    /// an entry answers if it was cut at or below `above`.
    #[inline]
    pub(crate) fn lookup_above(&self, v: VertexId, above: Option<VertexId>) -> Option<Arc<Entry>> {
        // An empty map has nothing to return and no recency to update. A
        // lookup racing the first insert may miss it, exactly as if it
        // had taken the lock first.
        if !self.is_enabled() || self.entries.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let key = Key::of(v);
        match self.policy {
            CachePolicy::Lru | CachePolicy::Mru => {
                let mut inner = self.inner.write();
                let hit = inner.map.get(&key).filter(|e| e.above <= above).cloned();
                if hit.is_some() {
                    if let Some(pos) = inner.order.iter().position(|&u| u == v) {
                        inner.order.remove(pos);
                        inner.order.push(v); // most recent at the back
                    }
                }
                hit
            }
            _ => self.inner.read().map.get(&key).filter(|e| e.above <= above).cloned(),
        }
    }

    /// Offers a freshly fetched whole list for caching; the policy
    /// decides. Returns `true` if the list was inserted.
    pub fn maybe_insert(&self, v: VertexId, list: &[VertexId]) -> bool {
        self.offer(v, list, None)
    }

    /// [`SharedCache::maybe_insert`] of a list that arrived cut above
    /// `above` (`None`: whole). A vertex already cached keeps its entry.
    pub(crate) fn offer(&self, v: VertexId, list: &[VertexId], above: Option<VertexId>) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let bytes = std::mem::size_of_val(list);
        if bytes > self.capacity_bytes {
            return false;
        }
        match self.policy {
            CachePolicy::Static => {
                if v < self.hot_from {
                    return false;
                }
                let key = Key::of(v);
                let mut inner = self.inner.write();
                // "First accessed first cached": once full, stay full.
                if inner.full || inner.map.contains_key(&key) {
                    return false;
                }
                if inner.bytes + bytes > self.capacity_bytes {
                    inner.full = true;
                    return false;
                }
                inner.admit(key, Entry::new(list, above, self.vertices));
                self.entries.store(inner.map.len(), Ordering::Relaxed);
                true
            }
            CachePolicy::Fifo | CachePolicy::Lifo | CachePolicy::Lru | CachePolicy::Mru => {
                let key = Key::of(v);
                let mut inner = self.inner.write();
                if inner.map.contains_key(&key) {
                    return false;
                }
                // Evict until there is room — the general-purpose
                // allocate/free churn the paper contrasts with STATIC.
                while inner.bytes + bytes > self.capacity_bytes {
                    let victim = match self.policy {
                        CachePolicy::Fifo | CachePolicy::Lru => {
                            if inner.order.is_empty() {
                                break;
                            }
                            inner.order.remove(0)
                        }
                        CachePolicy::Lifo | CachePolicy::Mru => match inner.order.pop() {
                            Some(u) => u,
                            None => break,
                        },
                        _ => unreachable!(),
                    };
                    inner.evict(victim);
                }
                let fits = inner.bytes + bytes <= self.capacity_bytes;
                if fits {
                    inner.admit(key, Entry::new(list, above, self.vertices));
                    inner.order.push(v);
                }
                self.entries.store(inner.map.len(), Ordering::Relaxed);
                fits
            }
            CachePolicy::Disabled => false,
        }
    }

    /// Number of cached lists.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of list data currently held.
    pub fn bytes(&self) -> usize {
        self.inner.read().bytes
    }

    /// Bytes of the hot lists' bitmaps held beside them, which the
    /// capacity does not count.
    pub fn bitmap_bytes(&self) -> usize {
        self.inner.read().bitmap_bytes
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Whether a static cache has refused a list for want of room, and
    /// every entry by vertex.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> (bool, Vec<(VertexId, Arc<Entry>)>) {
        let inner = self.inner.read();
        (inner.full, inner.map.iter().map(|(key, entry)| (key.v, Arc::clone(entry))).collect())
    }

    /// Drops every entry (used between benchmark runs).
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        inner.map.clear();
        inner.order.clear();
        inner.bytes = 0;
        inner.bitmap_bytes = 0;
        inner.full = false;
        self.entries.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(n: usize, tag: u32) -> Vec<VertexId> {
        (0..n as u32).map(|i| i + tag).collect()
    }

    #[test]
    fn static_insert_and_lookup() {
        let c = SharedCache::new(CachePolicy::Static, 4096, 4);
        assert!(c.lookup(1).is_none());
        assert!(c.maybe_insert(1, &list(10, 0)));
        assert_eq!(c.lookup(1).unwrap().len(), 10);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 40);
        // A list cut above 5 answers a bound at or above 5; a lower one
        // and the whole list miss. The whole list answers every bound.
        assert!(c.offer(2, &list(10, 6), Some(5)));
        for (v, above, hit) in [
            (2, Some(5), true),
            (2, Some(9), true),
            (2, Some(4), false),
            (2, None, false),
            (1, Some(0), true),
            (1, None, true),
        ] {
            assert_eq!(c.lookup_above(v, above).is_some(), hit, "{v} above {above:?}");
        }
        assert_eq!(c.lookup_above(2, Some(7)).unwrap().above, Some(5));
    }

    #[test]
    fn static_respects_degree_threshold() {
        // Over a ranked graph whose ids from 50 up have degree 8 or more,
        // the full degree decides: a hub whose window was cut to 3
        // entries is admitted, and a whole list of a vertex under the
        // threshold is still refused.
        let cfg = CacheConfig {
            capacity_per_machine: 4096,
            degree_threshold: 8,
            ..CacheConfig::default()
        };
        let c = SharedCache::for_part(&cfg, 1, 100, 50);
        assert!(c.offer(60, &list(3, 61), Some(60)));
        assert!(!c.maybe_insert(49, &list(7, 0)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn static_never_evicts_and_stops_when_full() {
        let c = SharedCache::new(CachePolicy::Static, 100, 1);
        assert!(c.maybe_insert(1, &list(20, 0))); // 80 bytes
        assert!(!c.maybe_insert(2, &list(20, 0))); // would exceed => marks full
                                                   // Even a small list is now refused: "no longer insert any data".
        assert!(!c.maybe_insert(3, &list(2, 0)));
        assert!(c.lookup(1).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn fifo_evicts_oldest() {
        let c = SharedCache::new(CachePolicy::Fifo, 100, 1);
        assert!(c.maybe_insert(1, &list(10, 0))); // 40
        assert!(c.maybe_insert(2, &list(10, 0))); // 80
        assert!(c.maybe_insert(3, &list(10, 0))); // evicts 1
        assert!(c.lookup(1).is_none());
        assert!(c.lookup(2).is_some());
        assert!(c.lookup(3).is_some());
    }

    #[test]
    fn lifo_evicts_newest() {
        let c = SharedCache::new(CachePolicy::Lifo, 100, 1);
        c.maybe_insert(1, &list(10, 0));
        c.maybe_insert(2, &list(10, 0));
        c.maybe_insert(3, &list(10, 0)); // evicts 2
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(2).is_none());
        assert!(c.lookup(3).is_some());
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let c = SharedCache::new(CachePolicy::Lru, 100, 1);
        c.maybe_insert(1, &list(10, 0));
        c.maybe_insert(2, &list(10, 0));
        c.lookup(1); // 1 becomes most recent
        c.maybe_insert(3, &list(10, 0)); // evicts 2 (least recent)
        assert!(c.lookup(2).is_none());
        assert!(c.lookup(1).is_some());
    }

    #[test]
    fn mru_evicts_most_recent() {
        let c = SharedCache::new(CachePolicy::Mru, 100, 1);
        c.maybe_insert(1, &list(10, 0));
        c.maybe_insert(2, &list(10, 0));
        c.lookup(1); // 1 most recent
        c.maybe_insert(3, &list(10, 0)); // evicts 1
        assert!(c.lookup(1).is_none());
        assert!(c.lookup(2).is_some());
    }

    #[test]
    fn evicted_data_survives_through_arc() {
        let c = SharedCache::new(CachePolicy::Fifo, 100, 1);
        c.maybe_insert(1, &list(10, 7));
        let held = c.lookup(1).unwrap();
        c.maybe_insert(2, &list(10, 0));
        c.maybe_insert(3, &list(10, 0)); // evicts 1
        assert!(c.lookup(1).is_none());
        assert_eq!(held[0], 7); // still valid
    }

    #[test]
    fn disabled_cache_does_nothing() {
        let c = SharedCache::new(CachePolicy::Disabled, 1 << 20, 1);
        assert!(!c.maybe_insert(1, &list(10, 0)));
        assert!(c.lookup(1).is_none());
        assert!(!c.is_enabled());
    }

    #[test]
    fn oversized_list_rejected() {
        let c = SharedCache::new(CachePolicy::Static, 16, 1);
        assert!(!c.maybe_insert(1, &list(100, 0)));
    }

    #[test]
    fn clear_resets_everything() {
        let c = SharedCache::new(CachePolicy::Static, 100, 1);
        c.maybe_insert(1, &list(20, 0));
        c.maybe_insert(2, &list(20, 0)); // full
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        // Full flag reset: can insert again.
        assert!(c.maybe_insert(3, &list(10, 0)));
    }

    #[test]
    fn empty_cache_answers_without_the_lock() {
        for policy in [CachePolicy::Static, CachePolicy::Lru] {
            let c = SharedCache::new(policy, 4096, 1);
            let held = c.inner.write();
            // Would deadlock here if the lookup took either lock.
            assert!(c.lookup(1).is_none());
            drop(held);
            assert!(c.maybe_insert(1, &list(4, 0)));
            assert!(c.lookup(1).is_some());
            c.clear();
            let held = c.inner.write();
            assert!(c.lookup(1).is_none());
            drop(held);
        }
    }

    #[test]
    fn entry_count_tracks_inserts_and_evictions() {
        let c = SharedCache::new(CachePolicy::Fifo, 100, 1);
        assert_eq!(c.len(), 0);
        c.maybe_insert(1, &list(10, 0));
        c.maybe_insert(2, &list(10, 0));
        assert_eq!(c.len(), 2);
        c.maybe_insert(3, &list(20, 0)); // 80 B: evicts both
        assert_eq!(c.len(), 1);
        assert!(c.lookup(3).is_some());
    }

    #[test]
    fn per_part_sizing() {
        let cfg = CacheConfig { capacity_per_machine: 1000, ..CacheConfig::default() };
        let c = SharedCache::for_part(&cfg, 2, 1 << 20, 0);
        assert_eq!(c.capacity_bytes(), 500);
    }

    #[test]
    fn a_hot_list_is_admitted_with_its_bitmap_outside_the_budget() {
        // |V| = 640: a list of 20 entries is hot, one of 19 is not. The
        // budget fits two lists of 20 whichever carry bitmaps.
        for policy in [CachePolicy::Static, CachePolicy::Fifo] {
            let c = SharedCache::for_part(
                &CacheConfig { capacity_per_machine: 160, degree_threshold: 1, policy },
                1,
                640,
                0,
            );
            assert!(c.maybe_insert(1, &list(20, 100)));
            assert!(c.maybe_insert(2, &list(19, 0)));
            assert_eq!((c.bytes(), c.bitmap_bytes()), (156, 80));
            let hot = c.lookup(1).unwrap();
            let bits = hot.side().bits.expect("a hot list carries its bitmap");
            assert!((100..120).all(|v| bits.contains(v)) && !bits.contains(99));
            assert!(c.lookup(2).unwrap().side().bits.is_none());
            // The same lists, the same admissions, without bitmaps.
            let plain = SharedCache::new(policy, 160, 1);
            assert!(plain.maybe_insert(1, &list(20, 100)));
            assert!(plain.maybe_insert(2, &list(19, 0)));
            assert!(plain.lookup(1).unwrap().side().bits.is_none());
            assert_eq!((plain.bytes(), plain.bitmap_bytes()), (156, 0));
            // A FIFO cache evicts the hot list and its bitmap with it.
            if policy == CachePolicy::Fifo {
                assert!(c.maybe_insert(3, &list(2, 0)));
                assert!(c.lookup(1).is_none());
                assert_eq!((c.bytes(), c.bitmap_bytes()), (84, 0));
            }
            c.clear();
            assert_eq!(c.bitmap_bytes(), 0);
        }
    }

    #[test]
    fn a_window_above_a_high_bound_is_cached_with_a_bitmap_of_its_span() {
        // |V| = 100. Two ids cut above 96 can only be among 97..100: the
        // window is hot, and its bitmap is the one word that holds them.
        // Two ids cut above 5 span 94 ids, more than 2 × 32: no bitmap.
        let cfg = CacheConfig {
            capacity_per_machine: 4096,
            degree_threshold: 1,
            ..CacheConfig::default()
        };
        let c = SharedCache::for_part(&cfg, 1, 100, 0);
        assert!(c.offer(95, &[97, 99], Some(96)));
        assert!(c.offer(4, &[20, 40], Some(5)));
        let entry = c.lookup_above(95, Some(96)).unwrap();
        assert_eq!(entry.above, Some(96));
        let bits = entry.side().bits.expect("a hot window carries its bitmap");
        assert!(bits.contains(97) && !bits.contains(98) && bits.contains(99));
        assert!(c.lookup_above(4, Some(5)).unwrap().side().bits.is_none());
        assert_eq!((c.bytes(), c.bitmap_bytes()), (16, 8));
    }

    #[test]
    fn concurrent_access() {
        let c = Arc::new(SharedCache::new(CachePolicy::Static, 1 << 20, 1));
        let mut joins = Vec::new();
        for t in 0..4u32 {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let v = t * 100 + i;
                    c.maybe_insert(v, &list(4, v));
                    assert_eq!(c.lookup(v).unwrap()[0], v);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(c.len(), 400);
    }
}
