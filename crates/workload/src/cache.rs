//! Per-edge LRU object caches with delayed-hit semantics.
//!
//! A request for a cached object is a *hit* (served at zero latency). A
//! request for an object another request is already fetching is a *delayed
//! hit*: it joins the in-flight fetch's waiter queue instead of issuing a
//! second origin fetch, and is released — exactly once — when the fill
//! lands ("Caching with Delayed Hits", Atre et al., SIGCOMM '20). Only the
//! first requester pays an origin fetch.
//!
//! Eviction is classic LRU by default. The optional MAD-aware variant
//! (Minimizing Aggregate Delay) scans a small window of the least-recently
//! used entries and evicts the one that has absorbed the fewest hits since
//! its fill — a deterministic proxy for the aggregate delay its loss would
//! cost at the next miss.
//!
//! The request path allocates nothing in steady state: cached entries live
//! in a node slab threaded by an intrusive recency list (least recent at
//! the head), one hash index maps each object to its node or to its
//! in-flight fetch, and fetches draw their waiter queues from a per-cache
//! pool of recycled buffers. The index is never iterated for output;
//! everything that leaves the cache in bulk (aborted waiters, checkpoints)
//! is put in `ObjectId` order first, so the cache stays deterministic.

use crate::catalog::ObjectId;
use cdnc_simcore::ckpt::{Ckpt, CkptError};
use cdnc_simcore::SimTime;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// How many least-recently-used entries the MAD variant considers.
const MAD_WINDOW: usize = 8;

/// The null link of the recency list.
const NIL: u32 = u32::MAX;

/// A request queued behind an in-flight origin fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Waiter {
    /// The requesting user's index.
    pub user: u32,
    /// When the request arrived (latency accrues from here).
    pub requested_at: SimTime,
}

/// The outcome of one cache request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from cache; the copy carries provider snapshot `snap`.
    Hit {
        /// Provider snapshot the cached copy was filled at.
        snap: u32,
    },
    /// Coalesced behind an in-flight fetch; released on fill.
    Delayed,
    /// Not cached and not in flight: the caller must start an origin fetch
    /// (the requester is already queued as the fetch's first waiter).
    Miss,
}

/// A cached object: one slab node, linked into the recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    id: ObjectId,
    snap: u32,
    /// Recency clock at the last fill or hit; ticks rise from head to tail.
    tick: u64,
    /// Hits absorbed since the fill (the MAD victim score).
    uses: u64,
    prev: u32,
    next: u32,
}

/// Where the index points an object: its cached node, or its in-flight
/// fetch's waiter queue in the pool. An object is never both — a fill turns
/// the one into the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    Cached(u32),
    Fetching(u32),
}

/// Hashes an [`ObjectId`] (two `u32` writes) with one multiply and a fold,
/// so both the low bits (bucket) and the high bits (tag) of the hash see
/// every bit of the id. The keys are catalog ids the simulator draws (a
/// checkpoint load adds at most one per artifact line), not input an
/// adversary picks, so the fast hash needs no defence against collisions.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(u32::from(b)));
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(word);
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    }
}

/// The cached entries: a slab of nodes (freed nodes chain through `next`)
/// and the recency list threaded through it.
#[derive(Debug, Clone)]
struct Slab {
    nodes: Vec<Node>,
    /// Least recently used node.
    head: u32,
    /// Most recently used node.
    tail: u32,
    /// First free node.
    free: u32,
    len: usize,
}

impl Slab {
    fn new() -> Self {
        Slab { nodes: Vec::new(), head: NIL, tail: NIL, free: NIL, len: 0 }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        (self.head, self.tail, self.free, self.len) = (NIL, NIL, NIL, 0);
    }

    /// Stores `node` as the most recent entry; returns its index.
    fn push_back(&mut self, node: Node) -> u32 {
        let n = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        self.len += 1;
        self.link_back(n);
        n
    }

    fn link_back(&mut self, n: u32) {
        let node = &mut self.nodes[n as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = n,
            t => self.nodes[t as usize].next = n,
        }
        self.tail = n;
    }

    fn unlink(&mut self, n: u32) {
        let Node { prev, next, .. } = self.nodes[n as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.nodes[x as usize].prev = prev,
        }
    }

    /// Makes `n` the most recent entry.
    fn move_to_back(&mut self, n: u32) {
        if self.tail != n {
            self.unlink(n);
            self.link_back(n);
        }
    }

    /// Unlinks and frees `n`; returns its contents.
    fn remove(&mut self, n: u32) -> Node {
        self.unlink(n);
        self.len -= 1;
        let node = self.nodes[n as usize];
        self.nodes[n as usize].next = self.free;
        self.free = n;
        node
    }

    /// Node indices from least to most recent.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(self.head).filter(|&n| n != NIL), |&n| {
            Some(self.nodes[n as usize].next).filter(|&x| x != NIL)
        })
    }
}

/// A cached entry as the checkpoint stores it.
#[derive(Debug, Clone, Default)]
struct Entry {
    snap: u32,
    tick: u64,
    uses: u64,
}

/// An LRU cache of catalog objects with miss coalescing.
///
/// # Examples
///
/// ```
/// use cdnc_simcore::SimTime;
/// use cdnc_workload::{Lookup, LruCache, ObjectId};
///
/// let mut cache = LruCache::new(2, false);
/// let id = ObjectId { slot: 0, gen: 0 };
/// let t = SimTime::ZERO;
/// assert_eq!(cache.request(id, 1, t), Lookup::Miss);
/// assert_eq!(cache.request(id, 2, t), Lookup::Delayed);
/// let (waiters, evicted) = cache.fill(id, 5, t);
/// assert_eq!(waiters.len(), 2, "initiator + delayed hit released together");
/// assert_eq!(evicted, None);
/// assert_eq!(cache.request(id, 3, t), Lookup::Hit { snap: 5 });
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    mad: bool,
    tick: u64,
    slab: Slab,
    index: HashMap<ObjectId, Held, BuildHasherDefault<IdHasher>>,
    /// Waiter queues by fetch; a finished fetch's buffer keeps its
    /// allocation and goes back on `free_queues` for the next miss.
    queues: Vec<Vec<Waiter>>,
    free_queues: Vec<u32>,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` objects; `mad` selects
    /// the MAD-aware eviction variant.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, mad: bool) -> Self {
        assert!(capacity > 0, "zero-capacity cache");
        LruCache {
            capacity,
            mad,
            tick: 0,
            slab: Slab::new(),
            index: HashMap::default(),
            queues: Vec::new(),
            free_queues: Vec::new(),
        }
    }

    /// Number of cached objects (in-flight fetches excluded).
    pub fn len(&self) -> usize {
        self.slab.len
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slab.len == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of fetches currently in flight.
    pub fn inflight(&self) -> usize {
        self.index.len() - self.slab.len
    }

    /// The provider snapshot the cached copy of `id` carries, if cached.
    pub fn peek_snap(&self, id: ObjectId) -> Option<u32> {
        match self.index.get(&id) {
            Some(&Held::Cached(n)) => Some(self.slab.nodes[n as usize].snap),
            _ => None,
        }
    }

    /// One user request for `id`: hit, delayed hit, or miss. On a miss the
    /// requester is queued as the new fetch's first waiter, so the caller
    /// only has to start the origin fetch.
    pub fn request(&mut self, id: ObjectId, user: u32, now: SimTime) -> Lookup {
        use std::collections::hash_map::Entry::{Occupied, Vacant};
        let waiter = Waiter { user, requested_at: now };
        match self.index.entry(id) {
            Occupied(e) => match *e.get() {
                Held::Cached(n) => {
                    self.tick += 1;
                    self.slab.move_to_back(n);
                    let node = &mut self.slab.nodes[n as usize];
                    node.tick = self.tick;
                    node.uses += 1;
                    Lookup::Hit { snap: node.snap }
                }
                Held::Fetching(q) => {
                    self.queues[q as usize].push(waiter);
                    Lookup::Delayed
                }
            },
            Vacant(e) => {
                let q = match self.free_queues.pop() {
                    Some(q) => {
                        self.queues[q as usize].clear();
                        q
                    }
                    None => {
                        self.queues.push(Vec::new());
                        (self.queues.len() - 1) as u32
                    }
                };
                self.queues[q as usize].push(waiter);
                e.insert(Held::Fetching(q));
                Lookup::Miss
            }
        }
    }

    /// Drops the cached copy of `id` (serve-time revalidation found it
    /// stale). Returns `true` if a copy was cached.
    pub fn invalidate(&mut self, id: ObjectId) -> bool {
        let Some(&Held::Cached(n)) = self.index.get(&id) else { return false };
        self.index.remove(&id);
        self.slab.remove(n);
        true
    }

    /// The origin fill for `id` landed carrying provider snapshot `snap`:
    /// caches the object and releases every queued waiter exactly once.
    /// Returns the waiters, in queue order, and the evicted victim, if the
    /// fill pushed the cache past capacity. The waiters borrow the fetch's
    /// queue buffer, which the next miss reuses.
    ///
    /// # Panics
    ///
    /// Panics if no fetch for `id` is in flight.
    pub fn fill(
        &mut self,
        id: ObjectId,
        snap: u32,
        _now: SimTime,
    ) -> (&[Waiter], Option<ObjectId>) {
        let held = self.index.get_mut(&id);
        let Some(held @ &mut Held::Fetching(q)) = held else {
            panic!("fill without an in-flight fetch");
        };
        self.tick += 1;
        let node = Node { id, snap, tick: self.tick, uses: 0, prev: NIL, next: NIL };
        *held = Held::Cached(self.slab.push_back(node));
        let evicted = (self.slab.len > self.capacity).then(|| self.evict());
        self.free_queues.push(q);
        (&self.queues[q as usize], evicted)
    }

    /// `true` while a fetch for `id` is in flight — lets a caller detect an
    /// orphaned fill (the fetch was aborted while the response travelled).
    pub fn is_fetching(&self, id: ObjectId) -> bool {
        matches!(self.index.get(&id), Some(Held::Fetching(_)))
    }

    /// Aborts every in-flight fetch — the edge died mid-fetch. The queued
    /// waiters are returned, fetch by fetch in `ObjectId` order, so the
    /// caller can release them as aborted misses; any fill that later
    /// arrives for an aborted fetch is an orphan the caller must drop (see
    /// [`LruCache::is_fetching`]).
    pub fn abort_inflight(&mut self) -> Vec<Waiter> {
        let mut fetches = self.fetches();
        if fetches.is_empty() {
            return Vec::new();
        }
        fetches.sort_unstable();
        self.index.retain(|_, held| matches!(held, Held::Cached(_)));
        let mut waiters = Vec::new();
        for (_, q) in fetches {
            waiters.append(&mut self.queues[q as usize]);
            self.free_queues.push(q);
        }
        waiters
    }

    /// Cold restart after a crash: drops every cached object and aborts
    /// every in-flight fetch, returning the orphaned waiters. The recency
    /// clock keeps running, so post-restart ticks never collide with
    /// pre-crash history.
    pub fn cold_restart(&mut self) -> Vec<Waiter> {
        let waiters = self.abort_inflight();
        self.index.clear();
        self.slab.clear();
        waiters
    }

    /// Checkpoints the cache's dynamic state — recency clock, cached
    /// entries, and in-flight fetches with their waiter queues, each in
    /// `ObjectId` order. Capacity and the eviction variant are
    /// construction parameters rebuilt from config. Loading checks catalog
    /// ranks against `slots`, cached snapshots against `snaps` and waiting
    /// users against `users`, rejects entries that share a tick or are
    /// newer than the clock and objects both cached and in flight, and
    /// rebuilds the recency list from the entries' ticks.
    pub fn ckpt(
        &mut self,
        c: &mut Ckpt<'_>,
        slots: usize,
        snaps: usize,
        users: usize,
    ) -> Result<(), CkptError> {
        let object = |c: &mut Ckpt<'_>, id: &mut ObjectId| {
            c.index("cache_slot", &mut id.slot, slots)?;
            c.u32("cache_gen", &mut id.gen)
        };
        let mut entries = BTreeMap::new();
        let mut inflight = BTreeMap::new();
        if !c.is_load() {
            for n in self.slab.iter() {
                let Node { id, snap, tick, uses, .. } = self.slab.nodes[n as usize];
                entries.insert(id, Entry { snap, tick, uses });
            }
            for (id, q) in self.fetches() {
                inflight.insert(id, self.queues[q as usize].clone());
            }
        }
        c.u64("cache_tick", &mut self.tick)?;
        c.map("cache_entries", &mut entries, |c, id, entry| {
            object(c, id)?;
            c.index("cache_snap", &mut entry.snap, snaps)?;
            c.u64("cache_entry_tick", &mut entry.tick)?;
            c.u64("cache_uses", &mut entry.uses)
        })?;
        c.map("cache_inflight", &mut inflight, |c, id, waiters| {
            object(c, id)?;
            c.list("cache_waiters", waiters, |c, w| {
                c.index("cache_waiter_user", &mut w.user, users)?;
                c.time("cache_waiter_at", &mut w.requested_at)
            })
        })?;
        if c.is_load() {
            self.restore(entries, inflight)?;
        }
        Ok(())
    }

    /// Rebuilds the slab, recency list, index and waiter queues from
    /// loaded checkpoint sections.
    fn restore(
        &mut self,
        entries: BTreeMap<ObjectId, Entry>,
        inflight: BTreeMap<ObjectId, Vec<Waiter>>,
    ) -> Result<(), CkptError> {
        let mut by_tick: Vec<(u64, ObjectId, Entry)> =
            entries.into_iter().map(|(id, e)| (e.tick, id, e)).collect();
        by_tick.sort_unstable_by_key(|&(tick, id, _)| (tick, id));
        let distinct = by_tick.windows(2).all(|w| w[0].0 != w[1].0);
        let newest = by_tick.last().map_or(0, |&(tick, ..)| tick);
        if !distinct || newest > self.tick || by_tick.len() > self.capacity {
            return Err(CkptError(format!(
                "cache holds {} entries (capacity {}); their ticks must be distinct \
                 and at most the clock {}",
                by_tick.len(),
                self.capacity,
                self.tick
            )));
        }
        let tick = self.tick;
        *self = LruCache { tick, ..LruCache::new(self.capacity, self.mad) };
        for (tick, id, Entry { snap, uses, .. }) in by_tick {
            let n = self.slab.push_back(Node { id, snap, tick, uses, prev: NIL, next: NIL });
            self.index.insert(id, Held::Cached(n));
        }
        for (id, waiters) in inflight {
            let q = self.queues.len() as u32;
            self.queues.push(waiters);
            if self.index.insert(id, Held::Fetching(q)).is_some() {
                return Err(CkptError(format!("cache object {id:?} both cached and in flight")));
            }
        }
        Ok(())
    }

    /// Every in-flight fetch as `(object, waiter queue)`, unordered.
    fn fetches(&self) -> Vec<(ObjectId, u32)> {
        let fetching = |(&id, &held): (&ObjectId, &Held)| match held {
            Held::Fetching(q) => Some((id, q)),
            Held::Cached(_) => None,
        };
        self.index.iter().filter_map(fetching).collect()
    }

    /// Picks and removes the eviction victim; returns its id.
    fn evict(&mut self) -> ObjectId {
        let victim = if self.mad {
            // MAD-aware: among the least-recent window, the entry with the
            // fewest absorbed hits costs the least aggregate delay to lose.
            // Ties fall to the older entry (`min_by_key` keeps the first),
            // so the scan is deterministic.
            self.slab.iter().take(MAD_WINDOW).min_by_key(|&n| self.slab.nodes[n as usize].uses)
        } else {
            Some(self.slab.head).filter(|&n| n != NIL)
        };
        let node = self.slab.remove(victim.expect("eviction from a non-empty cache"));
        self.index.remove(&node.id);
        node.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The cache as three ordered maps (`entries`, `recency` keyed by tick,
    /// `inflight`): slow, but each rule is one obvious line. A test oracle
    /// for [`LruCache`], which must match it step for step.
    #[derive(Debug, Clone)]
    struct Reference {
        capacity: usize,
        mad: bool,
        tick: u64,
        entries: BTreeMap<ObjectId, Entry>,
        recency: BTreeMap<u64, ObjectId>,
        inflight: BTreeMap<ObjectId, Vec<Waiter>>,
    }

    impl Reference {
        fn new(capacity: usize, mad: bool) -> Self {
            Reference {
                capacity,
                mad,
                tick: 0,
                entries: BTreeMap::new(),
                recency: BTreeMap::new(),
                inflight: BTreeMap::new(),
            }
        }

        fn request(&mut self, id: ObjectId, user: u32, now: SimTime) -> Lookup {
            if let Some(entry) = self.entries.get_mut(&id) {
                self.recency.remove(&entry.tick);
                self.tick += 1;
                entry.tick = self.tick;
                entry.uses += 1;
                self.recency.insert(self.tick, id);
                return Lookup::Hit { snap: entry.snap };
            }
            let waiter = Waiter { user, requested_at: now };
            if let Some(waiters) = self.inflight.get_mut(&id) {
                waiters.push(waiter);
                return Lookup::Delayed;
            }
            self.inflight.insert(id, vec![waiter]);
            Lookup::Miss
        }

        fn invalidate(&mut self, id: ObjectId) -> bool {
            match self.entries.remove(&id) {
                Some(entry) => {
                    self.recency.remove(&entry.tick);
                    true
                }
                None => false,
            }
        }

        fn fill(&mut self, id: ObjectId, snap: u32) -> (Vec<Waiter>, Option<ObjectId>) {
            let waiters = self.inflight.remove(&id).expect("fill without an in-flight fetch");
            self.tick += 1;
            self.entries.insert(id, Entry { snap, tick: self.tick, uses: 0 });
            self.recency.insert(self.tick, id);
            let evicted = (self.entries.len() > self.capacity).then(|| self.evict());
            (waiters, evicted)
        }

        fn abort_inflight(&mut self) -> Vec<Waiter> {
            std::mem::take(&mut self.inflight).into_values().flatten().collect()
        }

        fn cold_restart(&mut self) -> Vec<Waiter> {
            self.entries.clear();
            self.recency.clear();
            self.abort_inflight()
        }

        fn evict(&mut self) -> ObjectId {
            let victim = if self.mad {
                let mut best: Option<(u64, u64, ObjectId)> = None;
                for (&tick, &id) in self.recency.iter().take(MAD_WINDOW) {
                    let uses = self.entries[&id].uses;
                    if best.is_none_or(|(bu, bt, _)| uses < bu || (uses == bu && tick < bt)) {
                        best = Some((uses, tick, id));
                    }
                }
                best.expect("eviction from a non-empty cache").2
            } else {
                *self.recency.first_key_value().expect("eviction from a non-empty cache").1
            };
            let entry = self.entries.remove(&victim).expect("victim is cached");
            self.recency.remove(&entry.tick);
            victim
        }

        /// The checkpoint text [`LruCache::ckpt`] must write for this state.
        fn ckpt_text(&self) -> String {
            let mut c = Ckpt::save("test");
            c.u64("cache_tick", &mut self.tick.clone()).unwrap();
            c.map("cache_entries", &mut self.entries.clone(), |c, id, entry| {
                c.index("cache_slot", &mut id.slot, BOUND)?;
                c.u32("cache_gen", &mut id.gen)?;
                c.index("cache_snap", &mut entry.snap, BOUND)?;
                c.u64("cache_entry_tick", &mut entry.tick)?;
                c.u64("cache_uses", &mut entry.uses)
            })
            .unwrap();
            c.map("cache_inflight", &mut self.inflight.clone(), |c, id, waiters| {
                c.index("cache_slot", &mut id.slot, BOUND)?;
                c.u32("cache_gen", &mut id.gen)?;
                c.list("cache_waiters", waiters, |c, w| {
                    c.index("cache_waiter_user", &mut w.user, BOUND)?;
                    c.time("cache_waiter_at", &mut w.requested_at)
                })
            })
            .unwrap();
            c.finish()
        }
    }

    /// Slot, snapshot and user bound of the differential checkpoints.
    const BOUND: usize = 16;

    fn ckpt_text(cache: &mut LruCache) -> String {
        let mut c = Ckpt::save("test");
        cache.ckpt(&mut c, BOUND, BOUND, BOUND).unwrap();
        c.finish()
    }

    fn id(slot: u32) -> ObjectId {
        ObjectId { slot, gen: 0 }
    }

    fn filled(cache: &mut LruCache, slot: u32) {
        assert_eq!(cache.request(id(slot), 0, SimTime::ZERO), Lookup::Miss);
        cache.fill(id(slot), 0, SimTime::ZERO);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = LruCache::new(2, false);
        filled(&mut cache, 1);
        filled(&mut cache, 2);
        // Touch 1 so 2 is the LRU victim.
        assert!(matches!(cache.request(id(1), 0, SimTime::ZERO), Lookup::Hit { .. }));
        assert_eq!(cache.request(id(3), 0, SimTime::ZERO), Lookup::Miss);
        let (_, evicted) = cache.fill(id(3), 0, SimTime::ZERO);
        assert_eq!(evicted, Some(id(2)));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek_snap(id(1)).is_some() && cache.peek_snap(id(3)).is_some());
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_fetch() {
        let mut cache = LruCache::new(4, false);
        assert_eq!(cache.request(id(9), 1, SimTime::from_secs(1)), Lookup::Miss);
        assert_eq!(cache.request(id(9), 2, SimTime::from_secs(2)), Lookup::Delayed);
        assert_eq!(cache.request(id(9), 3, SimTime::from_secs(3)), Lookup::Delayed);
        assert_eq!(cache.inflight(), 1, "one fetch serves all three");
        let (waiters, _) = cache.fill(id(9), 7, SimTime::from_secs(4));
        assert_eq!(
            waiters,
            vec![
                Waiter { user: 1, requested_at: SimTime::from_secs(1) },
                Waiter { user: 2, requested_at: SimTime::from_secs(2) },
                Waiter { user: 3, requested_at: SimTime::from_secs(3) },
            ]
        );
        assert_eq!(cache.inflight(), 0);
        assert_eq!(cache.request(id(9), 4, SimTime::from_secs(5)), Lookup::Hit { snap: 7 });
    }

    #[test]
    fn invalidation_forces_a_refetch() {
        let mut cache = LruCache::new(4, false);
        filled(&mut cache, 5);
        assert!(cache.invalidate(id(5)));
        assert!(!cache.invalidate(id(5)), "second invalidate is a no-op");
        assert_eq!(cache.request(id(5), 0, SimTime::ZERO), Lookup::Miss);
    }

    #[test]
    fn mad_variant_spares_hit_absorbing_entries() {
        // Entry 1 is the *least recent* but has absorbed hits; 2 and 3 are
        // newer and unused. Plain LRU evicts 1; MAD spares it and evicts
        // the older of the unused entries instead.
        let mut cache = LruCache::new(3, true);
        filled(&mut cache, 1);
        for _ in 0..5 {
            assert!(matches!(cache.request(id(1), 0, SimTime::ZERO), Lookup::Hit { .. }));
        }
        filled(&mut cache, 2);
        filled(&mut cache, 3);
        let mut plain = cache.clone();
        plain.mad = false;
        assert_eq!(cache.request(id(4), 0, SimTime::ZERO), Lookup::Miss);
        let (_, evicted) = cache.fill(id(4), 0, SimTime::ZERO);
        assert_eq!(evicted, Some(id(2)), "MAD spares the hit-absorbing entry");
        assert_eq!(plain.request(id(4), 0, SimTime::ZERO), Lookup::Miss);
        let (_, evicted) = plain.fill(id(4), 0, SimTime::ZERO);
        assert_eq!(evicted, Some(id(1)), "plain LRU evicts by recency alone");
    }

    #[test]
    fn mad_scan_stops_at_the_window() {
        // Eight hit-absorbing entries fill the window; an unused entry sits
        // just past it and is not considered.
        let mut cache = LruCache::new(MAD_WINDOW + 1, true);
        for slot in 0..MAD_WINDOW as u32 {
            filled(&mut cache, slot);
        }
        for slot in 0..MAD_WINDOW as u32 {
            assert!(matches!(cache.request(id(slot), 0, SimTime::ZERO), Lookup::Hit { .. }));
        }
        filled(&mut cache, 100);
        assert_eq!(cache.request(id(101), 0, SimTime::ZERO), Lookup::Miss);
        let (_, evicted) = cache.fill(id(101), 0, SimTime::ZERO);
        assert_eq!(evicted, Some(id(0)), "the oldest of the tied window, not the unused entry");
    }

    #[test]
    #[should_panic(expected = "fill without an in-flight fetch")]
    fn fill_requires_a_fetch() {
        LruCache::new(1, false).fill(id(0), 0, SimTime::ZERO);
    }

    #[test]
    fn abort_inflight_releases_waiters_and_orphans_fills() {
        let mut cache = LruCache::new(4, false);
        filled(&mut cache, 1);
        assert_eq!(cache.request(id(9), 1, SimTime::from_secs(1)), Lookup::Miss);
        assert_eq!(cache.request(id(9), 2, SimTime::from_secs(2)), Lookup::Delayed);
        assert!(cache.is_fetching(id(9)));
        let waiters = cache.abort_inflight();
        assert_eq!(waiters.len(), 2, "initiator and delayed hit both released");
        assert!(!cache.is_fetching(id(9)), "the fill that lands later is an orphan");
        assert_eq!(cache.inflight(), 0);
        assert_eq!(cache.len(), 1, "cached entries survive an inflight abort");
        // A fresh request for the aborted object starts a new fetch.
        assert_eq!(cache.request(id(9), 3, SimTime::from_secs(3)), Lookup::Miss);
    }

    #[test]
    fn cold_restart_empties_everything_and_keeps_the_clock() {
        let mut cache = LruCache::new(4, false);
        filled(&mut cache, 1);
        filled(&mut cache, 2);
        assert_eq!(cache.request(id(7), 5, SimTime::from_secs(1)), Lookup::Miss);
        let waiters = cache.cold_restart();
        assert_eq!(waiters, vec![Waiter { user: 5, requested_at: SimTime::from_secs(1) }]);
        assert!(cache.is_empty() && cache.inflight() == 0);
        // Post-restart fills behave normally (monotonic recency clock).
        filled(&mut cache, 3);
        assert!(matches!(cache.request(id(3), 0, SimTime::ZERO), Lookup::Hit { .. }));
    }

    #[test]
    fn checkpoint_round_trip_preserves_behaviour() {
        let mut cache = LruCache::new(2, true);
        filled(&mut cache, 1);
        for _ in 0..3 {
            cache.request(id(1), 0, SimTime::ZERO);
        }
        filled(&mut cache, 2);
        assert_eq!(cache.request(id(8), 4, SimTime::from_secs(2)), Lookup::Miss);
        assert_eq!(cache.request(id(8), 5, SimTime::from_secs(3)), Lookup::Delayed);
        let mut c = Ckpt::save("test");
        cache.ckpt(&mut c, 16, 16, 16).unwrap();
        let text = c.finish();
        let mut restored = LruCache::new(2, true);
        let mut c = Ckpt::load(&text, "test").unwrap();
        restored.ckpt(&mut c, 16, 16, 16).unwrap();
        c.done().unwrap();
        assert_eq!(restored.len(), cache.len());
        assert_eq!(restored.inflight(), 1);
        // The in-flight fetch still carries both waiters…
        let (waiters, evicted) = restored.fill(id(8), 9, SimTime::from_secs(4));
        let (expect_waiters, expect_evicted) = cache.fill(id(8), 9, SimTime::from_secs(4));
        assert_eq!(waiters, expect_waiters);
        // …and the MAD eviction decision sees identical uses/recency state.
        assert_eq!(evicted, expect_evicted);
    }

    #[test]
    #[should_panic(expected = "zero-capacity cache")]
    fn zero_capacity_is_rejected() {
        LruCache::new(0, false);
    }

    /// One scripted cache operation, generated by proptest.
    #[derive(Debug, Clone)]
    enum Op {
        /// A user request for popularity rank `slot`.
        Request { slot: u32, user: u32 },
        /// Fill the `nth` (mod live count) in-flight fetch.
        Fill { nth: usize },
        /// Invalidate rank `slot` (a serve-time revalidation).
        Invalidate { slot: u32 },
    }

    fn op_strategy(slots: u32) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..slots, 0..8u32).prop_map(|(slot, user)| Op::Request { slot, user }),
            (0..slots, 0..8u32).prop_map(|(slot, user)| Op::Request { slot, user }),
            (0..1_024usize).prop_map(|nth| Op::Fill { nth }),
            (0..slots).prop_map(|slot| Op::Invalidate { slot }),
        ]
    }

    proptest! {
        /// Drives an [`LruCache`] through arbitrary interleavings of
        /// requests, fills, and invalidations, checking after every step:
        /// capacity is never exceeded, hit + delayed + miss always equals
        /// requests, and every queued waiter is released exactly once, by
        /// the fill of exactly the fetch that queued it.
        #[test]
        fn lru_invariants_hold_under_arbitrary_interleavings(
            capacity in 1..6usize,
            mad in (0..2u8).prop_map(|b| b == 1),
            ops in proptest::collection::vec(op_strategy(12), 1..120),
        ) {
            let mut cache = LruCache::new(capacity, mad);
            let mut now = SimTime::ZERO;
            // Expected waiters per in-flight fetch, in queue order.
            let mut pending: BTreeMap<ObjectId, Vec<u32>> = BTreeMap::new();
            let (mut requests, mut hits, mut delayed, mut misses) = (0u64, 0u64, 0u64, 0u64);
            let mut queued = 0u64;
            let mut released = 0u64;
            for op in ops {
                now += cdnc_simcore::SimDuration::from_micros(1_000);
                match op {
                    Op::Request { slot, user } => {
                        requests += 1;
                        match cache.request(id(slot), user, now) {
                            Lookup::Hit { .. } => hits += 1,
                            Lookup::Delayed => {
                                delayed += 1;
                                queued += 1;
                                pending
                                    .get_mut(&id(slot))
                                    .expect("delayed implies in flight")
                                    .push(user);
                            }
                            Lookup::Miss => {
                                misses += 1;
                                queued += 1;
                                prop_assert!(pending.insert(id(slot), vec![user]).is_none());
                            }
                        }
                    }
                    Op::Fill { nth } => {
                        let Some(&fetch) = pending.keys().nth(nth % pending.len().max(1)) else {
                            continue;
                        };
                        let expected = pending.remove(&fetch).unwrap();
                        let (waiters, _evicted) = cache.fill(fetch, 0, now);
                        released += waiters.len() as u64;
                        let got: Vec<u32> = waiters.iter().map(|w| w.user).collect();
                        prop_assert_eq!(
                            got, expected,
                            "a fill must release exactly the waiters its fetch queued, in order"
                        );
                    }
                    Op::Invalidate { slot } => {
                        cache.invalidate(id(slot));
                    }
                }
                prop_assert!(cache.len() <= cache.capacity(), "capacity must never be exceeded");
                prop_assert_eq!(cache.inflight(), pending.len());
                prop_assert_eq!(hits + delayed + misses, requests);
            }
            // Every waiter is accounted for: released by exactly one fill,
            // or still queued behind a fetch we never filled.
            let still_queued: u64 = pending.values().map(|w| w.len() as u64).sum();
            prop_assert_eq!(released + still_queued, queued);
        }
    }

    /// One scripted operation for the differential test.
    #[derive(Debug, Clone)]
    enum DiffOp {
        Request {
            id: ObjectId,
            user: u32,
        },
        /// Fill the `nth` (mod live count) in-flight fetch at `snap`.
        Fill {
            nth: usize,
            snap: u32,
        },
        Invalidate {
            id: ObjectId,
        },
        Abort,
        ColdRestart,
        /// Save, then continue from a freshly loaded copy.
        Reload,
    }

    fn diff_op() -> impl Strategy<Value = DiffOp> {
        // Few slots and several generations each: dead generations of a
        // churned slot stay cached beside the live one.
        let id = || (0..6u32, 0..3u32).prop_map(|(slot, gen)| ObjectId { slot, gen });
        let request = || (id(), 0..8u32).prop_map(|(id, user)| DiffOp::Request { id, user });
        let fill =
            || (0..64usize, 0..BOUND as u32).prop_map(|(nth, snap)| DiffOp::Fill { nth, snap });
        // Arms are drawn uniformly: requests and fills are repeated so the
        // script mostly fills and hits, with a restart or reload now and then.
        prop_oneof![
            request(),
            request(),
            request(),
            request(),
            fill(),
            fill(),
            fill(),
            id().prop_map(|id| DiffOp::Invalidate { id }),
            Just(DiffOp::Abort),
            Just(DiffOp::ColdRestart),
            Just(DiffOp::Reload),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        /// Drives [`LruCache`] and the map-based [`Reference`] through the
        /// same script — requests, fills, invalidations, inflight aborts,
        /// cold restarts and checkpoint round trips, plain LRU and MAD,
        /// capacities on both sides of the MAD window — and requires the
        /// same lookup, waiter order, evicted id and checkpoint text after
        /// every step.
        #[test]
        fn slab_cache_matches_the_reference_model(
            capacity in 1..12usize,
            mad in (0..2u8).prop_map(|b| b == 1),
            ops in proptest::collection::vec(diff_op(), 1..200),
        ) {
            let mut cache = LruCache::new(capacity, mad);
            let mut model = Reference::new(capacity, mad);
            let mut now = SimTime::ZERO;
            for op in ops {
                now += cdnc_simcore::SimDuration::from_micros(1_000);
                match op {
                    DiffOp::Request { id, user } => {
                        prop_assert_eq!(cache.request(id, user, now), model.request(id, user, now));
                    }
                    DiffOp::Fill { nth, snap } => {
                        let Some(&id) = model.inflight.keys().nth(nth % model.inflight.len().max(1))
                        else {
                            continue;
                        };
                        prop_assert!(cache.is_fetching(id));
                        let (waiters, evicted) = cache.fill(id, snap, now);
                        let (want_waiters, want_evicted) = model.fill(id, snap);
                        prop_assert_eq!(waiters, &want_waiters[..]);
                        prop_assert_eq!(evicted, want_evicted);
                    }
                    DiffOp::Invalidate { id } => {
                        prop_assert_eq!(cache.invalidate(id), model.invalidate(id));
                    }
                    DiffOp::Abort => prop_assert_eq!(cache.abort_inflight(), model.abort_inflight()),
                    DiffOp::ColdRestart => {
                        prop_assert_eq!(cache.cold_restart(), model.cold_restart());
                    }
                    DiffOp::Reload => {
                        let text = ckpt_text(&mut cache);
                        cache = LruCache::new(capacity, mad);
                        let mut c = Ckpt::load(&text, "test").unwrap();
                        cache.ckpt(&mut c, BOUND, BOUND, BOUND).unwrap();
                        c.done().unwrap();
                    }
                }
                prop_assert_eq!(ckpt_text(&mut cache), model.ckpt_text());
                prop_assert_eq!((cache.len(), cache.inflight()), (model.entries.len(), model.inflight.len()));
            }
        }
    }
}
