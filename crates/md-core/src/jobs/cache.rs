//! The artifact cache: prepared inputs keyed by spec hash.
//!
//! Repeated variants of one scenario (and repeated submissions of one
//! scenario) rebuild the same inputs over and over: the perturbed lattice,
//! the packed parameter tables, the neighbor-list capacity the system
//! settles at. All of these are deterministic functions of the spec, so the
//! engine caches them under an [`ArtifactKey`] — a 64-bit FNV-1a hash of
//! the spec fields that *define* the artifact — and hands out shared
//! [`Arc`] clones. Because every cached value is the output of a
//! deterministic builder, a cache hit is bit-identical to a rebuild; the
//! bitwise-equivalence suite in `tests/job_engine.rs` holds the engine to
//! that.
//!
//! The map is keyed by `(ArtifactKey, TypeId)` so two artifact families may
//! share a key prefix without aliasing: a lattice and a capacity hint for
//! the same system never collide even if a caller hashes the same fields.

use crate::runtime::lock_recover;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A 64-bit content hash identifying one cached artifact.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl ArtifactKey {
    /// Hash raw bytes (FNV-1a).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        ArtifactKey(h)
    }

    /// Hash a sequence of string parts with separators, so `["ab", "c"]`
    /// and `["a", "bc"]` hash differently.
    pub fn of(parts: &[&str]) -> Self {
        let mut key = ArtifactKey(FNV_OFFSET);
        for part in parts {
            key = key.and(part);
        }
        key
    }

    /// Extend the key with one more part (order-sensitive).
    pub fn and(self, part: &str) -> Self {
        let mut h = self.0;
        for &b in part.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        // Separator byte: keeps part boundaries in the digest.
        h ^= 0x1f;
        h = h.wrapping_mul(FNV_PRIME);
        ArtifactKey(h)
    }

    /// The raw 64-bit digest.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Hit/miss/entry counters, reported in `ScenarioReport` JSON and
/// `tersoff-serve`'s `/metrics`, so cache effectiveness is a gated,
/// visible metric.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries.
    pub entries: usize,
    /// Lookups that found a prepared artifact.
    pub hits: u64,
    /// Lookups that had to build (or found nothing).
    pub misses: u64,
    /// Entries shed by the LRU budget so far.
    pub evictions: u64,
    /// Approximate bytes held by live entries (as declared at insertion —
    /// `size_of::<T>()` unless the caller measured deeper).
    pub resident_bytes: usize,
}

/// The retention budget of an [`ArtifactCache`]: evict least-recently-used
/// entries once *either* bound is exceeded. The default is effectively
/// unbounded — the right call for a one-shot batch, where the cache dies
/// with the invocation. A long-running server passes real bounds
/// ([`ArtifactCache::with_budget`]) so the cache cannot become a leak.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum live entries (min 1).
    pub max_entries: usize,
    /// Maximum approximate resident bytes.
    pub max_bytes: usize,
}

impl Default for CacheBudget {
    fn default() -> Self {
        CacheBudget {
            max_entries: usize::MAX,
            max_bytes: usize::MAX,
        }
    }
}

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<(ArtifactKey, TypeId), Entry>,
    tick: u64,
    resident_bytes: usize,
    evictions: u64,
}

impl CacheState {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Shed least-recently-used entries until within budget, never
    /// touching `keep` (the entry the caller just inserted or returned).
    fn enforce(&mut self, budget: &CacheBudget, keep: (ArtifactKey, TypeId)) {
        while self.entries.len() > budget.max_entries || self.resident_bytes > budget.max_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else {
                break; // only `keep` is left — an oversized single entry stays
            };
            if let Some(gone) = self.entries.remove(&victim) {
                self.resident_bytes -= gone.bytes;
                self.evictions += 1;
            }
        }
    }
}

/// A concurrent, type-heterogeneous artifact store.
///
/// [`ArtifactCache::get_or_insert_with`] holds the map lock across the
/// build closure, so each artifact is built exactly once no matter how many
/// jobs race for it — the right trade for artifacts that are expensive to
/// build and cheap to hold (a lattice, a parameter table). Retention is
/// governed by a [`CacheBudget`]: unbounded by default (a batch cache dies
/// with its invocation), LRU-evicting under the entry/byte bounds a
/// long-running server configures.
#[derive(Default)]
pub struct ArtifactCache {
    state: Mutex<CacheState>,
    budget: CacheBudget,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty, effectively unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that LRU-evicts beyond `budget`.
    pub fn with_budget(budget: CacheBudget) -> Self {
        ArtifactCache {
            budget: CacheBudget {
                max_entries: budget.max_entries.max(1),
                max_bytes: budget.max_bytes,
            },
            ..Self::default()
        }
    }

    /// The configured retention budget.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// The artifact under `key`, building (and caching) it on first use.
    /// Accounted at `size_of::<T>()`; use
    /// [`ArtifactCache::get_or_insert_measured`] when the artifact owns
    /// significant heap memory.
    pub fn get_or_insert_with<T, F>(&self, key: ArtifactKey, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.get_or_insert_measured(key, build, |_| std::mem::size_of::<T>())
    }

    /// [`ArtifactCache::get_or_insert_with`] with an explicit size
    /// estimate: `measure` sees the freshly built value and returns the
    /// approximate bytes it holds, which is what the byte budget and the
    /// `resident_bytes` counter account.
    pub fn get_or_insert_measured<T, F, M>(&self, key: ArtifactKey, build: F, measure: M) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
        M: FnOnce(&T) -> usize,
    {
        let full_key = (key, TypeId::of::<T>());
        let mut state = lock_recover(&self.state);
        let tick = state.next_tick();
        if let Some(found) = state.entries.get_mut(&full_key) {
            found.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found
                .value
                .clone()
                .downcast::<T>()
                .expect("cache entry type is pinned by its TypeId key");
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build());
        let bytes = measure(&built);
        state.entries.insert(
            full_key,
            Entry {
                value: built.clone(),
                bytes,
                last_used: tick,
            },
        );
        state.resident_bytes += bytes;
        state.enforce(&self.budget, full_key);
        built
    }

    /// Look up without building. Counts as a hit or a miss.
    pub fn get<T: Send + Sync + 'static>(&self, key: ArtifactKey) -> Option<Arc<T>> {
        let mut state = lock_recover(&self.state);
        let tick = state.next_tick();
        match state.entries.get_mut(&(key, TypeId::of::<T>())) {
            Some(found) => {
                found.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(
                    found
                        .value
                        .clone()
                        .downcast::<T>()
                        .expect("cache entry type is pinned by its TypeId key"),
                )
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert or overwrite (for artifacts that evolve, like capacity
    /// hints). Does not touch the hit/miss counters. Accounted at
    /// `size_of::<T>()`; see [`ArtifactCache::put_measured`].
    pub fn put<T: Send + Sync + 'static>(&self, key: ArtifactKey, value: T) -> Arc<T> {
        let bytes = std::mem::size_of::<T>();
        self.put_measured(key, value, bytes)
    }

    /// [`ArtifactCache::put`] with an explicit byte estimate.
    pub fn put_measured<T: Send + Sync + 'static>(
        &self,
        key: ArtifactKey,
        value: T,
        bytes: usize,
    ) -> Arc<T> {
        let full_key = (key, TypeId::of::<T>());
        let stored = Arc::new(value);
        let mut state = lock_recover(&self.state);
        let tick = state.next_tick();
        if let Some(old) = state.entries.insert(
            full_key,
            Entry {
                value: stored.clone(),
                bytes,
                last_used: tick,
            },
        ) {
            state.resident_bytes -= old.bytes;
        }
        state.resident_bytes += bytes;
        state.enforce(&self.budget, full_key);
        stored
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let state = lock_recover(&self.state);
        CacheStats {
            entries: state.entries.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: state.evictions,
            resident_bytes: state.resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_then_hits() {
        let cache = ArtifactCache::new();
        let key = ArtifactKey::of(&["lattice", "silicon", "4x4x4"]);
        let mut builds = 0;
        for _ in 0..3 {
            let v = cache.get_or_insert_with(key, || {
                builds += 1;
                vec![1.0f64, 2.0, 3.0]
            });
            assert_eq!(v.len(), 3);
        }
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 2, 1));
    }

    #[test]
    fn same_key_different_types_do_not_alias() {
        let cache = ArtifactCache::new();
        let key = ArtifactKey::of(&["system"]);
        cache.put(key, 42u64);
        cache.put(key, "hint".to_string());
        assert_eq!(*cache.get::<u64>(key).unwrap(), 42);
        assert_eq!(*cache.get::<String>(key).unwrap(), "hint");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn put_overwrites() {
        let cache = ArtifactCache::new();
        let key = ArtifactKey::of(&["capacity"]);
        cache.put(key, 100usize);
        cache.put(key, 250usize);
        assert_eq!(*cache.get::<usize>(key).unwrap(), 250);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn entry_budget_evicts_least_recently_used() {
        let cache = ArtifactCache::with_budget(CacheBudget {
            max_entries: 2,
            max_bytes: usize::MAX,
        });
        let (a, b, c) = (
            ArtifactKey::of(&["a"]),
            ArtifactKey::of(&["b"]),
            ArtifactKey::of(&["c"]),
        );
        cache.put(a, 1u32);
        cache.put(b, 2u32);
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        assert_eq!(*cache.get::<u32>(a).unwrap(), 1);
        cache.put(c, 3u32);
        assert!(cache.get::<u32>(b).is_none(), "LRU entry must be evicted");
        assert_eq!(*cache.get::<u32>(a).unwrap(), 1);
        assert_eq!(*cache.get::<u32>(c).unwrap(), 3);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
    }

    #[test]
    fn byte_budget_accounts_measured_sizes() {
        let cache = ArtifactCache::with_budget(CacheBudget {
            max_entries: usize::MAX,
            max_bytes: 1000,
        });
        let big = ArtifactKey::of(&["big"]);
        let small = ArtifactKey::of(&["small"]);
        cache.get_or_insert_measured(big, || vec![0u8; 600], |v| v.len());
        cache.get_or_insert_measured(small, || vec![0u8; 300], |v| v.len());
        assert_eq!(cache.stats().resident_bytes, 900);
        // A third entry pushes past 1000 bytes: `big` (LRU) goes.
        cache.get_or_insert_measured(ArtifactKey::of(&["next"]), || vec![0u8; 300], |v| v.len());
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, 600);
        assert_eq!(stats.evictions, 1);
        assert!(cache.get::<Vec<u8>>(big).is_none());
        assert!(cache.get::<Vec<u8>>(small).is_some());
    }

    #[test]
    fn an_oversized_entry_survives_alone() {
        // The just-inserted artifact is never its own victim: a single
        // entry larger than the whole byte budget stays resident (the
        // caller needs it regardless) and only neighbors are shed.
        let cache = ArtifactCache::with_budget(CacheBudget {
            max_entries: 8,
            max_bytes: 100,
        });
        let key = ArtifactKey::of(&["huge"]);
        let v = cache.get_or_insert_measured(key, || vec![0u8; 500], |v| v.len());
        assert_eq!(v.len(), 500);
        assert_eq!(cache.stats().entries, 1);
        assert!(cache.get::<Vec<u8>>(key).is_some());
    }

    #[test]
    fn put_overwrite_rebalances_resident_bytes() {
        let cache = ArtifactCache::new();
        let key = ArtifactKey::of(&["hint"]);
        cache.put_measured(key, vec![0u8; 100], 100);
        cache.put_measured(key, vec![0u8; 40], 40);
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, 40);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn key_parts_are_boundary_sensitive() {
        assert_ne!(ArtifactKey::of(&["ab", "c"]), ArtifactKey::of(&["a", "bc"]));
        assert_eq!(
            ArtifactKey::of(&["a", "b"]),
            ArtifactKey::of(&["a"]).and("b")
        );
        assert_ne!(ArtifactKey::from_bytes(b"x"), ArtifactKey::from_bytes(b"y"));
    }
}
