//! A sharded, concurrently readable plan-cache image shared across
//! compile sessions.
//!
//! The autotuner used to keep its in-process cache behind one global
//! `Mutex<HashMap<..>>` held for the *entire* tuning loop — so a slow
//! calibration sweep on one kernel serialized every unrelated cache
//! lookup in the process (ISSUE 6 satellite 2). [`SharedPlanCache`]
//! replaces it with:
//!
//! * **sharding** — keys are distributed over [`SHARDS`] independent
//!   shards by FNV-1a hash, so writers to different shards never contend;
//! * **RCU-style snapshot reads** — each shard publishes an immutable
//!   `Arc<BTreeMap>` snapshot; a read clones the `Arc` (one refcount
//!   increment under a momentary read lock) and walks the map with no
//!   lock held. A reader is therefore never blocked behind a calibration
//!   sweep or a writer rebuilding the map;
//! * **serialized, rare writes** — a writer clones the current snapshot,
//!   applies its update and swaps the new `Arc` in; a per-shard write
//!   mutex makes the read-modify-publish cycle atomic without ever
//!   making readers wait on it.
//!
//! Hit/miss counters are maintained with relaxed atomics so the compile
//! server's `/stats` endpoint can report a live plan-cache hit rate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use fsc_ir::hash::Fnv64;

use crate::plancache::{PlanCache, PlanRecord};

/// Shard count (power of two; keys spread by FNV-1a hash).
pub const SHARDS: usize = 16;

/// FNV-1a over the key selects the shard.
fn shard_index(key: &str) -> usize {
    let mut h = Fnv64::new();
    h.write(key.as_bytes());
    (h.finish() as usize) & (SHARDS - 1)
}

/// One shard: an immutable published snapshot plus a writer mutex.
struct Shard {
    /// The current snapshot. Readers hold the read lock only long enough
    /// to clone the `Arc`; writers hold the write lock only long enough
    /// to swap in an already-built replacement map.
    snap: RwLock<Arc<BTreeMap<String, PlanRecord>>>,
    /// Serialises the clone → modify → publish cycle between writers.
    write: Mutex<()>,
}

impl Default for Shard {
    fn default() -> Self {
        Self {
            snap: RwLock::new(Arc::new(BTreeMap::new())),
            write: Mutex::new(()),
        }
    }
}

impl Shard {
    /// The current immutable snapshot (read-side critical section: one
    /// `Arc` clone).
    fn snapshot(&self) -> Arc<BTreeMap<String, PlanRecord>> {
        self.snap.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Apply `update` to a private copy of the map and publish it.
    fn update(&self, update: impl FnOnce(&mut BTreeMap<String, PlanRecord>)) {
        let _w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        // Build the replacement outside the readers' lock.
        let mut next = (*self.snapshot()).clone();
        update(&mut next);
        let next = Arc::new(next);
        *self.snap.write().unwrap_or_else(|e| e.into_inner()) = next;
    }
}

/// A sharded plan cache shared by every session of a process (and by the
/// compile server's worker pool). See the module docs for the concurrency
/// design.
pub struct SharedPlanCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedPlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache seeded from an on-disk image.
    pub fn from_cache(image: PlanCache) -> Self {
        let cache = Self::new();
        cache.merge(image);
        cache
    }

    fn shard(&self, key: &str) -> &Shard {
        &self.shards[shard_index(key)]
    }

    /// Look up a fingerprint. Never blocks behind writers or sweeps; the
    /// hit/miss counters feed the server's cache-hit-rate metric.
    pub fn get(&self, key: &str) -> Option<PlanRecord> {
        let found = self.shard(key).snapshot().get(key).cloned();
        match found {
            Some(r) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) one record.
    pub fn insert(&self, key: String, record: PlanRecord) {
        self.shard(&key).update(move |m| {
            m.insert(key, record);
        });
    }

    /// Union an on-disk image into the shared cache (incoming entries win
    /// on identical keys).
    pub fn merge(&self, image: PlanCache) {
        // Group by shard first so each shard republishes once.
        let mut per_shard: Vec<Vec<(String, PlanRecord)>> =
            (0..SHARDS).map(|_| Vec::new()).collect();
        for (k, v) in image.entries {
            per_shard[shard_index(&k)].push((k, v));
        }
        for (shard, entries) in self.shards.iter().zip(per_shard) {
            if entries.is_empty() {
                continue;
            }
            shard.update(move |m| {
                for (k, v) in entries {
                    m.insert(k, v);
                }
            });
        }
    }

    /// A flat copy of every entry (for persistence: the result is saved
    /// through [`PlanCache::save`], which merge-unions with the disk).
    pub fn to_cache(&self) -> PlanCache {
        let mut out = PlanCache::default();
        for shard in &self.shards {
            for (k, v) in shard.snapshot().iter() {
                out.entries.insert(k.clone(), v.clone());
            }
        }
        out
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.snapshot().len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    fn record(micros: f64) -> PlanRecord {
        PlanRecord {
            tiles: vec![0, 16, 0],
            unroll: 4,
            slabs: 1,
            micros,
        }
    }

    #[test]
    fn shard_selection_is_pinned() {
        let picked: Vec<usize> = ["", "a", "key-7:8x8:t1", "00c0ffee:16x16:t2"]
            .iter()
            .map(|k| shard_index(k))
            .collect();
        assert_eq!(picked, vec![5, 12, 11, 4]);
    }

    #[test]
    fn insert_get_round_trip_across_shards() {
        let c = SharedPlanCache::new();
        for i in 0..100 {
            c.insert(format!("key-{i}:8x8:t1"), record(i as f64));
        }
        assert_eq!(c.len(), 100);
        for i in 0..100 {
            let r = c.get(&format!("key-{i}:8x8:t1")).unwrap();
            assert_eq!(r.micros, i as f64);
        }
        assert!(c.get("absent").is_none());
        let (hits, misses) = c.stats();
        assert_eq!(hits, 100);
        assert_eq!(misses, 1);
    }

    #[test]
    fn merge_and_flatten_round_trip() {
        let mut image = PlanCache::default();
        for i in 0..20 {
            image.entries.insert(format!("m{i}"), record(i as f64));
        }
        let c = SharedPlanCache::from_cache(image.clone());
        assert_eq!(c.to_cache().entries, image.entries);
    }

    /// Readers make progress while a writer is mid-update: the published
    /// snapshot stays readable the whole time, so a reader never waits
    /// for a slow writer (the RCU property the autotuner relies on).
    #[test]
    fn reads_are_not_blocked_by_a_slow_writer() {
        let c = Arc::new(SharedPlanCache::new());
        c.insert("hot".into(), record(1.0));
        let writing = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));

        let (cw, ww, dw) = (c.clone(), writing.clone(), done.clone());
        let writer = std::thread::spawn(move || {
            cw.shard("hot").update(|m| {
                ww.store(true, Ordering::SeqCst);
                // A deliberately slow rebuild (stands in for a calibration
                // sweep happening between read and publish).
                std::thread::sleep(Duration::from_millis(200));
                m.insert("hot".into(), record(2.0));
            });
            dw.store(true, Ordering::SeqCst);
        });

        // Wait until the writer is inside its slow update.
        while !writing.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        let t0 = Instant::now();
        let r = c.get("hot").expect("snapshot stays readable");
        let read_latency = t0.elapsed();
        assert!(
            !done.load(Ordering::SeqCst) || read_latency < Duration::from_millis(100),
            "reader should not have waited for the writer"
        );
        assert!(
            read_latency < Duration::from_millis(100),
            "read took {read_latency:?} — blocked behind the writer"
        );
        // The old value is visible until the writer publishes.
        assert_eq!(r.micros, 1.0);
        writer.join().unwrap();
        assert_eq!(c.get("hot").unwrap().micros, 2.0);
    }

    #[test]
    fn concurrent_writers_to_distinct_keys_all_land() {
        let c = Arc::new(SharedPlanCache::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        c.insert(format!("w{t}-k{i}"), record((t * 100 + i) as f64));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 8 * 50);
    }
}
