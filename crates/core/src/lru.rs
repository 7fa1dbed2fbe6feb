//! The workspace's one sharded LRU: the facade's embed cache
//! (`EmbedKey → SharedEmbedding`) and serve's hot cache
//! (`CacheKey → latency_ms`) are both a [`ShardedLru`].
//!
//! Shards keep lock contention local: two requests for different keys
//! almost never serialize on the same mutex. Each shard's LRU list is
//! intrusive over a slab (`Vec` of entries linked by index), so promotion
//! on hit and eviction on insert are O(1) with no per-entry allocation.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Shard count of both caches (rounded up to a power of two inside).
pub const CACHE_SHARDS: usize = 8;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

struct Shard<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let &i = self.map.get(key)?;
        self.detach(i);
        self.push_front(i);
        Some(self.slab[i].value.clone())
    }

    fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            self.detach(i);
            self.push_front(i);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.detach(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
        }
        let entry = Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slab[i] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.push_front(slot);
        self.map.insert(key, slot);
    }
}

/// Thread-safe sharded LRU of `K → V`. Values are handed out by clone, so
/// `V` should be cheap to clone (`f64`, `Arc<_>`). A capacity of zero
/// disables the cache entirely: every `get` misses and `insert` is a
/// no-op.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// `capacity` total entries spread over `shards` independent LRUs
    /// (shard count is rounded up to a power of two). `capacity == 0`
    /// disables caching.
    pub fn new(capacity: usize, shards: usize) -> Self {
        if capacity == 0 {
            return ShardedLru { shards: Vec::new() };
        }
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
        }
    }

    fn shard_of(&self, key: &K) -> Option<&Mutex<Shard<K, V>>> {
        if self.shards.is_empty() {
            return None;
        }
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        Some(&self.shards[(h.finish() as usize) & (self.shards.len() - 1)])
    }

    /// Look up and promote to most-recently-used.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard_of(key)?.lock().get(key)
    }

    /// Insert or refresh; evicts the shard's LRU entry when full.
    pub fn insert(&self, key: K, value: V) {
        if let Some(shard) = self.shard_of(&key) {
            shard.lock().insert(key, value);
        }
    }

    /// Entries currently cached (sums shard sizes; racy under writes).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_promotes_and_insert_evicts_lru() {
        // Single shard of capacity 2 makes the eviction order observable.
        let cache = ShardedLru::new(2, 1);
        cache.insert(1u64, 10.0);
        cache.insert(2, 20.0);
        assert_eq!(cache.get(&1), Some(10.0)); // 1 is now MRU
        cache.insert(3, 30.0); // evicts 2, the LRU
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(10.0));
        assert_eq!(cache.get(&3), Some(30.0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_without_eviction() {
        let cache = ShardedLru::new(2, 1);
        cache.insert(1u64, 10.0);
        cache.insert(2, 20.0);
        cache.insert(1, 11.0); // refresh: 1 is MRU, nothing evicted
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(11.0));
        assert_eq!(cache.get(&2), Some(20.0));
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ShardedLru::new(0, 8);
        cache.insert(1u64, Arc::new(vec![1.0f32; 4]));
        assert!(cache.get(&1).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn shards_stay_consistent_under_concurrency() {
        // Capacity 2048 over 8 shards = 256 per shard: even a worst-case
        // skew of the 200 distinct keys cannot overflow one shard.
        let cache = Arc::new(ShardedLru::new(2048, CACHE_SHARDS));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = t * 1000 + i % 50;
                        cache.insert(k, i as f64);
                        let _ = cache.get(&k);
                    }
                });
            }
        });
        // 4 threads x 50 distinct keys: nothing evicted.
        assert_eq!(cache.len(), 200);
    }
}
