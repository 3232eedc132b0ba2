//! The bounded map behind every cache that outlives a request. The caches
//! sit behind [`sr_obs::lock_recover`], re-exported as
//! `sr_engine::lock_recover`.

use std::collections::HashMap;

/// A string-keyed map of at most `cap` entries that evicts the entry least
/// recently read or written, by a logical clock stamped on every hit and
/// insert. The O(n) victim scan runs only on overflow.
#[derive(Debug)]
pub struct Lru<V> {
    map: HashMap<String, (V, u64)>,
    clock: u64,
    cap: usize,
}

impl<V> Lru<V> {
    /// An empty map holding at most `cap` entries.
    pub fn new(cap: usize) -> Lru<V> {
        Lru {
            map: HashMap::new(),
            clock: 0,
            cap,
        }
    }

    /// The entry under `key`, marked most recently used.
    pub fn get(&mut self, key: &str) -> Option<&mut V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|(v, used)| {
            *used = clock;
            v
        })
    }

    /// Insert or replace; a new key evicts the least-recently-used entry
    /// from a full map. Returns the number evicted (0 or 1).
    pub fn insert(&mut self, key: String, value: V) -> u64 {
        let full = !self.map.contains_key(&key) && self.map.len() >= self.cap;
        let evicted = u64::from(full && self.pop_lru().is_some());
        self.clock += 1;
        self.map.insert(key, (value, self.clock));
        evicted
    }

    /// Remove the entry under `key`.
    pub fn remove(&mut self, key: &str) -> Option<V> {
        self.map.remove(key).map(|(v, _)| v)
    }

    /// Remove the least recently used entry.
    pub fn pop_lru(&mut self) -> Option<V> {
        let victim = self
            .map
            .iter()
            .min_by_key(|(_, (_, used))| *used)
            .map(|(k, _)| k.clone())?;
        self.remove(&victim)
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff nothing is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}
