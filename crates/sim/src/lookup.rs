//! [`LookupMap`] — the only place in the workspace that names `HashMap`.

#![expect(
    clippy::disallowed_types,
    reason = "the one module allowed to name HashMap: LookupMap has no iteration, so hash order cannot leak"
)]

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};

/// A hash map that can be probed but never walked.
///
/// `RandomState` is keyed per process, so anything derived from the order
/// of a `HashMap` — a report, a digest, a `{:?}` rendering — differs run
/// over run. `clippy.toml` disallows `HashMap`/`HashSet` workspace-wide and
/// this module is the one exception: `LookupMap` keeps the O(1) probe and
/// offers **no** way to observe entry order — no `iter`, `keys`, `values`,
/// `drain` or `IntoIterator`, and a `Debug` that prints only the length.
/// Anything that must be walked belongs in a `BTreeMap` or a sorted `Vec`.
///
/// Each of these is a compile error, not a review comment:
///
/// ```compile_fail,E0277
/// let mut m = dynareg_sim::LookupMap::new();
/// m.insert(1u64, "a");
/// for _ in &m {}
/// ```
/// ```compile_fail,E0599
/// let mut m = dynareg_sim::LookupMap::new();
/// m.insert(1u64, "a");
/// let _ = m.iter();
/// ```
/// ```compile_fail,E0599
/// let mut m = dynareg_sim::LookupMap::new();
/// m.insert(1u64, "a");
/// let _ = m.keys();
/// ```
/// ```compile_fail,E0599
/// let mut m = dynareg_sim::LookupMap::new();
/// m.insert(1u64, "a");
/// let _ = m.drain();
/// ```
///
/// while the same map probed by key compiles and runs:
///
/// ```
/// let mut m = dynareg_sim::LookupMap::new();
/// m.insert(1u64, "a");
/// assert_eq!(m.get(&1), Some(&"a"));
/// assert_eq!(format!("{m:?}"), "LookupMap { len: 1 }");
/// ```
#[derive(Clone)]
pub struct LookupMap<K, V, S = RandomState>(HashMap<K, V, S>);

impl<K, V> LookupMap<K, V> {
    /// An empty map with the standard hasher.
    pub fn new() -> LookupMap<K, V> {
        LookupMap(HashMap::new())
    }
}

impl<K, V, S: Default> Default for LookupMap<K, V, S> {
    fn default() -> LookupMap<K, V, S> {
        LookupMap(HashMap::default())
    }
}

impl<K, V, S> LookupMap<K, V, S> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<K: Eq + Hash, V, S: BuildHasher> LookupMap<K, V, S> {
    /// Maps `key` to `value`, returning the value it replaced, if any.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Maps `key` to `value` unless `key` is already mapped (first wins).
    #[inline]
    pub fn insert_if_absent(&mut self, key: K, value: V) {
        self.0.entry(key).or_insert(value);
    }

    /// The value `key` maps to.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    /// Whether `key` is mapped.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.0.contains_key(key)
    }

    /// Unmaps `key`, returning its value, if any.
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }
}

/// Prints the length only — never an entry, so `{:?}` of any struct that
/// embeds a `LookupMap` is the same in every process.
impl<K, V, S> fmt::Debug for LookupMap<K, V, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LookupMap")
            .field("len", &self.0.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The same walk over `World`'s `NodeIdHasher` state lives in
    // `testkit::world::tests`, next to the hasher.
    #[test]
    fn every_method_with_the_default_state() {
        let mut m: LookupMap<u64, &str> = LookupMap::new();
        assert!(m.is_empty() && m.get(&1).is_none() && !m.contains_key(&1));
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(1, "b"), Some("a"), "insert replaces");
        m.insert_if_absent(2, "c");
        m.insert_if_absent(2, "d");
        assert_eq!(
            (m.get(&1), m.get(&2)),
            (Some(&"b"), Some(&"c")),
            "first wins"
        );
        assert!(m.contains_key(&2) && m.len() == 2 && !m.is_empty());
        let copy = m.clone();
        assert_eq!((m.remove(&1), m.remove(&1)), (Some("b"), None));
        assert_eq!(
            (m.len(), copy.get(&1)),
            (1, Some(&"b")),
            "clones are independent"
        );
        assert!(LookupMap::<u64, u64>::default().is_empty());
        assert_eq!(
            format!("{copy:?}"),
            "LookupMap { len: 2 }",
            "no entry is printed"
        );
    }
}
