//! Sharded configuration-fingerprint cache.
//!
//! Campaign coverage, checkpoints and replay bundles identify
//! configurations by a stable 64-bit fingerprint of
//! [`crate::system::System::config_key`]. (The explorer's in-memory
//! visited maps key on [`crate::explore::ExploreKey`] instead, which a
//! step can update incrementally; campaign runs use it only to decide
//! which configurations to fingerprint, see "Keyed inserts".) A single
//! `HashSet` behind one lock serialises every worker thread; this
//! cache splits the fingerprint space across `2^k` independently
//! locked shards so concurrent inserts from different shards never
//! contend.
//!
//! Determinism: the fingerprint function is a fixed FNV-1a over the
//! configuration key — no per-process or per-run hash randomisation —
//! so the set of fingerprints (and therefore every count derived from
//! it) is identical across runs and thread counts. The cache never
//! evicts, so `len()` is always the exact count of distinct
//! fingerprints inserted.
//!
//! # Keyed inserts
//!
//! A campaign run fingerprints every configuration it reaches, but most
//! steps reach one already counted, and the full FNV stream over every
//! object and process is the dearest part of a step. So the cache also
//! keeps, in memory only, the set of
//! [`crate::explore::ExploreKey`] values whose fingerprint it already
//! holds: [`FingerprintCache::insert_keyed`] computes a fingerprint
//! only for a key it has not seen, and a run keeps its key up to date
//! per step at the cost of what the step touched. The memo is never
//! persisted: checkpoints, shard payloads and `len()` are the
//! fingerprint set alone.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Stable 64-bit FNV-1a fingerprint of a configuration key.
///
/// Deliberately not `std::hash::DefaultHasher`, whose per-instance
/// randomisation would make fingerprints differ between runs.
pub fn fingerprint(key: &str) -> u64 {
    let mut h = FnvStream::new();
    h.write_bytes(key.as_bytes());
    h.finish()
}

/// A streaming FNV-1a hasher that doubles as a [`fmt::Write`] sink.
///
/// Bytes written into the stream hash exactly as the same bytes
/// concatenated into one string, so a fingerprint streamed through
/// `FnvStream` is bit-identical to [`fingerprint`] of the equivalent
/// formatted key. That identity is what lets
/// [`crate::system::System::config_fingerprint`] replace
/// `fingerprint(&config_key())` with zero allocation. Any writer may
/// feed it: `write!(stream, "{value:?}")` works, and the hot types
/// ([`crate::value::Value::write_key`], [`crate::object::Object::write_key`],
/// the snapshot process adapter) write the same bytes as literal pieces
/// and [`write_u64`]/[`write_i64`] integers without going through
/// `core::fmt`.
#[derive(Clone, Debug)]
pub struct FnvStream {
    state: u64,
}

impl FnvStream {
    /// A fresh hasher at the FNV-1a offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        FnvStream { state: FNV_OFFSET }
    }

    /// Feeds raw bytes through the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for byte in bytes {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl fmt::Write for FnvStream {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Writes `n` in decimal — exactly the bytes `format!("{n}")` renders —
/// straight into `out`, without going through `core::fmt`.
pub fn write_u64<W: fmt::Write + ?Sized>(out: &mut W, mut n: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"))
}

/// Writes `n` in decimal — exactly the bytes `format!("{n}")` renders,
/// `i64::MIN` included — straight into `out`, without `core::fmt`.
pub fn write_i64<W: fmt::Write + ?Sized>(out: &mut W, n: i64) -> fmt::Result {
    if n < 0 {
        out.write_str("-")?;
    }
    write_u64(out, n.unsigned_abs())
}

/// Structural configuration hashing: feed the identity-relevant state of
/// a value into an [`FnvStream`].
///
/// The reference encoding is the value's `Debug` rendering, as
/// materialised by [`crate::system::System::config_key`]. Implementations
/// stream the same bytes without allocating; the hot types write them
/// directly instead of formatting. The golden regression tests and the
/// stream-equals-string property tests check the two against each other,
/// so fingerprints stay bit-identical to `fingerprint(&config_key())`.
pub trait ConfigHash {
    /// Streams this value's configuration identity into `h`.
    fn hash_config(&self, h: &mut FnvStream);

    /// The fingerprint of this value alone.
    fn config_hash(&self) -> u64 {
        let mut h = FnvStream::new();
        self.hash_config(&mut h);
        h.finish()
    }
}

/// The identity hasher for keys that are already well mixed
/// ([`crate::explore::ExploreKey`] values): the explorer's visited maps
/// and the key memo of [`FingerprintCache`] use a key as its own hash.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("keys hash as one u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// A set of already mixed keys, hashed by [`KeyHasher`].
type KeySet = HashSet<u64, BuildHasherDefault<KeyHasher>>;

/// A concurrent set of configuration fingerprints, sharded by hash,
/// with an in-memory memo of the keys whose fingerprint it holds (see
/// [`FingerprintCache::insert_keyed`]).
///
/// # Examples
///
/// ```
/// use rsim_smr::fingerprint::FingerprintCache;
///
/// let cache = FingerprintCache::new(8);
/// assert!(cache.insert("config-a"));
/// assert!(!cache.insert("config-a"));
/// assert!(cache.contains("config-a"));
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Debug)]
pub struct FingerprintCache {
    shards: Box<[Mutex<HashSet<u64>>]>,
    /// The keys [`FingerprintCache::insert_keyed`] has inserted, sharded
    /// like `shards`. Never persisted.
    keys: Box<[Mutex<KeySet>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    /// Cached total size, maintained on successful inserts so `len()`
    /// does not take every shard lock.
    size: AtomicUsize,
}

impl FingerprintCache {
    /// Creates a cache with at least `shards` shards (rounded up to a
    /// power of two, minimum 1).
    pub fn new(shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        FingerprintCache {
            shards: (0..count).map(|_| Mutex::new(HashSet::new())).collect(),
            keys: (0..count).map(|_| Mutex::new(KeySet::default())).collect(),
            mask: count as u64 - 1,
            size: AtomicUsize::new(0),
        }
    }

    /// A cache sized for `threads` worker threads (4 shards per thread
    /// keeps the collision probability per lock acquisition low).
    pub fn for_threads(threads: usize) -> Self {
        FingerprintCache::new(threads.max(1) * 4)
    }

    /// [`FingerprintCache::for_threads`]; a memory budget (`Some`) no
    /// longer exists and panics. Kept only for the benchmark package's
    /// shadow copies of the campaign and service run loops, which call
    /// it with `None`; ROADMAP item 2, the next benchmark change,
    /// deletes it.
    #[doc(hidden)]
    pub fn for_threads_bounded(threads: usize, max_entries: Option<usize>) -> Self {
        assert!(max_entries.is_none(), "the fingerprint cache has no memory budget");
        FingerprintCache::for_threads(threads)
    }

    fn shard(&self, fp: u64) -> &Mutex<HashSet<u64>> {
        &self.shards[self.shard_index(fp)]
    }

    /// The shard of a fingerprint or key. Shard on the high bits: FNV-1a
    /// and the key mixer mix them well, and the low bits then still
    /// select hash buckets inside the shard.
    fn shard_index(&self, hash: u64) -> usize {
        ((hash >> 32) & self.mask) as usize
    }

    /// Inserts the configuration, returning `true` if it was new.
    pub fn insert(&self, key: &str) -> bool {
        self.insert_fingerprint(fingerprint(key))
    }

    /// Inserts a precomputed fingerprint, returning `true` if new.
    pub fn insert_fingerprint(&self, fp: u64) -> bool {
        let new = self.shard(fp).lock().expect("shard lock").insert(fp);
        if new {
            self.size.fetch_add(1, Ordering::Relaxed);
        }
        new
    }

    /// Inserts the fingerprint of the configuration whose in-memory key
    /// (an [`crate::explore::ExploreKey`] value) is `key`, returning
    /// `true` if the fingerprint was new. `fingerprint` runs only the
    /// first time the cache sees `key`; a key seen before returns
    /// `false` at once, its fingerprint already held. Distinct keys of
    /// one fingerprint are counted once, as the fingerprint set decides.
    pub fn insert_keyed(&self, key: u64, fingerprint: impl FnOnce() -> u64) -> bool {
        let keys = &self.keys[self.shard_index(key)];
        if keys.lock().expect("key lock").contains(&key) {
            return false;
        }
        // The key is recorded only once its fingerprint is in the set,
        // so a key found in the memo always means a held fingerprint.
        let new = self.insert_fingerprint(fingerprint());
        keys.lock().expect("key lock").insert(key);
        new
    }

    /// Is the configuration already present?
    pub fn contains(&self, key: &str) -> bool {
        self.contains_fingerprint(fingerprint(key))
    }

    /// Is the fingerprint already present?
    pub fn contains_fingerprint(&self, fp: u64) -> bool {
        self.shard(fp).lock().expect("shard lock").contains(&fp)
    }

    /// Number of distinct configurations inserted (exact: nothing is
    /// ever evicted).
    pub fn len(&self) -> usize {
        self.size.load(Ordering::Relaxed)
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Always `false`: the cache never evicts. Kept only for the
    /// benchmark package's shadow run loops, which copy it into the
    /// `cache_truncated` report field; ROADMAP item 2, the next
    /// benchmark change, deletes it.
    #[doc(hidden)]
    pub fn truncated(&self) -> bool {
        false
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The currently held fingerprints, sorted (deterministic). Used by
    /// campaign checkpoints so a resumed run reconstructs the exact
    /// dedup state.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut all: Vec<u64> = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            all.extend(shard.lock().expect("shard lock").iter().copied());
        }
        all.sort_unstable();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(fingerprint(""), FNV_OFFSET);
    }

    #[test]
    fn streamed_hash_matches_string_fingerprint() {
        use std::fmt::Write;
        // Split writes hash identically to one concatenated key.
        let mut h = FnvStream::new();
        h.write_bytes(b"ab");
        h.write_bytes(b"");
        h.write_bytes(b"c;xyz");
        assert_eq!(h.finish(), fingerprint("abc;xyz"));
        // Formatted writes stream the same bytes fmt would produce.
        let mut h = FnvStream::new();
        write!(h, "{:?};{}", vec![1, 2], 7).unwrap();
        assert_eq!(h.finish(), fingerprint("[1, 2];7"));
        assert_eq!(FnvStream::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn decimal_writers_match_display() {
        let ints = [0, 1, -1, 9, 10, -10, 4_096, i64::MAX, i64::MIN, i64::MIN + 1];
        for n in ints {
            let mut out = String::new();
            write_i64(&mut out, n).unwrap();
            assert_eq!(out, n.to_string());
        }
        for n in [0u64, 7, 10, 99, 100, u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, n).unwrap();
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn insert_deduplicates() {
        let cache = FingerprintCache::new(4);
        assert!(cache.insert("x"));
        assert!(!cache.insert("x"));
        assert!(cache.insert("y"));
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
        assert!(!cache.truncated());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(FingerprintCache::new(0).shard_count(), 1);
        assert_eq!(FingerprintCache::new(3).shard_count(), 4);
        assert_eq!(FingerprintCache::new(8).shard_count(), 8);
        assert_eq!(FingerprintCache::for_threads(3).shard_count(), 16);
    }

    #[test]
    fn concurrent_inserts_count_once_each() {
        let cache = FingerprintCache::for_threads(4);
        let keys: Vec<String> = (0..2000).map(|i| format!("cfg-{i}")).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for key in &keys {
                        cache.insert(key);
                    }
                });
            }
        });
        assert_eq!(cache.len(), keys.len());
        assert!(keys.iter().all(|k| cache.contains(k)));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let cache = FingerprintCache::new(4);
        for fp in [9u64, 3, 7, 1] {
            cache.insert_fingerprint(fp);
        }
        assert_eq!(cache.snapshot(), vec![1, 3, 7, 9]);
    }

    /// A stream of (key, fingerprint) pairs with repeats, where the
    /// key decides the fingerprint and a few distinct keys share one.
    fn keyed_stream() -> Vec<(u64, u64)> {
        (0..4_000u64)
            .map(|i| {
                let key = (i * 7 % 1_500).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (key, (key >> 3) % 1_100)
            })
            .collect()
    }

    #[test]
    fn keyed_inserts_hold_what_fingerprint_inserts_hold() {
        let by_key = FingerprintCache::new(4);
        let by_fingerprint = FingerprintCache::new(4);
        let mut computed = 0;
        for (key, fp) in keyed_stream() {
            let new = by_key.insert_keyed(key, || {
                computed += 1;
                fp
            });
            assert_eq!(new, by_fingerprint.insert_fingerprint(fp), "key {key:#x}");
        }
        assert_eq!(by_key.len(), by_fingerprint.len());
        assert_eq!(by_key.snapshot(), by_fingerprint.snapshot());
        // The fingerprint is computed once per distinct key.
        let keys: HashSet<u64> = keyed_stream().iter().map(|&(key, _)| key).collect();
        assert_eq!(computed, keys.len());
        assert!(computed < keyed_stream().len());
    }

    #[test]
    fn unbounded_cache_never_truncates() {
        let cache = FingerprintCache::for_threads_bounded(2, None);
        for i in 0..5000u64 {
            cache.insert_fingerprint(i);
        }
        assert!(!cache.truncated());
        assert_eq!(cache.len(), 5000);
    }
}
