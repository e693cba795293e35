//! Sharded configuration-fingerprint cache.
//!
//! Exhaustive exploration and campaign runs deduplicate configurations
//! by a stable 64-bit fingerprint of [`crate::system::System::config_key`].
//! A single `HashSet` behind one lock serialises every worker thread;
//! this cache splits the fingerprint space across `2^k` independently
//! locked shards so concurrent inserts from different shards never
//! contend.
//!
//! Determinism: the fingerprint function is a fixed FNV-1a over the
//! configuration key — no per-process or per-run hash randomisation —
//! so the set of fingerprints (and therefore every count derived from
//! it) is identical across runs and thread counts. Set membership is
//! order-independent, which is what makes the parallel explorer's
//! `configs_visited` reproducible bit-for-bit.
//!
//! # Memory budget
//!
//! An unbounded cache can exhaust memory on long campaigns. A cache
//! built with [`FingerprintCache::bounded`] enforces a per-shard entry
//! cap: once a shard is full, the oldest fingerprint in that shard is
//! evicted (bounded-LRU sharding). Eviction trades exactness for a
//! memory ceiling — an evicted configuration seen again counts twice —
//! so the first eviction latches [`FingerprintCache::truncated`], and
//! callers must surface that notice instead of silently reporting an
//! approximate `len()` as exact.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// One shard: the membership set plus insertion order for eviction.
#[derive(Debug, Default)]
struct Shard {
    set: HashSet<u64>,
    /// Insertion order; only maintained when the cache is bounded.
    order: VecDeque<u64>,
}

/// A concurrent set of configuration fingerprints, sharded by hash.
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
    shards: Box<[Mutex<Shard>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    /// Cached total size, maintained on successful inserts so `len()`
    /// does not take every shard lock.
    size: AtomicUsize,
    /// Per-shard entry cap; `usize::MAX` means unbounded.
    shard_cap: usize,
    /// Latched on the first eviction: `len()` is approximate from then
    /// on and callers must report the truncation.
    truncated: AtomicBool,
}

impl FingerprintCache {
    /// Creates an unbounded cache with at least `shards` shards
    /// (rounded up to a power of two, minimum 1).
    pub fn new(shards: usize) -> Self {
        FingerprintCache::with_cap(shards, usize::MAX)
    }

    /// Creates a cache with a total-entry memory budget. The budget is
    /// split evenly across shards (at least one entry per shard); a
    /// full shard evicts its oldest fingerprint and latches the
    /// [`FingerprintCache::truncated`] notice.
    pub fn bounded(shards: usize, max_entries: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        FingerprintCache::with_cap(count, max_entries.div_ceil(count).max(1))
    }

    fn with_cap(shards: usize, shard_cap: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        FingerprintCache {
            shards: (0..count).map(|_| Mutex::new(Shard::default())).collect(),
            mask: count as u64 - 1,
            size: AtomicUsize::new(0),
            shard_cap,
            truncated: AtomicBool::new(false),
        }
    }

    /// A cache sized for `threads` worker threads (4 shards per thread
    /// keeps the collision probability per lock acquisition low).
    pub fn for_threads(threads: usize) -> Self {
        FingerprintCache::new(threads.max(1) * 4)
    }

    /// A cache sized for `threads` workers with an optional memory
    /// budget (`None` = unbounded).
    pub fn for_threads_bounded(threads: usize, max_entries: Option<usize>) -> Self {
        match max_entries {
            Some(budget) => FingerprintCache::bounded(threads.max(1) * 4, budget),
            None => FingerprintCache::for_threads(threads),
        }
    }

    fn shard(&self, fp: u64) -> &Mutex<Shard> {
        // Shard on the high bits: FNV-1a mixes them well, and the low
        // bits then still select hash buckets inside the shard.
        &self.shards[((fp >> 32) & self.mask) as usize]
    }

    /// Inserts the configuration, returning `true` if it was new.
    pub fn insert(&self, key: &str) -> bool {
        self.insert_fingerprint(fingerprint(key))
    }

    /// Inserts a precomputed fingerprint, returning `true` if new.
    pub fn insert_fingerprint(&self, fp: u64) -> bool {
        let mut shard = self.shard(fp).lock().expect("shard lock");
        let new = shard.set.insert(fp);
        if new {
            self.size.fetch_add(1, Ordering::Relaxed);
            if self.shard_cap != usize::MAX {
                shard.order.push_back(fp);
                if shard.order.len() > self.shard_cap {
                    if let Some(oldest) = shard.order.pop_front() {
                        shard.set.remove(&oldest);
                        self.truncated.store(true, Ordering::Relaxed);
                    }
                }
            }
        }
        new
    }

    /// Is the configuration already present?
    pub fn contains(&self, key: &str) -> bool {
        self.contains_fingerprint(fingerprint(key))
    }

    /// Is the fingerprint already present?
    pub fn contains_fingerprint(&self, fp: u64) -> bool {
        self.shard(fp).lock().expect("shard lock").set.contains(&fp)
    }

    /// Number of distinct configurations inserted. Exact until the
    /// cache [`FingerprintCache::truncated`]; an over-count after (an
    /// evicted configuration seen again is counted twice).
    pub fn len(&self) -> usize {
        self.size.load(Ordering::Relaxed)
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Has the memory budget forced an eviction? When `true`,
    /// [`FingerprintCache::len`] is approximate and any report derived
    /// from it must carry a truncation notice.
    pub fn truncated(&self) -> bool {
        self.truncated.load(Ordering::Relaxed)
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
            all.extend(shard.lock().expect("shard lock").set.iter().copied());
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
    fn bounded_cache_evicts_and_latches_truncation() {
        let cache = FingerprintCache::bounded(1, 4);
        assert_eq!(cache.shard_count(), 1);
        for i in 0..4u64 {
            assert!(cache.insert_fingerprint(i));
        }
        assert!(!cache.truncated());
        // Fifth insert evicts the oldest (0) and latches the notice.
        assert!(cache.insert_fingerprint(100));
        assert!(cache.truncated());
        assert!(!cache.contains_fingerprint(0));
        assert!(cache.contains_fingerprint(100));
        // The evicted fingerprint re-inserts as "new": len over-counts,
        // which is exactly why truncated() must be reported.
        assert!(cache.insert_fingerprint(0));
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn bounded_cache_budget_is_split_across_shards() {
        let cache = FingerprintCache::bounded(4, 8);
        assert_eq!(cache.shard_count(), 4);
        // 2 entries per shard; the membership set never exceeds the
        // budget no matter how many inserts arrive.
        for i in 0..10_000u64 {
            cache.insert_fingerprint(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        assert!(cache.truncated());
        assert!(cache.snapshot().len() <= 8);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let cache = FingerprintCache::new(4);
        for fp in [9u64, 3, 7, 1] {
            cache.insert_fingerprint(fp);
        }
        assert_eq!(cache.snapshot(), vec![1, 3, 7, 9]);
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
