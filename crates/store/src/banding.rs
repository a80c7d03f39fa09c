//! Banded LSH candidate generation over coordinated bottom-k sketches.
//!
//! The all-pairs similarity join needs a sub-quadratic candidate stage:
//! comparing every pair of `N` resident sketches is `O(N²)` even when
//! almost every pair is dissimilar. Banding gets around that with the
//! classic LSH argument, and coordination makes it free: because every
//! sketch samples under one shared seed hash, the *same item carries the
//! same priority rank in every instance* — so a signature derived from
//! the rank order of a sketch's retained items is automatically
//! comparable across instances, with no extra hashing passes over the
//! data.
//!
//! The signature is one-permutation style: the `bands·rows` signature
//! slots partition the key space by a salted hash, and each slot takes
//! the *minimum-rank* retained key that lands in it. Two instances agree
//! on a slot exactly when the least-rank item of that key region is
//! common to both sketches — an event whose probability is (up to
//! sketch truncation) the Jaccard similarity of the instances, the
//! min-hash property. Slots are grouped into `bands` bands of `rows`
//! slots; two instances are **candidates** when at least one band
//! matches in full. The matching probability follows the standard S-curve
//! `1 − (1 − J^rows)^bands`, which crosses ½ near
//! [`BandConfig::threshold`] `= (1/bands)^(1/rows)`.
//!
//! A band containing an *empty* slot (no retained key hashed into it) is
//! treated as non-indexable and skipped for that instance. This is load
//! bearing: indexing empty bands would put every sparse instance of a
//! large pool into one shared "empty" bucket and regenerate the `O(N²)`
//! blow-up the stage exists to avoid, while skipping costs little recall
//! because coordinated similar instances have correlated empty patterns.
//!
//! [`BandIndex`] is deterministic by construction — every query output
//! is sorted and deduplicated, and pair extraction walks ids in
//! ascending order, so nothing depends on the order of the hashed
//! buckets — and candidate sets are byte-identical regardless of
//! insertion order, store shard count, or worker geometry. The index
//! also keeps each inserted instance's registered `(band, hash)`
//! signature resident, which is what makes it **live**: re-inserting an
//! id first unregisters its old signature (only the bands whose hash
//! actually changed are touched — `O(bands)` per update), so an index
//! owned by an ingesting store stays equal to a from-scratch rebuild at
//! every point in time.
//!
//! # Cost model
//!
//! Building is `O(k + bands)` hashing per instance (one rank-ordered
//! walk over the sketch, [`BandConfig::signature`]). The index stores
//! those signatures in an id-ordered map, and everything else is
//! derived from them.
//!
//! Probes read a bucket table — per band, a hash map from band hash to
//! the ids registered under it, where a bucket of one id (most of them,
//! in a large index) holds it inline. The table serves probes and
//! nothing else: it is built by an index's **first probe**, whether the
//! index came from [`BandIndex::insert`], [`BandIndex::merged`] or
//! [`BandIndex::decode`], and is then kept current by `insert` and
//! [`BandIndex::remove`] in `O(bands)` expected time per call. The build
//! goes one band at a time, filling each band's map from that band's
//! registrations, so only one map is written at any moment. An index
//! that is only merged and extracted — the bulk join — never builds it.
//!
//! Pair extraction reads the signatures alone. It splits the
//! registrations into one `(hash, id)` list per band and sorts each
//! list by hash; a run of two or more equal hashes is a *group*, the
//! only kind of bucket that yields pairs. The groups are kept and the
//! lists dropped band by band. A sort keeps the grouping
//! `O(R log R)` in the `R` registrations whatever the band hashes are,
//! as the table's collision-resistant hasher does for probes. Pairs then
//! cost `Σ |group|²` over groups — the LSH contract is that groups stay
//! small because dissimilar instances rarely share a band. Feeding the
//! index signatures that collide en masse (e.g. one duplicated instance
//! a thousand times) degrades gracefully toward the quadratic worst
//! case, it does not fail. Crucially, extraction **streams**:
//! [`BandIndex::for_each_candidate_block`] walks the grouped ids in
//! ascending order, collecting each id's groups into a run of sorted,
//! deduplicated partners, and hands the caller fixed-size blocks of
//! globally sorted pairs. Transient memory is `O(registrations + group
//! memberships)` for the grouping, plus `O(block + largest per-id
//! candidate set)` for the stream — never `O(total pairs)`.
//! [`BandIndex::candidate_pairs`] is the collect-everything convenience
//! wrapper over the same walk.
//!
//! # Example
//!
//! ```
//! use monotone_engine::Engine;
//! use monotone_store::banding::BandConfig;
//! use monotone_store::SketchStore;
//!
//! let store = SketchStore::new(64, 42);
//! for key in 0..40u64 {
//!     store.ingest(0, key, 1.0)?; // instance 0: keys 0..40
//!     store.ingest(1, key + 2, 1.0)?; // near-duplicate of 0
//!     store.ingest(2, key + 10_000, 1.0)?; // disjoint
//! }
//!
//! let cfg = BandConfig::new(8, 2, 7);
//! let index = store.band_index_with(&cfg, &Engine::with_threads(1))?;
//! let pairs = index.candidate_pairs();
//! assert!(pairs.contains(&(0, 1)), "near-duplicates must collide");
//! assert!(pairs.iter().all(|&(a, b)| a < b && b != 2), "disjoint stays out");
//!
//! // The same pairs, streamed in fixed-size sorted blocks (the memory-
//! // bounded path the 10⁶-instance join verification consumes).
//! let mut streamed = Vec::new();
//! index.for_each_candidate_block(2, |block| streamed.extend_from_slice(block));
//! assert_eq!(streamed, pairs);
//!
//! // Per-instance probe: which resident instances could be similar?
//! let cands = index.candidates_of(&store.sketch(0)?);
//! assert!(cands.contains(&1));
//! // Identical signatures collide on every band, including the probe's own id.
//! assert!(cands.contains(&0));
//! // Inserted ids can be probed without their sketch, off the cached
//! // signature — the live-index query path.
//! assert_eq!(index.candidates_of_id(0), Some(cands));
//!
//! // Signatures are derived from the sketch alone, one `(band, hash)`
//! // pair per band whose slots all received a retained key.
//! let sig = cfg.signature(&store.sketch(2)?);
//! assert!(sig.len() <= cfg.bands());
//! assert_eq!(index.signature(2), Some(&*sig));
//! # Ok::<(), monotone_core::Error>(())
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use monotone_coord::bottomk::BottomKSample;
use monotone_coord::seed::splitmix64;
use monotone_coord::wire::{Dec, Enc};
use monotone_core::{Error, Result};

/// Shape of a banding signature: `bands` bands of `rows` slots each,
/// under a slot-hash `salt`.
///
/// The salt only picks which key region feeds which slot; it is
/// independent of the sketches' seed-hash salt, and the *same*
/// `BandConfig` must be used for every signature that is to be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BandConfig {
    bands: usize,
    rows: usize,
    salt: u64,
}

impl BandConfig {
    /// A config with `bands` bands of `rows` slots.
    ///
    /// # Panics
    ///
    /// Panics if `bands == 0`, `rows == 0`, or `bands · rows` exceeds
    /// 2^16 slots.
    ///
    /// # Examples
    ///
    /// ```
    /// use monotone_store::banding::BandConfig;
    ///
    /// let cfg = BandConfig::new(16, 2, 7);
    /// assert_eq!(cfg.slots(), 32);
    /// // The S-curve midpoint: (1/16)^(1/2).
    /// assert!((cfg.threshold() - 0.25).abs() < 1e-12);
    /// ```
    pub fn new(bands: usize, rows: usize, salt: u64) -> BandConfig {
        assert!(bands > 0, "banding needs at least one band");
        assert!(rows > 0, "banding needs at least one row per band");
        assert!(
            bands.checked_mul(rows).is_some_and(|n| n <= MAX_SLOTS),
            "band config {bands}x{rows} exceeds {MAX_SLOTS} slots"
        );
        BandConfig { bands, rows, salt }
    }

    /// Number of bands.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Slots per band.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The slot-hash salt.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Total signature slots, `bands · rows`.
    pub fn slots(&self) -> usize {
        self.bands * self.rows
    }

    /// The similarity where a pair's band-collision probability crosses
    /// one half: `(1/bands)^(1/rows)`. Pairs well above it are caught
    /// with probability approaching one; pairs well below almost never
    /// collide.
    pub fn threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows as f64)
    }

    /// The indexable band signature of one sketch: a `(band, hash)` pair,
    /// ascending by band, for every band whose `rows` slots all received
    /// a retained key. A band with an empty slot is non-indexable and
    /// left out, so a sketch too sparse to fill any band has an empty
    /// signature.
    ///
    /// Slot values are the minimum-*rank* retained key per slot — the
    /// coordinated min-hash — obtained by walking the sketch in rank order,
    /// so two coordinated sketches agree on a slot exactly when the
    /// least-rank item of that key region is retained by both.
    pub fn signature(&self, sketch: &BottomKSample) -> Box<[(u32, u64)]> {
        self.signature_of_keys(sketch.iter().map(|(key, _)| key))
    }

    /// [`signature`](BandConfig::signature) of a sketch's retained keys,
    /// given in ascending rank order — what a shard signs straight from a
    /// resident stream, without a snapshot.
    pub(crate) fn signature_of_keys(
        &self,
        keys: impl IntoIterator<Item = u64>,
    ) -> Box<[(u32, u64)]> {
        let n = self.slots();
        let (mut stack, mut heap) = ([None; STACK_SLOTS], Vec::new());
        let slots = if n <= STACK_SLOTS {
            &mut stack[..n]
        } else {
            heap.resize(n, None);
            &mut heap[..]
        };
        // The slot a key feeds is a pure function of `(salt, key)` —
        // shared by every instance, which is what makes slot values
        // comparable. Keys arrive in ascending rank order, so the first
        // key to claim a slot is its min-rank key.
        let slot_salt = splitmix64(self.salt ^ SLOT_GAMMA);
        let n = n as u64;
        for key in keys {
            let h = splitmix64(key ^ slot_salt);
            // For a power of two, `& (n - 1)` is `% n` without the division.
            let slot = if n.is_power_of_two() {
                h & (n - 1)
            } else {
                h % n
            };
            slots[slot as usize].get_or_insert(key);
        }
        let band_seed = splitmix64(self.salt ^ BAND_GAMMA);
        slots
            .chunks_exact(self.rows)
            .enumerate()
            .filter_map(|(band, band_slots)| {
                let mut h = band_seed;
                for slot in band_slots {
                    h = splitmix64(h ^ splitmix64((*slot)? ^ SLOT_GAMMA));
                }
                Some((band as u32, h))
            })
            .collect()
    }

    /// Appends this config's wire form — bands, rows, salt — to `out`.
    pub fn encode_into(&self, out: &mut Enc) {
        out.put_len(self.bands);
        out.put_len(self.rows);
        out.put_u64(self.salt);
    }

    /// Decodes a config written by [`BandConfig::encode_into`].
    ///
    /// # Errors
    ///
    /// [`Error::Encoding`] on truncation, a zero band or row count, or
    /// more slots than [`BandConfig::new`] accepts — the counts come from
    /// another process and size allocations.
    pub fn decode(dec: &mut Dec<'_>) -> Result<BandConfig> {
        let bands = dec.take_len()?;
        let rows = dec.take_len()?;
        let salt = dec.take_u64()?;
        match bands.checked_mul(rows) {
            Some(1..=MAX_SLOTS) => Ok(BandConfig { bands, rows, salt }),
            Some(0) => Err(Error::Encoding(format!(
                "degenerate band config {bands}x{rows}"
            ))),
            _ => Err(Error::Encoding(format!(
                "band config {bands}x{rows} exceeds {MAX_SLOTS} slots"
            ))),
        }
    }
}

/// The most signature slots, `bands · rows`, a [`BandConfig`] may have:
/// far above any useful config (the joins here run 16×2), and small
/// enough that a config decoded from corrupt bytes cannot size a huge
/// allocation.
const MAX_SLOTS: usize = 1 << 16;

/// Configs of up to this many slots fill their signature's slots in a
/// stack buffer; larger ones allocate.
const STACK_SLOTS: usize = 64;

/// Domain-separation constants so the slot hash and the band fold never
/// coincide with the seed hash or with each other.
const SLOT_GAMMA: u64 = 0xb5ad_4ece_da1c_e2a9;
const BAND_GAMMA: u64 = 0x2545_f491_4f6c_dd1d;

/// An inverted index from band hashes to instance ids: the candidate
/// stage of the all-pairs similarity join.
///
/// Two inserted instances are *candidates* when at least one band hash
/// matches. The index is deterministic: every output is sorted and
/// deduplicated, and extraction walks ids in ascending order, so
/// [`BandIndex::candidate_pairs`], [`BandIndex::for_each_candidate_block`],
/// and [`BandIndex::candidates_of`] are byte-identical for any insertion
/// order (and hence any store shard count or ingest thread schedule),
/// whatever order the hashed buckets keep.
///
/// Each id's registered `(band, hash)` signature stays resident, so the
/// index supports **incremental maintenance**: [`BandIndex::insert`] is
/// remove-then-insert (re-registering an id touches only the bands
/// whose hash changed), [`BandIndex::remove`] unregisters an id
/// entirely, and [`BandIndex::candidates_of_id`] answers probes for
/// resident ids off the cache in `O(bands)` bucket lookups. The bucket
/// table those lookups read is derived from the signatures and built by
/// the first probe; extraction reads the signatures alone and never
/// needs it. See the [module docs](self) for the cost model.
#[derive(Debug, Clone)]
pub struct BandIndex {
    cfg: BandConfig,
    /// id → its [`BandConfig::signature`], the `(band, hash)` pairs it
    /// is registered under. Ordered so
    /// [`BandIndex::for_each_candidate_block`] walks ids ascending.
    signatures: BTreeMap<u64, Box<[(u32, u64)]>>,
    /// The bucket table of `signatures`, for probes only: built by the
    /// first probe, then kept current by `insert` and `remove`.
    table: OnceLock<Table>,
}

/// Per band, band hash → the ids registered under it. Band hashes come
/// from keys outside the program, so the maps keep the standard
/// collision-resistant hasher.
type Table = Vec<HashMap<u64, Bucket>>;

/// The ids registered under one band hash. Most buckets of a large index
/// hold a single id, which is stored inline; a second id moves the
/// bucket to a `Vec`.
#[derive(Debug, Clone)]
enum Bucket {
    One(u64),
    Many(Vec<u64>),
}

impl Bucket {
    fn ids(&self) -> &[u64] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: u64) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, id]),
            Bucket::Many(ids) => ids.push(id),
        }
    }
}

/// The registrations of `signatures`, split into one `(hash, id)` list
/// per band of a `bands`-band config, each in id order.
fn per_band(bands: usize, signatures: &BTreeMap<u64, Box<[(u32, u64)]>>) -> Vec<Vec<(u64, u64)>> {
    let mut lists = vec![Vec::new(); bands];
    for (&id, sig) in signatures {
        for &(band, hash) in sig.iter() {
            lists[band as usize].push((hash, id));
        }
    }
    lists
}

/// The bucket table of `signatures` under a `bands`-band config, built
/// one band at a time: each band's map is filled from its
/// [`per_band`] list and sized by its length, so only one map is
/// written at a time and every bucket lists its ids in ascending order.
fn build_table(bands: usize, signatures: &BTreeMap<u64, Box<[(u32, u64)]>>) -> Table {
    let fill = |list: Vec<(u64, u64)>| {
        let mut buckets = HashMap::with_capacity(list.len());
        for (hash, id) in list {
            register(&mut buckets, hash, id);
        }
        buckets
    };
    per_band(bands, signatures).into_iter().map(fill).collect()
}

/// Adds `id` to the bucket of `hash` in one band's map.
fn register(buckets: &mut HashMap<u64, Bucket>, hash: u64, id: u64) {
    buckets
        .entry(hash)
        .and_modify(|bucket| bucket.push(id))
        .or_insert(Bucket::One(id));
}

/// Removes `id` from the bucket of `hash` in one band's map, dropping
/// the bucket once it is empty.
fn unregister(buckets: &mut HashMap<u64, Bucket>, hash: u64, id: u64) {
    let bucket = buckets
        .get_mut(&hash)
        .expect("registered signature hash has a bucket");
    let emptied = match bucket {
        Bucket::One(only) => {
            assert_eq!(*only, id, "registered id is in its bucket");
            true
        }
        Bucket::Many(ids) => {
            let pos = ids
                .iter()
                .position(|&x| x == id)
                .expect("registered id is in its bucket");
            ids.swap_remove(pos);
            ids.is_empty()
        }
    };
    if emptied {
        buckets.remove(&hash);
    }
}

impl BandIndex {
    /// An empty index under `cfg`.
    pub fn new(cfg: BandConfig) -> BandIndex {
        BandIndex {
            cfg,
            signatures: BTreeMap::new(),
            table: OnceLock::new(),
        }
    }

    /// The bucket table, built from the signatures on first use.
    fn table(&self) -> &Table {
        self.table
            .get_or_init(|| build_table(self.cfg.bands(), &self.signatures))
    }

    /// The index's band configuration.
    pub fn config(&self) -> &BandConfig {
        &self.cfg
    }

    /// Number of distinct inserted instance ids (re-inserting an id does
    /// not inflate this).
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True while nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// The distinct inserted ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.signatures.keys().copied()
    }

    /// The `(band, hash)` pairs `id` is registered under (ascending by
    /// band), or `None` if the id was never inserted. An inserted id
    /// whose sketch filled no band has an empty (but present) signature.
    pub fn signature(&self, id: u64) -> Option<&[(u32, u64)]> {
        self.signatures.get(&id).map(|sig| &**sig)
    }

    /// Indexes `id` under every indexable band of `sketch`'s signature.
    ///
    /// Remove-then-insert: if `id` is already present its old signature
    /// is unregistered first, and only the bands whose hash actually
    /// changed are touched — re-inserting an unchanged sketch is a no-op
    /// and [`len`](BandIndex::len) counts distinct ids, never inserts.
    /// This is the live-maintenance primitive: an index updated on every
    /// sketch change stays identical to a from-scratch rebuild.
    pub fn insert(&mut self, id: u64, sketch: &BottomKSample) {
        self.insert_keys(id, sketch.iter().map(|(key, _)| key));
    }

    /// [`insert`](BandIndex::insert) of a sketch's retained keys, given in
    /// ascending rank order ([`BandConfig::signature`]'s key walk).
    pub(crate) fn insert_keys(&mut self, id: u64, keys: impl IntoIterator<Item = u64>) {
        let new = self.cfg.signature_of_keys(keys);
        let sig = self.signatures.entry(id).or_default();
        let old = std::mem::replace(sig, new);
        if let Some(table) = self.table.get_mut() {
            // Both signatures hold at most `bands` pairs: unregister the
            // stale ones, register the fresh ones, leave the shared ones.
            for &(band, hash) in old.iter().filter(|pair| !sig.contains(pair)) {
                unregister(&mut table[band as usize], hash, id);
            }
            for &(band, hash) in sig.iter().filter(|pair| !old.contains(pair)) {
                register(&mut table[band as usize], hash, id);
            }
        }
    }

    /// Unregisters `id` entirely; returns whether it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(sig) = self.signatures.remove(&id) else {
            return false;
        };
        if let Some(table) = self.table.get_mut() {
            for &(band, hash) in sig.iter() {
                unregister(&mut table[band as usize], hash, id);
            }
        }
        true
    }

    /// Merges per-worker partial indexes (the parallel blocked build)
    /// into one, in order. The parts' signatures move into one map as
    /// they are — parts carry signatures, not tables — and nothing else
    /// is built: like an index built by [`insert`](BandIndex::insert) or
    /// [`decode`](BandIndex::decode), the merged index builds its bucket
    /// table on its first probe, and extraction never needs one. The
    /// result is interchangeable with inserting every instance into a
    /// single index: signatures are the union, and all sorted query
    /// outputs are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if a part was built under a different `BandConfig`, or if
    /// two parts contain the same instance id (parts must partition the
    /// instances).
    pub fn merged(cfg: BandConfig, parts: Vec<BandIndex>) -> BandIndex {
        let mut signatures = BTreeMap::new();
        for part in parts {
            assert_eq!(part.cfg, cfg, "merged parts must share one band config");
            for (id, sig) in part.signatures {
                assert!(
                    signatures.insert(id, sig).is_none(),
                    "merged parts must hold disjoint ids (id {id} duplicated)"
                );
            }
        }
        BandIndex {
            cfg,
            signatures,
            table: OnceLock::new(),
        }
    }

    /// The sorted, deduplicated ids whose signature shares at least one
    /// band with `sketch` — including the probe's own id if it was
    /// inserted. An all-empty signature (a sketch too sparse to fill any
    /// band) has no candidates.
    pub fn candidates_of(&self, sketch: &BottomKSample) -> Vec<u64> {
        self.candidates_of_signature(&self.cfg.signature(sketch))
    }

    /// [`candidates_of`](BandIndex::candidates_of) for an id already in
    /// the index, answered off its cached signature — no sketch needed,
    /// `O(bands)` bucket lookups: the live "who is similar to X right
    /// now" query. Returns `None` for an id never inserted. The probe's
    /// own id is always among its candidates (it shares every band with
    /// itself) unless its signature is all-empty.
    pub fn candidates_of_id(&self, id: u64) -> Option<Vec<u64>> {
        self.signatures
            .get(&id)
            .map(|sig| self.candidates_of_signature(sig))
    }

    /// The sorted, deduplicated inserted ids registered under at least
    /// one of `sig`'s `(band, hash)` pairs — the probe primitive behind
    /// both [`candidates_of_id`](BandIndex::candidates_of_id) and a
    /// *distributed* gather: a router holding an instance's signature
    /// can probe every shard's partial index with it and union the
    /// sorted results, which equals probing one global index because
    /// shard partials partition the ids. Bands outside this index's
    /// config contribute nothing (a probe from a mismatched config
    /// finds no buckets, it does not panic).
    pub fn candidates_of_signature(&self, sig: &[(u32, u64)]) -> Vec<u64> {
        let table = self.table();
        let mut out: Vec<u64> = sig
            .iter()
            .filter_map(|&(band, h)| table.get(band as usize)?.get(&h))
            .flat_map(Bucket::ids)
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Streams every unordered candidate pair `(a, b)` with `a < b` —
    /// globally sorted lexicographically and deduplicated across bands —
    /// to `f` in blocks of at least `block` pairs (the final block may
    /// be smaller; a block can overshoot by one instance's partner run).
    /// Concatenating the blocks yields exactly
    /// [`candidate_pairs`](BandIndex::candidate_pairs), but transient
    /// memory is `O(registrations + group memberships)` plus
    /// `O(block + largest per-id candidate set)` instead of
    /// `O(total pairs)` — the verification stage of a 10⁶-instance join
    /// consumes the stream without ever materializing the pair set.
    ///
    /// Extraction reads the signatures alone and makes no table lookup.
    /// Each band's registrations are sorted by hash, and every hash
    /// registered by two or more ids is a group. The walk is then
    /// id-major: for each grouped id `a` in ascending order, the members
    /// of `a`'s groups above `a` are collected, sorted, and deduplicated
    /// into `a`'s partner run. Every colliding pair is seen from both
    /// sides, so emitting only the `b > a` side yields each pair exactly
    /// once, already in global order. The groups are the table's buckets
    /// of two or more ids, since `insert` and `remove` keep the table
    /// equal to one built from the signatures: every index answers the
    /// same, whether or not a probe has built its table.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn for_each_candidate_block<F: FnMut(&[(u64, u64)])>(&self, block: usize, mut f: F) {
        assert!(block > 0, "blocked extraction needs a positive block size");
        // Group `g` is `grouped[bounds[g]..bounds[g + 1]]`, its ids in no
        // particular order; `memberships` holds one `(id, g)` per member.
        let (mut grouped, mut bounds, mut memberships) = (Vec::new(), vec![0], Vec::new());
        for mut list in per_band(self.cfg.bands(), &self.signatures) {
            list.sort_unstable_by_key(|&(hash, _)| hash);
            for run in list.chunk_by(|x, y| x.0 == y.0).filter(|r| r.len() >= 2) {
                for &(_, id) in run {
                    memberships.push((id, bounds.len() - 1));
                    grouped.push(id);
                }
                bounds.push(grouped.len());
            }
        }
        memberships.sort_unstable_by_key(|&(id, _)| id);
        let mut buf: Vec<(u64, u64)> = Vec::with_capacity(block.min(1 << 16));
        let mut partners: Vec<u64> = Vec::new();
        for run in memberships.chunk_by(|x, y| x.0 == y.0) {
            let a = run[0].0;
            partners.clear();
            for &(_, g) in run {
                let group = &grouped[bounds[g]..bounds[g + 1]];
                partners.extend(group.iter().copied().filter(|&b| b > a));
            }
            partners.sort_unstable();
            partners.dedup();
            buf.extend(partners.iter().map(|&b| (a, b)));
            if buf.len() >= block {
                f(&buf);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            f(&buf);
        }
    }

    /// Every unordered candidate pair `(a, b)` with `a < b`, sorted
    /// lexicographically and deduplicated across bands: the input to the
    /// join's verification stage, materialized. Scale-sensitive callers
    /// should prefer the streaming
    /// [`for_each_candidate_block`](BandIndex::for_each_candidate_block)
    /// this is a collect-all wrapper over.
    pub fn candidate_pairs(&self) -> Vec<(u64, u64)> {
        let mut pairs = Vec::new();
        self.for_each_candidate_block(usize::MAX, |block| pairs.extend_from_slice(block));
        pairs
    }

    /// Appends this index's stable, versioned wire form to `out` — how a
    /// remote shard ships a build partial to the router. Only the config
    /// and the per-id signatures travel; the bucket table is derived
    /// state that the receiver builds from the signatures when it first
    /// probes, so sender and receiver cannot disagree about bucket
    /// contents.
    pub fn encode_into(&self, out: &mut Enc) {
        out.put_u8(WIRE_VERSION);
        self.cfg.encode_into(out);
        out.put_len(self.signatures.len());
        for (id, sig) in &self.signatures {
            out.put_u64(*id);
            out.put_len(sig.len());
            for &(band, hash) in sig.iter() {
                out.put_u32(band);
                out.put_u64(hash);
            }
        }
    }

    /// Decodes one index from `dec`. Only signatures are read; the bucket
    /// table is built by the first probe, and
    /// [`for_each_candidate_block`](BandIndex::for_each_candidate_block)
    /// and [`BandIndex::merged`] read signatures alone. The result is
    /// interchangeable with the encoded index: signatures are
    /// bit-identical and every sorted query output matches.
    ///
    /// # Errors
    ///
    /// [`monotone_core::Error::Encoding`] on truncation, an unknown
    /// version, a config [`BandConfig::decode`] rejects, or a signature
    /// violating the index invariants (bands out of range or not
    /// strictly ascending).
    pub fn decode(dec: &mut Dec<'_>) -> Result<BandIndex> {
        let version = dec.take_u8()?;
        if version != WIRE_VERSION {
            return Err(Error::Encoding(format!(
                "unknown BandIndex wire version {version}"
            )));
        }
        let cfg = BandConfig::decode(dec)?;
        let bands = cfg.bands();
        let mut index = BandIndex::new(cfg);
        let n = dec.take_len()?;
        for _ in 0..n {
            let id = dec.take_u64()?;
            let sig_len = dec.take_len()?;
            if sig_len > bands {
                return Err(Error::Encoding(format!(
                    "signature of {sig_len} bands exceeds the {bands}-band config"
                )));
            }
            // A (band, hash) pair is 12 wire bytes: reserve no more than
            // the payload can still hold.
            let mut sig = Vec::with_capacity(sig_len.min(dec.remaining() / 12));
            for _ in 0..sig_len {
                let band = dec.take_u32()?;
                let hash = dec.take_u64()?;
                if band as usize >= bands {
                    return Err(Error::Encoding(format!("band {band} out of range")));
                }
                if let Some(&(prev, _)) = sig.last() {
                    if band <= prev {
                        return Err(Error::Encoding(
                            "signature bands not strictly ascending".to_owned(),
                        ));
                    }
                }
                sig.push((band, hash));
            }
            if index.signatures.insert(id, sig.into()).is_some() {
                return Err(Error::Encoding(format!("id {id} encoded twice")));
            }
        }
        Ok(index)
    }
}

/// Version byte leading every [`BandIndex`] wire payload. Bump on any
/// layout change; decoders reject versions they do not know.
const WIRE_VERSION: u8 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use monotone_coord::bottomk::BottomK;
    use monotone_coord::instance::Instance;
    use monotone_coord::seed::SeedHasher;

    fn sketch(k: usize, salt: u64, keys: impl IntoIterator<Item = u64>) -> BottomKSample {
        let inst = Instance::from_pairs(keys.into_iter().map(|key| (key, 1.0 + (key % 3) as f64)));
        BottomK::new(k, SeedHasher::new(salt)).sample_instance(&inst)
    }

    #[test]
    fn threshold_is_the_s_curve_midpoint() {
        assert!((BandConfig::new(16, 2, 0).threshold() - 0.25).abs() < 1e-12);
        assert!((BandConfig::new(8, 1, 0).threshold() - 0.125).abs() < 1e-12);
        assert!((BandConfig::new(1, 3, 0).threshold() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one band")]
    fn zero_bands_panics() {
        BandConfig::new(0, 2, 0);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_panics() {
        BandConfig::new(4, 0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds 65536 slots")]
    fn oversized_config_panics() {
        BandConfig::new(MAX_SLOTS / 2 + 1, 2, 0);
    }

    /// `new` and `decode` share one slot cap: every config that can be
    /// built, and so encoded, also decodes.
    #[test]
    fn the_largest_config_round_trips() {
        let cfg = BandConfig::new(MAX_SLOTS / 2, 2, 9);
        let mut enc = Enc::new();
        cfg.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(BandConfig::decode(&mut Dec::new(&bytes)).unwrap(), cfg);
    }

    /// The signatures of fixed sketches under six configs fold to the
    /// FNV-1a-64 values recorded before `signature` kept its slots on the
    /// stack and masked power-of-two slot counts: 32, 48, 15 and 64
    /// slots take the stack buffer, 80 and 128 the heap one; 32, 64 and
    /// 128 slots take the mask, the others `%`.
    #[test]
    fn pinned_signatures_are_unchanged() {
        let sketches: Vec<BottomKSample> = (0..40u64)
            .map(|i| {
                let k = [8, 32, 64, 128, 200][i as usize % 5];
                sketch(k, 9, i * 37..i * 37 + 1 + 9 * i)
            })
            .collect();
        for (bands, rows, pinned, registrations) in [
            (16, 2, 0x5f46_0db4_cea1_f80e, 371),
            (24, 2, 0x1bf7_d683_e8c9_e3be, 445),
            (5, 3, 0x390f_ef69_fc3f_0253, 141),
            (32, 2, 0xa1af_ac21_a464_a54b, 478),
            (40, 2, 0x71e1_0c11_22a1_7a08, 504),
            (64, 2, 0x124f_3271_31d8_1e40, 490),
        ] {
            let cfg = BandConfig::new(bands, rows, 0x5eed_0024);
            let mut bytes = Vec::new();
            let mut total = 0;
            for s in &sketches {
                let sig = cfg.signature(s);
                total += sig.len();
                bytes.extend_from_slice(&(sig.len() as u64).to_le_bytes());
                for &(band, hash) in sig.iter() {
                    bytes.extend_from_slice(&band.to_le_bytes());
                    bytes.extend_from_slice(&hash.to_le_bytes());
                }
            }
            let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(
                (fnv, total),
                (pinned, registrations),
                "{bands}x{rows}: fnv = {fnv:#018x}"
            );
        }
    }

    #[test]
    fn identical_sketches_collide_on_every_indexable_band() {
        let cfg = BandConfig::new(8, 2, 3);
        let a = sketch(64, 9, 0..50);
        let b = sketch(64, 9, 0..50);
        assert_eq!(cfg.signature(&a), cfg.signature(&b));
        let mut index = BandIndex::new(cfg);
        index.insert(10, &a);
        index.insert(20, &b);
        assert_eq!(index.candidate_pairs(), vec![(10, 20)]);
        assert_eq!(index.candidates_of(&a), vec![10, 20]);
        assert_eq!(index.candidates_of_id(10), Some(vec![10, 20]));
        assert_eq!(index.candidates_of_id(99), None);
    }

    #[test]
    fn disjoint_sketches_never_collide() {
        // Disjoint key sets can share a fully-populated band only by a
        // 64-bit hash collision; empty-empty slots are skipped, so
        // sparse disjoint instances cannot meet in an "empty" bucket.
        let cfg = BandConfig::new(16, 2, 3);
        let mut index = BandIndex::new(cfg);
        for id in 0..40u64 {
            index.insert(id, &sketch(32, 9, id * 10_000..id * 10_000 + 60));
        }
        assert_eq!(index.len(), 40);
        assert_eq!(index.candidate_pairs(), vec![]);
    }

    #[test]
    fn empty_slot_bands_are_skipped_not_indexed() {
        // One retained key fills exactly one slot; with rows = 2 every
        // band has an empty slot, so nothing is indexable.
        let cfg = BandConfig::new(8, 2, 3);
        let one = sketch(8, 9, [5u64]);
        assert!(cfg.signature(&one).is_empty());
        let mut index = BandIndex::new(cfg);
        index.insert(1, &one);
        index.insert(2, &one);
        assert_eq!(index.len(), 2);
        assert_eq!(index.signature(1), Some(&[][..]));
        assert_eq!(index.candidate_pairs(), vec![]);
        assert_eq!(index.candidates_of(&one), vec![]);
        assert_eq!(index.candidates_of_id(1), Some(vec![]));

        // With rows = 1 the single filled slot is a full band: the two
        // identical singletons become candidates.
        let cfg1 = BandConfig::new(16, 1, 3);
        let mut index1 = BandIndex::new(cfg1);
        index1.insert(1, &one);
        index1.insert(2, &one);
        assert_eq!(index1.candidate_pairs(), vec![(1, 2)]);
    }

    /// Regression: re-inserting an existing id used to increment the
    /// instance count (so `len()` over-counted) and leave the id
    /// registered twice in its buckets. Insert is now remove-then-insert.
    #[test]
    fn reinserting_an_id_neither_overcounts_nor_leaks_old_hashes() {
        let cfg = BandConfig::new(8, 2, 3);
        let old = sketch(64, 9, 0..50);
        let new = sketch(64, 9, 10_000..10_050);
        let probe = sketch(64, 9, 0..50);

        let mut index = BandIndex::new(cfg);
        index.insert(1, &old);
        index.insert(1, &old); // identical re-insert: a no-op
        assert_eq!(index.len(), 1);
        index.insert(2, &probe);
        assert_eq!(index.len(), 2);
        assert_eq!(index.candidate_pairs(), vec![(1, 2)]);

        // Re-registering id 1 under a disjoint sketch must unregister
        // every old band hash: the old probe no longer finds it.
        index.insert(1, &new);
        assert_eq!(index.len(), 2);
        assert_eq!(index.candidate_pairs(), vec![]);
        assert_eq!(index.candidates_of(&probe), vec![2]);
        assert_eq!(index.candidates_of(&new), vec![1]);

        // And the result is identical to a fresh index built with the
        // final sketches only.
        let mut fresh = BandIndex::new(cfg);
        fresh.insert(1, &new);
        fresh.insert(2, &probe);
        assert_eq!(index.candidate_pairs(), fresh.candidate_pairs());
        assert_eq!(index.signature(1), fresh.signature(1));
        assert_eq!(index.signature(2), fresh.signature(2));
    }

    #[test]
    fn remove_unregisters_everything() {
        let cfg = BandConfig::new(8, 2, 3);
        let shared = sketch(64, 9, 0..50);
        let mut index = BandIndex::new(cfg);
        index.insert(1, &shared);
        index.insert(2, &shared);
        assert!(index.remove(1));
        assert!(!index.remove(1), "second remove finds nothing");
        assert_eq!(index.len(), 1);
        assert_eq!(index.candidate_pairs(), vec![]);
        assert_eq!(index.candidates_of(&shared), vec![2]);
        assert_eq!(index.candidates_of_id(1), None);
        // Removing the last id leaves a truly empty index.
        assert!(index.remove(2));
        assert!(index.is_empty());
        assert_eq!(index.candidates_of(&shared), vec![]);
    }

    #[test]
    fn insertion_order_does_not_change_candidates() {
        let cfg = BandConfig::new(12, 2, 5);
        let sketches: Vec<(u64, BottomKSample)> = (0..30u64)
            .map(|id| (id, sketch(24, 9, id * 20..id * 20 + 40)))
            .collect();
        let mut fwd = BandIndex::new(cfg);
        let mut rev = BandIndex::new(cfg);
        for (id, s) in &sketches {
            fwd.insert(*id, s);
        }
        for (id, s) in sketches.iter().rev() {
            rev.insert(*id, s);
        }
        assert_eq!(fwd.candidate_pairs(), rev.candidate_pairs());
        assert_eq!(
            fwd.candidates_of(&sketches[3].1),
            rev.candidates_of(&sketches[3].1)
        );
    }

    #[test]
    fn candidate_pairs_are_sorted_unique_and_ordered_within() {
        let cfg = BandConfig::new(8, 1, 5);
        let mut index = BandIndex::new(cfg);
        let shared = sketch(32, 9, 0..40);
        for id in [9u64, 3, 7, 1] {
            index.insert(id, &shared);
        }
        let pairs = index.candidate_pairs();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted: {pairs:?}");
        assert!(pairs.iter().all(|&(a, b)| a < b));
        assert_eq!(pairs.len(), 6); // C(4, 2), deduplicated across bands
    }

    #[test]
    fn blocked_extraction_concatenates_to_candidate_pairs_at_any_block_size() {
        let cfg = BandConfig::new(12, 2, 5);
        let mut index = BandIndex::new(cfg);
        for id in 0..30u64 {
            index.insert(id, &sketch(24, 9, id * 20..id * 20 + 40));
        }
        let reference = index.candidate_pairs();
        assert!(!reference.is_empty(), "workload must produce candidates");
        // The most pairs one id contributes: its whole partner run goes
        // into the same block.
        let max_run = reference
            .chunk_by(|x, y| x.0 == y.0)
            .map(<[_]>::len)
            .max()
            .unwrap();
        for block in [1usize, 2, 3, 7, reference.len(), reference.len() + 10] {
            let mut streamed = Vec::new();
            let mut sizes = Vec::new();
            index.for_each_candidate_block(block, |b| {
                assert!(!b.is_empty());
                assert!(b.windows(2).all(|w| w[0] < w[1]), "block sorted");
                streamed.extend_from_slice(b);
                sizes.push(b.len());
            });
            assert_eq!(streamed, reference, "block={block}");
            // O(block) memory: a block is handed out as soon as it holds
            // `block` pairs, so only the last may be short, and none
            // overshoots by a whole partner run.
            let (_, full) = sizes.split_last().unwrap();
            assert!(full.iter().all(|&n| n >= block), "block={block}: {sizes:?}");
            assert!(
                sizes.iter().all(|&n| n < block + max_run),
                "block={block}: {sizes:?}"
            );
            if block == 1 {
                assert!(sizes.len() > 1, "small blocks must actually stream");
            }
        }
        // An empty index streams nothing.
        let empty = BandIndex::new(cfg);
        empty.for_each_candidate_block(4, |_| panic!("no blocks expected"));
    }

    #[test]
    #[should_panic(expected = "positive block size")]
    fn zero_block_size_panics() {
        BandIndex::new(BandConfig::new(4, 1, 0)).for_each_candidate_block(0, |_| {});
    }

    /// Whether ids `a` and `b` of `index` share a `(band, hash)`.
    fn collide(index: &BandIndex, a: u64, b: u64) -> bool {
        let sig_b = index.signature(b).unwrap();
        index
            .signature(a)
            .unwrap()
            .iter()
            .any(|reg| sig_b.contains(reg))
    }

    /// The blocks `for_each_candidate_block(block, ..)` must hand out,
    /// derived from the signatures alone by comparing every pair of ids:
    /// each `a < b` that shares a `(band, hash)`, in per-`a` runs,
    /// flushed once a block holds at least `block` pairs.
    fn reference_blocks(index: &BandIndex, block: usize) -> Vec<Vec<(u64, u64)>> {
        let ids: Vec<u64> = index.ids().collect();
        let (mut blocks, mut buf) = (Vec::new(), Vec::new());
        for (i, &a) in ids.iter().enumerate() {
            buf.extend(
                ids[i + 1..]
                    .iter()
                    .filter(|&&b| collide(index, a, b))
                    .map(|&b| (a, b)),
            );
            if buf.len() >= block {
                blocks.push(std::mem::take(&mut buf));
            }
        }
        if !buf.is_empty() {
            blocks.push(buf);
        }
        blocks
    }

    /// The ids sharing a `(band, hash)` with `id`, from the signatures.
    fn reference_probe(index: &BandIndex, id: u64) -> Vec<u64> {
        index.ids().filter(|&b| collide(index, id, b)).collect()
    }

    fn assert_blocks_match_reference(index: &BandIndex, what: &str) {
        let pairs: usize = reference_blocks(index, usize::MAX)
            .iter()
            .map(Vec::len)
            .sum();
        assert!(pairs > 20, "{what}: the workload must produce candidates");
        for block in [1, 2, 7, 1024, usize::MAX] {
            let mut blocks = Vec::new();
            index.for_each_candidate_block(block, |b| blocks.push(b.to_vec()));
            assert_eq!(
                blocks,
                reference_blocks(index, block),
                "{what}, block={block}"
            );
        }
    }

    /// Extraction matches the all-pairs reference on every kind of index:
    /// built by `insert` (with re-inserts that move some bands and
    /// removes that leave buckets with one id or none), before and after
    /// a probe builds the table, `merged` (which builds none until its
    /// first probe), and `decode`d.
    #[test]
    fn extraction_matches_an_all_pairs_reference_on_every_kind_of_index() {
        let cfg = BandConfig::new(12, 2, 5);
        // Ids 0..30 come in identical pairs and ids 30..48 in identical
        // triples; windows overlap their neighbours' by a third.
        let window = |w: u64| sketch(32, 9, w * 32..w * 32 + 48);
        let mut fin: BTreeMap<u64, BottomKSample> = (0..48u64)
            .map(|id| (id, window(if id < 30 { id / 2 } else { 100 + id / 3 })))
            .collect();
        fin.insert(500, window(900));
        let build = |probe_early: bool| {
            let mut index = BandIndex::new(cfg);
            for (id, s) in &fin {
                index.insert(*id, s);
            }
            if probe_early {
                assert!(index.candidates_of_id(0).is_some());
            }
            index
        };
        // Id 0 keeps some bands and moves others, leaving id 1 alone in
        // the old buckets; removing 3 leaves 2 alone; removing 500
        // empties its buckets; 1000 joins the pair 10, 11.
        let moved = sketch(
            32,
            9,
            (0..48).map(|key| key + 50_000 * u64::from(key % 5 == 0)),
        );
        let mut final_sketches = fin.clone();
        final_sketches.insert(0, moved.clone());
        final_sketches.remove(&3);
        final_sketches.remove(&500);
        final_sketches.insert(1000, fin[&10].clone());
        let mutate = |index: &mut BandIndex| {
            index.insert(0, &moved);
            assert!(index.remove(3) && index.remove(500));
            index.insert(1000, &fin[&10]);
        };

        let mut unprobed = build(false);
        mutate(&mut unprobed);
        let mut probed = build(true);
        mutate(&mut probed);
        assert!(unprobed.table.get().is_none() && probed.table.get().is_some());
        let old0 = cfg.signature(&fin[&0]);
        let new0 = unprobed.signature(0).unwrap();
        assert!(
            old0.iter().any(|reg| new0.contains(reg)),
            "id 0 keeps a band"
        );
        assert!(
            old0.iter().any(|reg| !new0.contains(reg)),
            "id 0 moves a band"
        );
        for (id, s) in &final_sketches {
            assert_eq!(unprobed.signature(*id), Some(&*cfg.signature(s)), "id={id}");
        }

        assert_blocks_match_reference(&unprobed, "inserted, never probed");
        assert!(unprobed.table.get().is_none(), "extraction builds no table");
        assert_blocks_match_reference(&probed, "inserted, probed before the updates");
        for id in unprobed.ids() {
            assert_eq!(
                unprobed.candidates_of_id(id),
                Some(reference_probe(&unprobed, id)),
                "id={id}"
            );
        }
        assert_blocks_match_reference(&unprobed, "inserted, probed after the updates");

        let mut parts: Vec<BandIndex> = (0..3).map(|_| BandIndex::new(cfg)).collect();
        for (id, s) in &final_sketches {
            parts[(*id % 3) as usize].insert(*id, s);
        }
        let merged = BandIndex::merged(cfg, parts);
        assert!(merged.table.get().is_none(), "merged builds no table");
        assert_blocks_match_reference(&merged, "merged");
        assert!(merged.table.get().is_none(), "extraction builds no table");
        for id in unprobed.ids() {
            assert_eq!(merged.candidates_of_id(id), unprobed.candidates_of_id(id));
        }
        assert!(
            merged.table.get().is_some(),
            "the first probe builds the table"
        );

        let mut enc = Enc::new();
        probed.encode_into(&mut enc);
        let decoded = BandIndex::decode(&mut Dec::new(&enc.into_bytes())).unwrap();
        assert_blocks_match_reference(&decoded, "decoded");
    }

    /// Probes `index`, which builds its bucket table, then re-inserts one
    /// id under another sketch, removes one, inserts a new one, and
    /// probes again: the table `insert` and `remove` maintained must
    /// answer like a fresh sequential index over the final sketches.
    fn assert_probe_mutate_probe(mut index: BandIndex, sketches: &[(u64, BottomKSample)]) {
        let mut fin: BTreeMap<u64, &BottomKSample> =
            sketches.iter().map(|(id, s)| (*id, s)).collect();
        for (id, _) in sketches {
            assert!(index.candidates_of_id(*id).is_some(), "id={id}");
        }
        let (moved, gone, new) = (sketches[0].0, sketches[2].0, 1_000_000);
        index.insert(moved, &sketches[1].1);
        fin.insert(moved, &sketches[1].1);
        assert!(index.remove(gone));
        fin.remove(&gone);
        index.insert(new, &sketches[3].1);
        fin.insert(new, &sketches[3].1);

        let mut fresh = BandIndex::new(*index.config());
        for (id, s) in &fin {
            fresh.insert(*id, s);
        }
        assert_eq!(index.len(), fresh.len());
        assert_eq!(index.candidate_pairs(), fresh.candidate_pairs());
        for id in fresh.ids() {
            assert_eq!(index.signature(id), fresh.signature(id), "id={id}");
            assert_eq!(
                index.candidates_of_id(id),
                fresh.candidates_of_id(id),
                "id={id}"
            );
            let sketch = fin[&id];
            assert_eq!(index.candidates_of(sketch), fresh.candidates_of(sketch));
        }
        assert_eq!(index.candidates_of_id(gone), None);
    }

    #[test]
    fn merged_partials_equal_a_single_sequential_index() {
        let cfg = BandConfig::new(12, 2, 5);
        let sketches: Vec<(u64, BottomKSample)> = (0..24u64)
            .map(|id| (id, sketch(24, 9, id * 20..id * 20 + 40)))
            .collect();
        let mut reference = BandIndex::new(cfg);
        for (id, s) in &sketches {
            reference.insert(*id, s);
        }
        for parts_n in [1usize, 2, 3, 5] {
            let mut parts: Vec<BandIndex> = (0..parts_n).map(|_| BandIndex::new(cfg)).collect();
            for (i, (id, s)) in sketches.iter().enumerate() {
                parts[i % parts_n].insert(*id, s);
            }
            let merged = BandIndex::merged(cfg, parts);
            assert_eq!(merged.len(), reference.len());
            assert_eq!(merged.candidate_pairs(), reference.candidate_pairs());
            for (id, s) in &sketches {
                assert_eq!(merged.candidates_of(s), reference.candidates_of(s));
                assert_eq!(merged.signature(*id), reference.signature(*id));
                assert_eq!(
                    merged.candidates_of_id(*id),
                    reference.candidates_of_id(*id)
                );
            }
            assert_probe_mutate_probe(merged, &sketches);
        }
    }

    #[test]
    fn candidates_of_signature_matches_candidates_of_id() {
        let cfg = BandConfig::new(12, 2, 5);
        let mut index = BandIndex::new(cfg);
        for id in 0..30u64 {
            index.insert(id, &sketch(24, 9, id * 20..id * 20 + 40));
        }
        for id in 0..30u64 {
            let sig = index.signature(id).unwrap().to_vec();
            assert_eq!(
                index.candidates_of_signature(&sig),
                index.candidates_of_id(id).unwrap(),
                "id={id}"
            );
        }
        // A foreign signature probes gracefully: out-of-range bands and
        // unknown hashes find nothing.
        assert_eq!(index.candidates_of_signature(&[(999, 1), (0, 2)]), vec![]);
        assert_eq!(index.candidates_of_signature(&[]), vec![]);
    }

    #[test]
    fn gathered_shard_probes_equal_one_global_index() {
        // The distributed live-join identity: partition ids across
        // "shards", probe each partial with one id's signature, union —
        // must equal probing the single global index.
        let cfg = BandConfig::new(12, 2, 5);
        let sketches: Vec<(u64, BottomKSample)> = (0..40u64)
            .map(|id| (id, sketch(24, 9, id * 15..id * 15 + 40)))
            .collect();
        let mut global = BandIndex::new(cfg);
        let mut parts: Vec<BandIndex> = (0..3).map(|_| BandIndex::new(cfg)).collect();
        for (id, s) in &sketches {
            global.insert(*id, s);
            parts[(*id % 3) as usize].insert(*id, s);
        }
        for (id, _) in &sketches {
            let sig = global.signature(*id).unwrap().to_vec();
            let mut gathered: Vec<u64> = parts
                .iter()
                .flat_map(|p| p.candidates_of_signature(&sig))
                .collect();
            gathered.sort_unstable();
            gathered.dedup();
            assert_eq!(gathered, global.candidates_of_id(*id).unwrap(), "id={id}");
        }
    }

    #[test]
    fn wire_round_trip_preserves_signatures_and_candidates() {
        let cfg = BandConfig::new(12, 2, 5);
        let mut sketches: Vec<(u64, BottomKSample)> = (0..30u64)
            .map(|id| (id, sketch(24, 9, id * 20..id * 20 + 40)))
            .collect();
        // Include an empty-signature id, the sparse-instance edge.
        sketches.push((999, sketch(8, 9, [5u64])));
        let mut index = BandIndex::new(cfg);
        for (id, s) in &sketches {
            index.insert(*id, s);
        }

        let mut enc = Enc::new();
        index.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let back = BandIndex::decode(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(back.config(), index.config());
        assert_eq!(back.len(), index.len());
        assert_eq!(back.candidate_pairs(), index.candidate_pairs());
        for id in index.ids() {
            assert_eq!(back.signature(id), index.signature(id), "id={id}");
            assert_eq!(
                back.candidates_of_id(id),
                index.candidates_of_id(id),
                "id={id}"
            );
        }
        // Re-encoding the decoded index is byte-identical.
        let mut re = Enc::new();
        back.encode_into(&mut re);
        assert_eq!(re.into_bytes(), bytes);
        assert_probe_mutate_probe(BandIndex::decode(&mut Dec::new(&bytes)).unwrap(), &sketches);
    }

    #[test]
    fn wire_decode_rejects_corruption() {
        let cfg = BandConfig::new(4, 1, 3);
        let mut index = BandIndex::new(cfg);
        index.insert(1, &sketch(16, 9, 0..30));
        let mut enc = Enc::new();
        index.encode_into(&mut enc);
        let good = enc.into_bytes();

        let mut bad = good.clone();
        bad[0] = 0xee; // version
        assert!(BandIndex::decode(&mut Dec::new(&bad)).is_err());
        // Zero bands, then zero rows: the config fields follow the
        // version byte as two 8-byte counts.
        for field in [1..9, 9..17] {
            let mut bad = good.clone();
            bad[field].fill(0);
            assert!(matches!(
                BandIndex::decode(&mut Dec::new(&bad)),
                Err(Error::Encoding(msg)) if msg.contains("degenerate")
            ));
        }
        // Config sizes come from another process and must not size an
        // allocation: 2^40 bands in a 33-byte payload, and a
        // `bands · rows` product that overflows.
        for (bands, rows) in [(1usize << 40, 1usize), (1 << 33, 1 << 33)] {
            let mut enc = Enc::new();
            enc.put_u8(WIRE_VERSION);
            enc.put_len(bands);
            enc.put_len(rows);
            enc.put_u64(3);
            enc.put_len(0);
            let bad = enc.into_bytes();
            assert_eq!(bad.len(), 33);
            assert!(matches!(
                BandIndex::decode(&mut Dec::new(&bad)),
                Err(Error::Encoding(msg)) if msg.contains("exceeds")
            ));
        }
        for cut in 0..good.len() {
            assert!(
                BandIndex::decode(&mut Dec::new(&good[..cut])).is_err(),
                "truncation at {cut} slipped through"
            );
        }
    }

    /// Corruption sweep: every truncation and every single-bit flip of a
    /// pinned 16×2 index of a few ids decodes to `Ok` or to a typed
    /// `Encoding` error, never a panic — and an index that does decode
    /// builds its bucket table and extracts pairs without panicking.
    #[test]
    fn decode_survives_every_truncation_and_bit_flip() {
        let mut index = BandIndex::new(BandConfig::new(16, 2, 0x5eed_0016));
        for id in 0..4u64 {
            index.insert(id * 11, &sketch(32, 9, id * 6..id * 6 + 48));
        }
        assert!(!index.candidate_pairs().is_empty());
        let mut enc = Enc::new();
        index.encode_into(&mut enc);
        let good = enc.into_bytes();
        let cuts = (0..good.len()).map(|cut| good[..cut].to_vec());
        let flips = (0..good.len() * 8).map(|bit| {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            bad
        });
        let (mut ok, mut refused) = (0, 0);
        for bad in cuts.chain(flips) {
            match BandIndex::decode(&mut Dec::new(&bad)) {
                Ok(back) => {
                    ok += 1;
                    back.candidate_pairs();
                }
                Err(Error::Encoding(_)) => refused += 1,
                Err(other) => panic!("decode failed with a non-encoding error: {other:?}"),
            }
        }
        // Flipped hash bits decode; truncations and version flips do not.
        assert!(ok > 0 && refused > good.len());
    }

    #[test]
    #[should_panic(expected = "disjoint ids")]
    fn merged_rejects_duplicate_ids() {
        let cfg = BandConfig::new(4, 1, 0);
        let s = sketch(8, 9, 0..10);
        let mut a = BandIndex::new(cfg);
        let mut b = BandIndex::new(cfg);
        a.insert(1, &s);
        b.insert(1, &s);
        BandIndex::merged(cfg, vec![a, b]);
    }
}
