//! Coordinated bottom-k sampling under priority ranks, with per-item
//! conditioned thresholds.
//!
//! A bottom-k sketch ranks every item by `u/w` — its shared seed `u`
//! over its weight `w` (priority, or sequential Poisson, sampling) — and
//! keeps the `k` smallest ranks. The paper (footnote 1) reduces bottom-k
//! to monotone sampling per item by conditioning on the seeds of the
//! other items: the item is included iff its rank is below the k-th
//! smallest rank among the *others*, which is a fixed threshold `τ` once
//! the others are fixed. Under priority ranks that test,
//! `u/w < τ ⟺ w > u · (1/τ)`, is a coordinated-PPS threshold with scale
//! `1/τ` — the per-item threshold scheme the estimators consume.
//!
//! A rank is a pure function of the shared seed hash, the key and the
//! weight, so neither a resident [`BottomKStream`] nor a
//! [`BottomKSample`] stores one per entry: both keep `(key, weight)`
//! pairs in rank order plus the two threshold ranks r₍ₖ₎ and r₍ₖ₊₁₎,
//! and re-derive an entry's rank, `seed(key) / w`, bit for bit whenever
//! one is needed.

use monotone_core::scheme::{EntryState, LinearThreshold, Outcome, TupleScheme};

use crate::instance::Instance;
use crate::seed::SeedHasher;
use crate::wire::{Dec, Enc};

/// Version byte leading every [`BottomKSample`] wire payload. Bump on any
/// layout change; decoders reject versions they do not know.
const WIRE_VERSION: u8 = 1;

/// The rank-method byte that follows the version: always 0, priority
/// ranks. It stays in the layout so priority samples keep their bytes and
/// the store's protocol version.
const PRIORITY_TAG: u8 = 0;

/// Keys [`BottomK::ingest`] hashes per [`SeedHasher::seed_many`] call,
/// through stack buffers.
const CHUNK: usize = 64;

/// Largest `k + 1` whose re-derived resident `(rank, key, weight)`
/// triples fit a stack buffer; a larger `k` re-derives them into one
/// heap buffer per accepting batch.
const STACK_RANKS: usize = 64;

/// The PPS scale of a conditioned rank threshold `τ`: an item of weight
/// `w` is included iff `u/w < τ` ⟺ `w > u · (1/τ)`. An infinite `τ` (fewer
/// than `k` others) maps to [`f64::MIN_POSITIVE`], "always included"; a
/// subnormal `τ` yields scale `∞`, "never included".
fn pps_scale(tau: f64) -> f64 {
    if tau.is_finite() {
        1.0 / tau
    } else {
        f64::MIN_POSITIVE
    }
}

/// The rank `u/w` of an observation of weight `w` at seed `u`, or `None`
/// when the sampler never retains it: an inactive weight (`w <= 0`,
/// non-finite) or an infinite rank. A positive weight at or below
/// `1.0 / f64::MAX` (2⁻¹⁰²⁴, about 5.6·10⁻³⁰⁹, subnormal) can overflow
/// `u/w` to `+∞` at its key's seed, and is then dropped like a zero.
fn rank_of(u: f64, w: f64) -> Option<f64> {
    let rank = u / w;
    (w > 0.0 && w.is_finite() && rank.is_finite()).then_some(rank)
}

/// The `(rank, key)` order of `(rank, key, weight)` triples: rank ties
/// break by key, exactly like the stable sort over key-ascending input
/// the batch sampler used to run.
fn by_rank_key(a: &(f64, u64, f64), b: &(f64, u64, f64)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Copies the keys of `items` (at most [`CHUNK`]) into `keys` and hashes
/// them into `seeds`, returning the filled prefix of `seeds`.
fn seed_chunk<'a>(
    seeder: &SeedHasher,
    items: &[(u64, f64)],
    keys: &mut [u64; CHUNK],
    seeds: &'a mut [f64; CHUNK],
) -> &'a [f64] {
    let n = items.len();
    for (slot, &(key, _)) in keys.iter_mut().zip(items) {
        *slot = key;
    }
    seeder.seed_many(&keys[..n], &mut seeds[..n]);
    &seeds[..n]
}

/// A bottom-k sample of one instance: the `k` lowest-rank items plus the
/// rank thresholds needed for conditioned estimation.
///
/// The sample holds `k`, the shared seed hash, the retained `(key,
/// weight)` entries ascending by `(rank, key)`, the k-th smallest rank
/// r₍ₖ₎ and the (k+1)-th r₍ₖ₊₁₎ — no rank per entry: an entry's rank is
/// `seeder.seed(key) / weight`, re-derived bit for bit by
/// [`encode_into`](BottomKSample::encode_into), the only reader that
/// needs one.
#[derive(Debug, Clone, PartialEq)]
pub struct BottomKSample {
    k: usize,
    seeder: SeedHasher,
    /// `(key, weight)` of retained items, ascending by `(rank, key)`.
    entries: Vec<(u64, f64)>,
    /// r₍ₖ₎, the last retained entry's rank once `k` are retained; `+∞`
    /// while fewer are.
    kth_rank: f64,
    /// r₍ₖ₊₁₎, the (k+1)-th smallest rank overall; `+∞` when at most `k`
    /// items had a finite rank.
    next_rank: f64,
}

impl BottomKSample {
    /// The sample-size parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The sampled weight of `key`, if included.
    pub fn get(&self, key: u64) -> Option<f64> {
        self.entries
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, w)| w)
    }

    /// Whether `key` is in the sample.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Number of retained items: at most `min(k, instance size)`, and
    /// strictly fewer when items carried an infinite rank. A positive
    /// weight at or below `1.0 / f64::MAX` (2⁻¹⁰²⁴, about 5.6·10⁻³⁰⁹,
    /// subnormal) can rank `u/w = +∞` at its key's seed; such an item is
    /// never retained, like a zero weight.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(key, weight)` of retained items by ascending rank.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The conditioned rank threshold for `key`: the k-th smallest rank
    /// among the *other* items (`+∞` when fewer than `k` others exist).
    /// An item is included iff its own rank is strictly below this.
    pub fn conditioned_rank_threshold(&self, key: u64) -> f64 {
        if self.contains(key) {
            // Others' k-th smallest = the (k+1)-th overall.
            self.next_rank
        } else {
            // k-th smallest overall = largest retained rank, or +∞ when
            // fewer than k items exist and everything is included.
            self.kth_rank
        }
    }

    /// The PPS scale of the conditioned scheme shared by every retained
    /// item: the k-th smallest rank among the others of a retained item
    /// is the `(k+1)`-th smallest overall, `τ`, so a retained item of
    /// weight `w` was included iff `u/w < τ`, i.e. `w >= u · (1/τ)` —
    /// a coordinated-PPS threshold with scale `1/τ`, one number per
    /// sketch. An infinite `τ` (the whole instance fit in the sample)
    /// maps to [`f64::MIN_POSITIVE`] ("always included"), matching
    /// [`BottomK::priority_item_problem`].
    pub fn priority_conditioned_scale(&self) -> f64 {
        pps_scale(self.next_rank)
    }

    /// The retained `(key, weight)` entries sorted by **key** (the
    /// [`iter`](BottomKSample::iter) order is by rank) — the layout
    /// sketch-union merge cursors consume.
    pub fn entries_by_key(&self) -> Vec<(u64, f64)> {
        let mut out = self.entries.clone();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Appends this sample's stable, versioned wire form to `out` — the
    /// snapshot format a remote shard ships to the store router. Each
    /// entry travels as `(rank, key, weight)`, its rank re-derived from
    /// the seed hash, and floats travel as raw IEEE-754 bits, so
    /// [`decode`](BottomKSample::decode) reproduces the sample **bit for
    /// bit** (thresholds and weights included), which is what keeps a
    /// process-sharded store's estimates byte-identical to an
    /// in-process one.
    pub fn encode_into(&self, out: &mut Enc) {
        out.put_u8(WIRE_VERSION);
        out.put_u8(PRIORITY_TAG);
        out.put_len(self.k);
        if self.next_rank.is_finite() {
            out.put_u8(1);
            out.put_f64(self.next_rank);
        } else {
            out.put_u8(0);
        }
        out.put_len(self.entries.len());
        for &(key, weight) in &self.entries {
            out.put_f64(self.seeder.seed(key) / weight);
            out.put_u64(key);
            out.put_f64(weight);
        }
    }

    /// Decodes one sample from `dec` under the seed-hash salt `salt` the
    /// encoder sampled with. It validates the version byte, the
    /// rank-method byte (priority ranks, tag 0, are the only method),
    /// every entry's rank against `seed(key) / weight` at that salt
    /// (which also refuses an entry the sampler never retains: an
    /// inactive weight or an infinite rank), the `(rank, key)`-ascending
    /// entry order the sampler guarantees, and a next rank that is finite
    /// and not below the last retained rank — corruption surfaces as a
    /// typed error, never as a sample whose ranks disagree with its
    /// weights.
    ///
    /// # Errors
    ///
    /// [`monotone_core::Error::Encoding`] on truncation, an unknown
    /// version or rank-method tag, a rank that is not its entry's,
    /// out-of-order entries, or an out-of-place next rank.
    pub fn decode(dec: &mut Dec<'_>, salt: u64) -> monotone_core::Result<BottomKSample> {
        let bad = |what: String| Err(monotone_core::Error::Encoding(what));
        let seeder = SeedHasher::new(salt);
        let version = dec.take_u8()?;
        if version != WIRE_VERSION {
            return bad(format!("unknown BottomKSample wire version {version}"));
        }
        let tag = dec.take_u8()?;
        if tag != PRIORITY_TAG {
            return bad(format!("unknown rank-method tag {tag}"));
        }
        let k = dec.take_len()?;
        let next_rank = match dec.take_u8()? {
            0 => f64::INFINITY,
            1 => match dec.take_f64()? {
                rank if rank.is_finite() => rank,
                rank => return bad(format!("non-finite next rank {rank}")),
            },
            t => return bad(format!("bad next-rank flag {t}")),
        };
        let n = dec.take_len()?;
        if n > k {
            return bad(format!("sample claims {n} entries for k = {k}"));
        }
        // An entry is 24 wire bytes: reserve no more than the payload can
        // still hold, so a corrupt count fails as truncation below.
        let mut entries: Vec<(u64, f64)> = Vec::with_capacity(n.min(dec.remaining() / 24));
        let mut last: Option<(f64, u64, f64)> = None;
        for _ in 0..n {
            let rank = dec.take_f64()?;
            let key = dec.take_u64()?;
            let weight = dec.take_f64()?;
            let derived = rank_of(seeder.seed(key), weight);
            if derived.map(f64::to_bits) != Some(rank.to_bits()) {
                return bad(format!("entry rank {rank} is not seed({key}) / {weight}"));
            }
            let entry = (rank, key, weight);
            if last.is_some_and(|last| !by_rank_key(&last, &entry).is_lt()) {
                return bad("sample entries out of (rank, key) order".to_owned());
            }
            last = Some(entry);
            entries.push((key, weight));
        }
        let last_rank = last.map_or(0.0, |(rank, _, _)| rank);
        if next_rank < last_rank {
            return bad(format!(
                "next rank {next_rank} below retained rank {last_rank}"
            ));
        }
        let kth_rank = match last {
            Some((rank, _, _)) if n == k => rank,
            _ => f64::INFINITY,
        };
        Ok(BottomKSample {
            k,
            seeder,
            entries,
            kth_rank,
            next_rank,
        })
    }
}

/// The online insert/evict path of bottom-k sampling: a resident sampler
/// that consumes `(key, weight)` observations batch by batch and
/// maintains the `k + 1` smallest finite ranks seen — the `k` retained
/// entries plus the `(k+1)`-th, the conditioned threshold of every
/// retained item — in `O(k)` memory, with no access to the full
/// instance ever.
///
/// **Layout.** A stream holds at most `k + 1` `(key, weight)` entries,
/// always ascending by `(rank, key)`, plus two ranks: r₍ₖ₎ of the k-th
/// entry and r₍ₖ₊₁₎ of the (k+1)-th, each `+∞` while the stream holds
/// fewer entries. Nothing else: `k` and the seed hash live once in the
/// [`BottomK`] that feeds it, and every other rank is re-derived from
/// the seed hash when an insert needs it. A resident stream costs
/// `size_of::<BottomKStream>() + 16 (k + 1)` bytes, 40 + 528 at k = 32.
///
/// **Ingest.** [`BottomK::ingest`] ranks a batch in bulk and rejects
/// each observation at or above r₍ₖ₊₁₎ with one comparison — almost
/// every observation of a warm stream. Only a batch that accepts one
/// re-derives the resident ranks and inserts over them. A
/// [`snapshot`](BottomK::snapshot) copies the first `k` entries and both
/// ranks.
///
/// [`BottomK::sample_instance`] is this stream fed from an [`Instance`]:
/// the two paths are bit-identical by construction, and the retained
/// entries do not depend on arrival order or on how observations are
/// split into batches (regression-tested), so a sketch built
/// incrementally by a long-running store serves the same estimates as
/// one sampled from the full weight map.
///
/// Observations with non-positive or non-finite weight are inactive and
/// ignored (the contract of [`Instance::from_pairs`]); keys are assumed
/// distinct — re-inserting a key streams a second independent observation
/// of it, so callers with update semantics must deduplicate upstream.
///
/// # Examples
///
/// ```
/// use monotone_coord::bottomk::BottomK;
/// use monotone_coord::instance::Instance;
/// use monotone_coord::seed::SeedHasher;
///
/// let inst = Instance::from_pairs((0..100u64).map(|k| (k, 1.0 + (k % 5) as f64)));
/// let sampler = BottomK::new(10, SeedHasher::new(3));
/// // Stream the items in batches of 7 — identical to sampling in batch.
/// let items: Vec<(u64, f64)> = inst.iter().collect();
/// let mut stream = sampler.stream();
/// for batch in items.chunks(7) {
///     sampler.ingest(&mut stream, batch);
/// }
/// assert_eq!(sampler.snapshot(&stream), sampler.sample_instance(&inst));
/// ```
#[derive(Debug, Clone)]
pub struct BottomKStream {
    /// `(key, weight)` of the `k + 1` smallest finite ranks seen,
    /// ascending by `(rank, key)`.
    entries: Vec<(u64, f64)>,
    /// r₍ₖ₎, the rank of `entries[k - 1]`; `+∞` while fewer than `k`.
    kth_rank: f64,
    /// r₍ₖ₊₁₎, the rank of `entries[k]`; `+∞` while fewer than `k + 1`,
    /// so that every finite rank passes the rejection test.
    next_rank: f64,
}

impl BottomKStream {
    /// Number of ranked entries currently resident (at most `k + 1`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before any active observation arrived.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained entries: all but the (k+1)-th, which is resident
    /// exactly when r₍ₖ₊₁₎ is finite.
    fn retained(&self) -> &[(u64, f64)] {
        let full = usize::from(self.next_rank.is_finite());
        &self.entries[..self.entries.len() - full]
    }

    /// The keys of the retained entries in ascending rank order — what a
    /// band signature reads — without copying a snapshot.
    pub fn retained_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.retained().iter().map(|&(key, _)| key)
    }
}

/// Coordinated bottom-k sampler under priority ranks `u/w`.
///
/// # Examples
///
/// ```
/// use monotone_coord::bottomk::BottomK;
/// use monotone_coord::instance::Instance;
/// use monotone_coord::seed::SeedHasher;
///
/// let inst = Instance::from_pairs((0..100u64).map(|k| (k, 1.0 + (k % 5) as f64)));
/// let sampler = BottomK::new(10, SeedHasher::new(3));
/// let sample = sampler.sample_instance(&inst);
/// assert_eq!(sample.len(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottomK {
    k: usize,
    seeder: SeedHasher,
}

impl BottomK {
    /// Creates a bottom-k sampler.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, seeder: SeedHasher) -> BottomK {
        assert!(k > 0, "bottom-k needs k >= 1");
        BottomK { k, seeder }
    }

    /// The sample size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The shared seed hasher.
    pub fn seeder(&self) -> &SeedHasher {
        &self.seeder
    }

    /// An empty online sampler for this sampler's `k` and seed hash to
    /// [`ingest`](BottomK::ingest) into — the streaming insert/evict path
    /// resident stores hold one of per instance ([`BottomKStream`]).
    pub fn stream(&self) -> BottomKStream {
        BottomKStream {
            entries: Vec::with_capacity(self.k + 1),
            kth_rank: f64::INFINITY,
            next_rank: f64::INFINITY,
        }
    }

    /// Feeds a batch of observations to `stream`, which must come from
    /// this sampler's [`stream`](BottomK::stream): each is ranked `u/w`,
    /// kept while it is among the `k + 1` smallest finite ranks, and the
    /// largest is evicted otherwise. Inactive observations (`w <= 0`,
    /// non-finite `w`) and infinite ranks are never retained: a positive
    /// weight at or below `1.0 / f64::MAX` (2⁻¹⁰²⁴, about 5.6·10⁻³⁰⁹,
    /// subnormal) can overflow `u/w` to `+∞` at its key's seed, and is
    /// then dropped like a zero.
    ///
    /// The batch is hashed in bulk ([`SeedHasher::seed_many`]) and each
    /// observation ranking above r₍ₖ₊₁₎ is rejected with one comparison.
    /// Only from the first observation that passes on are the resident
    /// ranks re-derived, into a scratch buffer, and the rest of the batch
    /// inserted over them; the thresholds are written back at the end.
    /// The retained entries are the `k + 1` smallest by `(rank, key)`
    /// however the observations are split into batches.
    ///
    /// Returns whether the retained state changed — `true` exactly when
    /// some observation was retained (so a subsequent
    /// [`snapshot`](BottomK::snapshot) differs from the one before the
    /// batch), `false` when all were rejected. In a warm stream almost
    /// every observation is rejected, which is what lets callers
    /// maintaining derived state (a live band index, say) pay the
    /// re-derivation cost only on the `O(k log n)` accepted inserts.
    pub fn ingest(&self, stream: &mut BottomKStream, items: &[(u64, f64)]) -> bool {
        let (mut keys, mut seeds) = ([0; CHUNK], [0.0; CHUNK]);
        for (c, chunk) in items.chunks(CHUNK).enumerate() {
            let seeds = seed_chunk(&self.seeder, chunk, &mut keys, &mut seeds);
            let first = chunk.iter().zip(seeds).position(|(&(_, w), &u)| {
                rank_of(u, w).is_some_and(|rank| rank <= stream.next_rank)
            });
            if let Some(i) = first {
                return self.insert_from(stream, &items[c * CHUNK + i..]);
            }
        }
        false
    }

    /// The accepting half of [`ingest`](BottomK::ingest): re-derives the
    /// resident `(rank, key, weight)` triples into a scratch buffer, runs
    /// the insertion below over every observation of `items`, and writes
    /// keys, weights and both thresholds back.
    ///
    /// The insertion keeps arrival order until the buffer first fills to
    /// `k + 1` and sorts it by `(rank, key)` once; from then on a warm
    /// rejection is one comparison with the last triple, and an accepted
    /// insert shifts the larger triples up one slot over the evicted last
    /// one, walking from the end (measured faster than a binary search
    /// plus `Vec::insert` at sketch sizes).
    fn insert_from(&self, stream: &mut BottomKStream, items: &[(u64, f64)]) -> bool {
        let k = self.k;
        let (mut stack, mut heap) = ([(0.0, 0, 0.0); STACK_RANKS], Vec::new());
        let ranked = if k < STACK_RANKS {
            &mut stack[..=k]
        } else {
            heap.resize(k + 1, (0.0, 0, 0.0));
            &mut heap[..]
        };
        let (mut keys, mut seeds) = ([0; CHUNK], [0.0; CHUNK]);
        for (chunk, out) in stream.entries.chunks(CHUNK).zip(ranked.chunks_mut(CHUNK)) {
            let seeds = seed_chunk(&self.seeder, chunk, &mut keys, &mut seeds);
            for ((slot, &u), &(key, w)) in out.iter_mut().zip(seeds).zip(chunk) {
                *slot = (u / w, key, w);
            }
        }
        let mut len = stream.entries.len();
        let mut changed = false;
        for chunk in items.chunks(CHUNK) {
            let seeds = seed_chunk(&self.seeder, chunk, &mut keys, &mut seeds);
            for (&(key, w), &u) in chunk.iter().zip(seeds) {
                let Some(rank) = rank_of(u, w) else {
                    continue;
                };
                let entry = (rank, key, w);
                if len <= k {
                    ranked[len] = entry;
                    len += 1;
                    if len > k {
                        ranked.sort_unstable_by(by_rank_key);
                    }
                } else if by_rank_key(&entry, &ranked[k]).is_lt() {
                    let mut at = k;
                    while at > 0 && by_rank_key(&entry, &ranked[at - 1]).is_lt() {
                        ranked[at] = ranked[at - 1];
                        at -= 1;
                    }
                    ranked[at] = entry;
                } else {
                    continue;
                }
                changed = true;
            }
        }
        let ranked = &mut ranked[..len];
        if len <= k {
            ranked.sort_unstable_by(by_rank_key);
        }
        stream.entries.clear();
        stream
            .entries
            .extend(ranked.iter().map(|&(_, key, w)| (key, w)));
        let rank_at = |i: usize| ranked.get(i).map_or(f64::INFINITY, |t| t.0);
        stream.kth_rank = rank_at(k - 1);
        stream.next_rank = rank_at(k);
        changed
    }

    /// Snapshots `stream`'s current sample without consuming it (live
    /// queries over a store that keeps ingesting): the first `k` entries
    /// and both thresholds, no ranks.
    pub fn snapshot(&self, stream: &BottomKStream) -> BottomKSample {
        BottomKSample {
            k: self.k,
            seeder: self.seeder,
            entries: stream.retained().to_vec(),
            kth_rank: stream.kth_rank,
            next_rank: stream.next_rank,
        }
    }

    /// Samples one instance: the `k` smallest-rank items.
    ///
    /// This is [`BottomK::stream`] fed with the instance's items in one
    /// [`ingest`](BottomK::ingest) batch — the batch path **is** the
    /// online path, so incrementally built sketches and full-map samples
    /// are identical by construction.
    ///
    /// Items with an infinite rank (a positive weight at or below
    /// `1.0 / f64::MAX`, 2⁻¹⁰²⁴ and subnormal, can overflow `u/w` to `+∞`) are
    /// never retained, even when the instance has fewer than `k` items:
    /// an infinite rank is below no threshold, so retaining such an item
    /// would break the membership rule
    /// `contains(key) ⟺ rank < conditioned_rank_threshold(key)` and hand
    /// estimators an outcome claiming a sample the scheme says is
    /// impossible. An infinite `(k+1)`-th rank likewise never becomes a
    /// conditioned threshold value (it is equivalent to "fewer than `k`
    /// others exist").
    pub fn sample_instance(&self, inst: &Instance) -> BottomKSample {
        let items: Vec<(u64, f64)> = inst.iter().collect();
        let mut stream = self.stream();
        self.ingest(&mut stream, &items);
        self.snapshot(&stream)
    }

    /// The conditioned per-item monotone problem of `key` over coordinated
    /// `samples`: a PPS scheme (`τ_i(u) = u / τ_rank,i`, one entry per
    /// sample) plus the item's outcome.
    ///
    /// # Errors
    ///
    /// Propagates outcome validation errors.
    pub fn priority_item_problem(
        &self,
        samples: &[BottomKSample],
        key: u64,
    ) -> monotone_core::Result<(TupleScheme<LinearThreshold>, Outcome)> {
        let u = self.seeder.seed(key);
        let mut thresholds = Vec::with_capacity(samples.len());
        let mut entries = Vec::with_capacity(samples.len());
        for s in samples {
            let scale = pps_scale(s.conditioned_rank_threshold(key));
            thresholds.push(LinearThreshold::new(scale)?);
            entries.push(match s.get(key) {
                Some(w) => EntryState::Known(w),
                None => EntryState::Capped,
            });
        }
        Ok((
            TupleScheme::new(thresholds),
            Outcome::from_parts(u, entries)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monotone_core::scheme::ThresholdFn;

    /// A positive subnormal weight: `u / TINY` overflows to `+∞` at every
    /// seed above about 2⁻⁵⁰, i.e. at every hashed seed but a handful.
    const TINY: f64 = 5e-324;

    fn test_instance(n: u64) -> Instance {
        Instance::from_pairs((0..n).map(|k| (k, 0.5 + (k % 9) as f64 / 3.0)))
    }

    #[test]
    fn sample_has_k_smallest_ranks() {
        let inst = test_instance(200);
        let sampler = BottomK::new(20, SeedHasher::new(5));
        let s = sampler.sample_instance(&inst);
        assert_eq!(s.len(), 20);
        // Every non-sampled item must have rank >= every sampled rank.
        let max_in = s.kth_rank;
        assert_eq!(max_in, s.conditioned_rank_threshold(u64::MAX));
        for (key, w) in inst.iter() {
            if !s.contains(key) {
                let r = sampler.seeder().seed(key) / w;
                assert!(r >= max_in, "missed a smaller rank: {r} < {max_in}");
            }
        }
    }

    #[test]
    fn membership_iff_rank_below_conditioned_threshold() {
        // The defining property of the conditioned reduction (footnote 1).
        let inst = test_instance(100);
        let sampler = BottomK::new(10, SeedHasher::new(7));
        let s = sampler.sample_instance(&inst);
        for (key, w) in inst.iter() {
            let r = sampler.seeder().seed(key) / w;
            let tau = s.conditioned_rank_threshold(key);
            assert_eq!(s.contains(key), r < tau, "key {key}: rank {r} vs tau {tau}");
        }
    }

    #[test]
    fn small_instance_keeps_everything() {
        let inst = test_instance(5);
        let sampler = BottomK::new(10, SeedHasher::new(2));
        let s = sampler.sample_instance(&inst);
        assert_eq!(s.len(), 5);
        assert_eq!(s.conditioned_rank_threshold(3), f64::INFINITY);
    }

    #[test]
    fn coordinated_bottomk_is_lsh() {
        let inst = test_instance(300);
        let sampler = BottomK::new(30, SeedHasher::new(13));
        let a = sampler.sample_instance(&inst);
        let b = sampler.sample_instance(&inst.clone());
        let ka: Vec<u64> = a.iter().map(|(k, _)| k).collect();
        let kb: Vec<u64> = b.iter().map(|(k, _)| k).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn priority_item_problem_consistent() {
        // The conditioned scheme must agree with actual membership: entry i
        // known iff the item's weight clears the threshold at its seed.
        let inst_a = test_instance(80);
        let inst_b = Instance::from_pairs(inst_a.iter().map(|(k, w)| (k, w * 1.3)));
        let sampler = BottomK::new(12, SeedHasher::new(21));
        let samples = vec![
            sampler.sample_instance(&inst_a),
            sampler.sample_instance(&inst_b),
        ];
        for (key, _) in inst_a.iter() {
            let (scheme, outcome) = sampler.priority_item_problem(&samples, key).unwrap();
            let u = sampler.seeder().seed(key);
            for i in 0..2 {
                let w = [inst_a.weight(key), inst_b.weight(key)][i];
                let sampled_by_scheme = w >= scheme.thresholds()[i].cap(u);
                assert_eq!(
                    outcome.known(i).is_some(),
                    sampled_by_scheme,
                    "key {key} instance {i}"
                );
            }
        }
    }

    /// A subnormal weight ranks `u/w = +∞`. End to end, such an item must
    /// never be retained, the membership rule must stay consistent, and
    /// the conditioned item problem must agree with the sample.
    #[test]
    fn infinite_rank_item_is_never_sampled() {
        let seeder = SeedHasher::new(77);
        let poisoned = 3u64;
        assert_eq!(seeder.seed(poisoned) / TINY, f64::INFINITY);

        // Fewer items than k: retaining the infinite-rank item here would
        // break the membership rule below.
        let inst = Instance::from_pairs([(1u64, 0.8), (2, 1.4), (poisoned, TINY)]);
        assert_eq!(inst.len(), 3, "the subnormal weight is active");
        let sampler = BottomK::new(4, seeder);
        let s = sampler.sample_instance(&inst);
        assert!(
            !s.contains(poisoned),
            "infinite-rank item must not be in the sample"
        );
        assert_eq!(s.len(), 2);
        for (key, w) in inst.iter() {
            let rank = seeder.seed(key) / w;
            let tau = s.conditioned_rank_threshold(key);
            assert_eq!(s.contains(key), rank < tau, "membership rule at key {key}");
        }

        // The conditioned monotone problem for the poisoned item: capped in
        // every instance, below a cap its weight really is under, with a
        // finite, zero estimate.
        let samples = vec![s.clone(), sampler.sample_instance(&inst)];
        let (scheme, outcome) = sampler.priority_item_problem(&samples, poisoned).unwrap();
        let u = seeder.seed(poisoned);
        assert_eq!(outcome.seed(), u);
        for i in 0..2 {
            assert_eq!(outcome.known(i), None, "instance {i} must be capped");
            assert!(TINY < scheme.thresholds()[i].cap(u));
        }
        let mep =
            monotone_core::problem::Mep::new(monotone_core::func::RangePowPlus::new(1.0), scheme)
                .unwrap();
        let est = monotone_core::estimate::LStar::new();
        let e = monotone_core::estimate::MonotoneEstimator::estimate(&est, &mep, &outcome);
        assert_eq!(e, 0.0, "all-capped outcome must estimate 0, got {e}");
    }

    /// When the infinite rank would be the (k+1)-th, it must not become a
    /// conditioned threshold value, and the sample must be the one the
    /// finite-rank items alone give.
    #[test]
    fn infinite_next_rank_does_not_poison_thresholds() {
        let seeder = SeedHasher::new(5);
        let poisoned = 9u64;
        // k items with finite ranks plus the infinite-rank item.
        let finite = Instance::from_pairs((0..3u64).map(|k| (k, 1.0 + k as f64)));
        let mut inst = finite.clone();
        inst.set(poisoned, TINY);
        let sampler = BottomK::new(3, seeder);
        let s = sampler.sample_instance(&inst);
        assert_eq!(s, sampler.sample_instance(&finite));
        assert!(!s.contains(poisoned));
        // Retained items condition on the others' k-th smallest rank, which
        // is infinite here — "always included", never a poisoned finite
        // value; and the threshold for the poisoned item stays consistent.
        for (key, w) in inst.iter() {
            let rank = seeder.seed(key) / w;
            let tau = s.conditioned_rank_threshold(key);
            assert!(tau > 0.0);
            assert_eq!(s.contains(key), rank < tau, "membership rule at key {key}");
        }
    }

    /// The pre-stream batch algorithm (rank every active item, sort by
    /// `(rank, key)`, truncate), kept as the reference the online path
    /// must reproduce bit for bit from any arrival order and batch split.
    fn sort_based_sample(sampler: &BottomK, items: &[(u64, f64)]) -> BottomKSample {
        let k = sampler.k();
        let mut ranked: Vec<(f64, u64, f64)> = items
            .iter()
            .filter(|&&(_, w)| w > 0.0 && w.is_finite())
            .map(|&(key, w)| (sampler.seeder().seed(key) / w, key, w))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let next_rank = ranked
            .get(k)
            .map(|&(r, _, _)| r)
            .filter(|r| r.is_finite())
            .unwrap_or(f64::INFINITY);
        ranked.truncate(k);
        ranked.retain(|&(r, _, _)| r.is_finite());
        let kth_rank = match ranked.get(k - 1) {
            Some(&(r, _, _)) => r,
            None => f64::INFINITY,
        };
        BottomKSample {
            k,
            seeder: *sampler.seeder(),
            entries: ranked.iter().map(|&(_, key, w)| (key, w)).collect(),
            kth_rank,
            next_rank,
        }
    }

    #[test]
    fn streamed_sample_is_bit_identical_to_sort_based() {
        // Streams that never fill (n <= k), that fill exactly at the last
        // item (n = k + 1), and that run warm long after.
        let mut cases: Vec<(String, BottomK, Vec<(u64, f64)>)> = [
            (0u64, 3),
            (3, 8),
            (7, 7),
            (8, 7),
            (50, 7),
            (200, 20),
            (64, 64),
            (65, 64),
            (1, 1),
            (40, 1),
        ]
        .into_iter()
        .map(|(n, k)| {
            let inst = test_instance(n);
            let sampler = BottomK::new(k, SeedHasher::new(n + k as u64));
            let items: Vec<(u64, f64)> = inst.iter().collect();
            assert_eq!(
                sampler.sample_instance(&inst),
                sort_based_sample(&sampler, &items),
                "n={n} k={k}"
            );
            (format!("n={n} k={k}"), sampler, items)
        })
        .collect();
        // Repeated keys: each repeat is a second observation, with the
        // same weight (an equal (rank, key) entry) or another one.
        let repeated = (0..150u64).map(|i| (i % 40, 1.0 + (i % 3 * (i / 40)) as f64));
        cases.push((
            "repeated keys".to_owned(),
            BottomK::new(7, SeedHasher::new(17)),
            repeated.collect(),
        ));
        // Subnormal weights rank +∞ and are never retained; zero weights
        // are inactive.
        let tiny = (0..120u64).map(|k| (k, [TINY, 0.0, 0.5 + (k % 7) as f64][(k % 3) as usize]));
        cases.push((
            "TINY weights".to_owned(),
            BottomK::new(16, SeedHasher::new(77)),
            tiny.collect(),
        ));
        // Every batch split, in arrival order and reversed: after every
        // batch the live snapshot equals the reference sample of what
        // arrived so far, and the batch reports a change exactly when the
        // snapshot changed.
        for (name, sampler, mut items) in cases {
            let whole = sort_based_sample(&sampler, &items);
            for reversed in [false, true] {
                if reversed {
                    items.reverse();
                }
                for size in [1, 2, 63, 64, 65, items.len().max(1)] {
                    let mut stream = sampler.stream();
                    let mut before = sampler.snapshot(&stream);
                    for (b, batch) in items.chunks(size).enumerate() {
                        let changed = sampler.ingest(&mut stream, batch);
                        let end = b * size + batch.len();
                        let at = format!("{name} rev={reversed} batch={size} prefix={end}");
                        let snapshot = sampler.snapshot(&stream);
                        assert_eq!(snapshot, sort_based_sample(&sampler, &items[..end]), "{at}");
                        assert_eq!(changed, snapshot != before, "{at}");
                        before = snapshot;
                    }
                    assert_eq!(before, whole, "{name} rev={reversed} batch={size}");
                }
            }
        }
    }

    #[test]
    fn stream_matches_sort_based_with_poisoned_seed() {
        // The poisoned item's subnormal weight gives it an infinite rank;
        // the online path must drop it exactly like the batch path did,
        // whether the stream never fills (k >= 11), fills exactly (k = 10)
        // or runs warm (k = 2).
        let seeder = SeedHasher::new(77);
        let poisoned = 1000u64;
        assert_eq!(seeder.seed(poisoned) / TINY, f64::INFINITY);
        let mut inst = test_instance(10);
        inst.set(poisoned, TINY);
        let items: Vec<(u64, f64)> = inst.iter().collect();
        for k in [2, 10, 11, 12] {
            let sampler = BottomK::new(k, seeder);
            assert_eq!(
                sampler.sample_instance(&inst),
                sort_based_sample(&sampler, &items),
                "k={k}"
            );
        }
    }

    #[test]
    fn insert_reports_exactly_the_retained_state_changes() {
        // The live-index maintenance contract: a one-item ingest returns
        // true iff the retained entries changed, i.e. iff snapshots taken
        // before and after it differ.
        let sampler = BottomK::new(3, SeedHasher::new(11));
        let mut stream = sampler.stream();
        // Inactive observations never change anything.
        assert!(!sampler.ingest(&mut stream, &[(1, 0.0)]));
        assert!(!sampler.ingest(&mut stream, &[(2, f64::NAN)]));
        // Filling the k+1 slots always changes state.
        let mut accepted = Vec::new();
        for key in 0..200u64 {
            let before = sampler.snapshot(&stream);
            let changed = sampler.ingest(&mut stream, &[(key, 1.0 + (key % 5) as f64)]);
            let after = sampler.snapshot(&stream);
            assert_eq!(changed, before != after, "key {key}");
            if changed {
                accepted.push(key);
            }
        }
        // The first k+1 active observations are always accepted, later
        // ones only when they beat the resident (k+1)-th rank: rare.
        assert!(accepted.len() >= 4);
        assert!(accepted.len() < 40, "almost all warm inserts are rejected");
        // An infinite rank (a subnormal weight) is rejected without state
        // change. The largest weight that can rank +∞ is 1.0 / f64::MAX
        // (2⁻¹⁰²⁴), at seed 1.0; the next weight up ranks finite.
        let mut cold = sampler.stream();
        assert!(!sampler.ingest(&mut cold, &[(7, TINY)]));
        let top = sampler.seeder().key_for_raw(u64::MAX);
        let edge = 1.0 / f64::MAX;
        assert!(!sampler.ingest(&mut cold, &[(top, edge)]));
        assert!(cold.is_empty());
        assert!(sampler.ingest(&mut cold, &[(top, edge.next_up())]));
    }

    #[test]
    fn stream_ignores_inactive_observations() {
        let sampler = BottomK::new(4, SeedHasher::new(9));
        let mut stream = sampler.stream();
        let inactive = [(1, 0.0), (2, -1.0), (3, f64::NAN), (4, f64::INFINITY)];
        assert!(!sampler.ingest(&mut stream, &inactive));
        assert!(stream.is_empty());
        assert!(sampler.ingest(&mut stream, &[(5, 1.25)]));
        assert_eq!(stream.len(), 1);
        // The live snapshot is the sample of the active item alone.
        let s = sampler.snapshot(&stream);
        assert_eq!(
            s,
            sampler.sample_instance(&Instance::from_pairs([(5, 1.25)]))
        );
        assert_eq!(s.get(5), Some(1.25));
        assert_eq!(s.next_rank, f64::INFINITY);
        assert_eq!(s.conditioned_rank_threshold(5), f64::INFINITY);
    }

    #[test]
    fn retained_threshold_and_conditioned_scale() {
        let inst = test_instance(100);
        let sampler = BottomK::new(10, SeedHasher::new(5));
        let s = sampler.sample_instance(&inst);
        // Every retained item conditions on the one (k+1)-th rank.
        let tau = s.next_rank;
        assert!(tau.is_finite());
        for (key, _) in s.iter() {
            assert_eq!(s.conditioned_rank_threshold(key), tau);
        }
        assert_eq!(s.priority_conditioned_scale(), 1.0 / tau);
        // The PPS reduction: scale = 1/τ agrees with priority_item_problem.
        let (scheme, _) = sampler
            .priority_item_problem(std::slice::from_ref(&s), s.iter().next().unwrap().0)
            .unwrap();
        assert_eq!(
            scheme.thresholds()[0].scale(),
            s.priority_conditioned_scale()
        );
        // Small instance: τ = ∞ maps to the "always included" scale.
        let tiny = sampler.sample_instance(&test_instance(3));
        assert_eq!(tiny.priority_conditioned_scale(), f64::MIN_POSITIVE);
    }

    #[test]
    fn entries_by_key_is_key_sorted() {
        let inst = test_instance(150);
        let sampler = BottomK::new(25, SeedHasher::new(31));
        let s = sampler.sample_instance(&inst);
        let by_key = s.entries_by_key();
        assert_eq!(by_key.len(), s.len());
        assert!(by_key.windows(2).all(|w| w[0].0 < w[1].0));
        for &(k, w) in &by_key {
            assert_eq!(s.get(k), Some(w));
        }
    }

    #[test]
    fn wire_round_trip_is_bit_identical() {
        for n in [0u64, 3, 50, 200] {
            let inst = test_instance(n);
            let sampler = BottomK::new(10, SeedHasher::new(n + 1));
            let s = sampler.sample_instance(&inst);
            let mut enc = Enc::new();
            s.encode_into(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            let back = BottomKSample::decode(&mut dec, n + 1).unwrap();
            dec.finish().unwrap();
            // PartialEq on f64 fields is bit-blind for -0.0 vs 0.0, so
            // also compare the re-encoded bytes.
            assert_eq!(back, s, "n={n}");
            let mut re = Enc::new();
            back.encode_into(&mut re);
            assert_eq!(re.into_bytes(), bytes, "n={n}");
        }
    }

    #[test]
    fn wire_decode_rejects_corruption() {
        let s = BottomK::new(4, SeedHasher::new(9)).sample_instance(&test_instance(30));
        let mut enc = Enc::new();
        s.encode_into(&mut enc);
        let good = enc.into_bytes();

        // Unknown version byte.
        let mut bad = good.clone();
        bad[0] = 0xff;
        assert!(matches!(
            BottomKSample::decode(&mut Dec::new(&bad), 9),
            Err(monotone_core::Error::Encoding(_))
        ));
        // Any rank-method tag but priority's 0, including 1 and 2, the
        // tags of exponential and uniform samples.
        for tag in [1, 2, 9] {
            let mut bad = good.clone();
            bad[1] = tag;
            assert!(
                matches!(
                    BottomKSample::decode(&mut Dec::new(&bad), 9),
                    Err(monotone_core::Error::Encoding(_))
                ),
                "tag {tag}"
            );
        }
        // Under another salt every rank disagrees with its entry.
        assert!(matches!(
            BottomKSample::decode(&mut Dec::new(&good), 10),
            Err(monotone_core::Error::Encoding(_))
        ));
        // Truncation anywhere must error, never panic.
        for cut in 0..good.len() {
            assert!(
                BottomKSample::decode(&mut Dec::new(&good[..cut]), 9).is_err(),
                "truncation at {cut} slipped through"
            );
        }
        // An entry count the payload cannot hold is truncation too; it
        // must not size an allocation first.
        let mut huge = Enc::new();
        huge.put_u8(good[0]); // version
        huge.put_u8(0); // priority ranks
        huge.put_len(1 << 40); // k
        huge.put_u8(0); // no next rank
        huge.put_len(1 << 40); // entries
        assert!(matches!(
            BottomKSample::decode(&mut Dec::new(&huge.into_bytes()), 9),
            Err(monotone_core::Error::Encoding(_))
        ));
    }

    /// The seed-hash salt of [`pinned_sample`].
    const PINNED_SALT: u64 = 0x5eed_0016;

    /// The k = 32 sample the corruption sweep and the pinned-bytes test
    /// both encode.
    fn pinned_sample() -> BottomKSample {
        let inst = Instance::from_pairs((0..120u64).map(|k| (k * 7 + 3, 0.5 + (k % 9) as f64)));
        BottomK::new(32, SeedHasher::new(PINNED_SALT)).sample_instance(&inst)
    }

    /// Corruption sweep: every truncation and every single-bit flip of a
    /// pinned k = 32 sample that carries a next rank decodes to `Ok` or
    /// to a typed `Encoding` error, never a panic. Every flip of an
    /// entry's rank bits is refused, and every sample that does decode
    /// keeps its entries strictly ascending by `(rank, key)`, each wire
    /// rank equal to `seed(key) / w`.
    #[test]
    fn decode_survives_every_truncation_and_bit_flip() {
        let s = pinned_sample();
        assert_eq!(s.len(), 32);
        assert!(s.next_rank.is_finite());
        let mut enc = Enc::new();
        s.encode_into(&mut enc);
        let good = enc.into_bytes();
        // Version, tag, k, next-rank flag and value, entry count; then
        // 24-byte (rank, key, weight) entries.
        const HEADER: usize = 1 + 1 + 8 + 1 + 8 + 8;
        assert_eq!(good.len(), HEADER + 24 * s.len());
        let is_rank_byte = |byte: usize| byte >= HEADER && (byte - HEADER) % 24 < 8;
        let seeder = SeedHasher::new(PINNED_SALT);
        let cuts = (0..good.len()).map(|cut| (None, good[..cut].to_vec()));
        let flips = (0..good.len() * 8).map(|bit| {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            (Some(bit / 8), bad)
        });
        let (mut ok, mut refused) = (0, 0);
        for (flipped, bad) in cuts.chain(flips) {
            match BottomKSample::decode(&mut Dec::new(&bad), PINNED_SALT) {
                Ok(back) => {
                    ok += 1;
                    assert!(
                        !flipped.is_some_and(is_rank_byte),
                        "a flip in rank byte {flipped:?} decoded"
                    );
                    let ranked: Vec<(f64, u64, f64)> = back
                        .iter()
                        .map(|(key, w)| (seeder.seed(key) / w, key, w))
                        .collect();
                    assert!(ranked.windows(2).all(|w| by_rank_key(&w[0], &w[1]).is_lt()));
                    for (i, &(rank, _, _)) in ranked.iter().enumerate() {
                        let at = HEADER + 24 * i;
                        let wire = u64::from_le_bytes(bad[at..at + 8].try_into().unwrap());
                        assert_eq!(wire, rank.to_bits(), "entry {i}, flip in {flipped:?}");
                    }
                }
                Err(monotone_core::Error::Encoding(_)) => refused += 1,
                Err(other) => panic!("decode failed with a non-encoding error: {other:?}"),
            }
        }
        // Flipped k and next-rank bits can decode; truncations, version
        // flips and entry flips do not.
        assert!(ok > 0 && refused > good.len());
    }

    /// The pinned k = 32 sample encodes to the bytes it had while the
    /// wire still carried three rank methods: its length and an
    /// FNV-1a-64 fold of its bytes, both recorded from that encoder.
    #[test]
    fn pinned_sample_wire_bytes_are_unchanged() {
        let mut enc = Enc::new();
        pinned_sample().encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(bytes.len(), 795);
        assert_eq!(fnv, 0x54cf_1af5_2ef6_0d56, "fnv = {fnv:#018x}");
    }
}
