//! Bounded LRU caches behind the engine: compiled plans and prepared
//! documents.
//!
//! Compilation (parse + classify + plan) is pure per-query work; an engine
//! serving repeated query strings should pay it once.  [`PlanCache`] is a
//! small least-recently-used map from source string to
//! [`Arc<CompiledQuery>`]; [`ShardedPlanCache`] spreads those entries over
//! up to [`PLAN_CACHE_SHARDS`] independently locked shards (selected by key
//! hash), so concurrent compilations on different shards never contend on
//! one mutex.  [`crate::Engine`] consults it on every
//! [`crate::Engine::compile`] / [`crate::Engine::evaluate_str`] call, and
//! its [`CacheStats`] make hits and misses observable — in aggregate and
//! per shard — so tests and benches can assert that a repeated query string
//! really skips re-parsing.
//!
//! [`DocumentCache`] is the same idea for the document side of the
//! pipeline: it memoizes [`PreparedDocument`] index construction per
//! document, keyed by a [`DocKey`] — the document's [`Arc`] address on the
//! legacy path (sound only because the cache keeps the document alive; see
//! [`DocKey`] for the address-reuse hazard), or a caller-assigned stable id
//! on the catalog path ([`DocumentCache::get_or_prepare_keyed`]), which
//! survives document replacement.
//!
//! Recency is tracked with a monotonic touch counter per entry; eviction
//! scans for the minimum.  That is O(capacity) per eviction, which is the
//! right trade-off for plan caches (tens to a few thousand entries, hit
//! paths that must stay allocation-free).

use crate::compile::CompiledQuery;
use crate::error::EvalError;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use xpeval_dom::{Document, PreparedDocument};
use xpeval_obs::{Field, FieldValue, MetricSource};

/// Maximum number of shards of a [`ShardedPlanCache`].  Small caches use a
/// single shard so capacity semantics stay exact; see
/// [`ShardedPlanCache::new`].
pub const PLAN_CACHE_SHARDS: usize = 8;

/// Per-shard counters of a [`ShardedPlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups this shard answered from its map.
    pub hits: u64,
    /// Lookups on this shard that fell through to compilation.
    pub misses: u64,
    /// Entries currently stored in this shard.
    pub len: usize,
}

/// Observable counters of a plan or document cache.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (no re-parse, no re-classification).
    pub hits: u64,
    /// Lookups that fell through to compilation.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently stored.
    pub len: usize,
    /// Maximum number of entries (0 = caching disabled).
    pub capacity: usize,
    /// Per-shard hit/miss/len counters, one entry per shard.  Empty for
    /// unsharded caches ([`PlanCache`], [`DocumentCache`]).
    pub per_shard: Vec<ShardStats>,
}

impl MetricSource for ShardStats {
    fn source_name(&self) -> &'static str {
        "plan_cache_shard"
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            Field::new("hits", FieldValue::Counter(self.hits)),
            Field::new("misses", FieldValue::Counter(self.misses)),
            Field::new("len", FieldValue::Gauge(self.len as i64)),
        ]
    }
}

impl std::fmt::Display for ShardStats {
    /// One-line summary shared with [`MetricSource::summary_line`]:
    /// `hits 5, misses 2, len 3`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary_line())
    }
}

impl CacheStats {
    /// Fraction of lookups answered from the cache, in `0.0..=1.0`
    /// (0.0 when no lookup happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl MetricSource for CacheStats {
    fn source_name(&self) -> &'static str {
        "plan_cache"
    }

    fn fields(&self) -> Vec<Field> {
        let mut fields = vec![
            Field::new(
                "hits",
                FieldValue::Ratio {
                    num: self.hits,
                    den: self.hits + self.misses,
                },
            ),
            Field::new(
                "len",
                FieldValue::Frac {
                    num: self.len as u64,
                    den: self.capacity as u64,
                },
            ),
            Field::new("evictions", FieldValue::Counter(self.evictions)),
        ];
        if self.per_shard.len() > 1 {
            fields.push(Field::new(
                "shards",
                FieldValue::Gauge(self.per_shard.len() as i64),
            ));
        }
        fields
    }
}

impl std::fmt::Display for CacheStats {
    /// One-line summary shared with [`MetricSource::summary_line`], e.g.
    /// `hits 9/10 (90.0%), len 1/128, evictions 0, shards 8`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary_line())
    }
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CompiledQuery>,
    last_used: u64,
}

/// A bounded LRU map from query string to compiled plan.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<String, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans; 0 disables caching
    /// (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            entries: HashMap::with_capacity(capacity.min(1024)),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a plan, refreshing its recency on a hit.
    pub fn get(&mut self, source: &str) -> Option<Arc<CompiledQuery>> {
        self.tick += 1;
        match self.entries.get_mut(source) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&entry.plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a plan, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, source: String, plan: Arc<CompiledQuery>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&source) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(
            source,
            Entry {
                plan,
                last_used: self.tick,
            },
        );
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.capacity,
            per_shard: Vec::new(),
        }
    }

    /// Drops all cached plans (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A [`PlanCache`] split over independently locked shards selected by key
/// hash, so concurrent compile lookups on different keys proceed without
/// contending on a single mutex.
///
/// Sharding only engages when the capacity is large enough to split
/// meaningfully (at least two entries per shard); small caches keep a
/// single shard so the exact LRU/capacity semantics of [`PlanCache`] are
/// preserved.
#[derive(Debug)]
pub struct ShardedPlanCache {
    shards: Vec<Mutex<PlanCache>>,
}

impl ShardedPlanCache {
    /// Creates a cache holding at most `capacity` plans in total,
    /// distributed (as evenly as possible) over the shards.
    pub fn new(capacity: usize) -> Self {
        let shard_count = if capacity >= 2 * PLAN_CACHE_SHARDS {
            PLAN_CACHE_SHARDS
        } else {
            1
        };
        let base = capacity / shard_count;
        let remainder = capacity % shard_count;
        let shards = (0..shard_count)
            .map(|i| Mutex::new(PlanCache::new(base + usize::from(i < remainder))))
            .collect();
        ShardedPlanCache { shards }
    }

    /// Number of shards in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, source: &str) -> &Mutex<PlanCache> {
        let mut hasher = DefaultHasher::new();
        source.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Looks up a plan in its key's shard, refreshing recency on a hit.
    pub fn get(&self, source: &str) -> Option<Arc<CompiledQuery>> {
        self.shard_for(source).lock().unwrap().get(source)
    }

    /// Stores a plan in its key's shard, evicting that shard's LRU entry
    /// when the shard is full.
    pub fn insert(&self, source: String, plan: Arc<CompiledQuery>) {
        self.shard_for(&source).lock().unwrap().insert(source, plan);
    }

    /// Looks up a plan, compiling and storing it on a miss.  The shard stays
    /// locked while `compile` runs, so concurrent requests for one new
    /// source compile it once: the first misses, the rest hit.  A failed
    /// compile stores nothing.
    pub fn get_or_compile(
        &self,
        source: &str,
        compile: impl FnOnce() -> Result<Arc<CompiledQuery>, EvalError>,
    ) -> Result<Arc<CompiledQuery>, EvalError> {
        let mut shard = self
            .shard_for(source)
            .lock()
            .expect("a plan cache shard is poisoned only by a panicking compile");
        if let Some(hit) = shard.get(source) {
            return Ok(hit);
        }
        let plan = compile()?;
        shard.insert(source.to_string(), Arc::clone(&plan));
        Ok(plan)
    }

    /// Aggregated counters plus the per-shard breakdown.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.len += s.len;
            total.capacity += s.capacity;
            total.per_shard.push(ShardStats {
                hits: s.hits,
                misses: s.misses,
                len: s.len,
            });
        }
        total
    }

    /// Drops every cached plan in every shard (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
    }
}

/// How a [`DocumentCache`] entry is identified.
///
/// The legacy [`Address`](DocKey::Address) keying identifies a document by
/// the address of its [`Arc`] allocation.  That is *sound* here only
/// because every cached entry holds its document alive (through the
/// `PreparedDocument`), so an address cannot be recycled by a new document
/// while its entry exists — but it is a footgun for everything above this
/// cache: the address is not a stable name.  Re-parsing the same XML gives
/// a different address (a guaranteed cold miss), and once an entry is
/// evicted or cleared the allocator is free to hand the *same address* to
/// an unrelated document, so any address a caller stashed outside the
/// cache's lifetime silently changes meaning.  Layers that need to name,
/// share or replace documents should key by a [`Stable`](DocKey::Stable)
/// external id instead — that is what the catalog's `DocId`s route through
/// ([`DocumentCache::get_or_prepare_keyed`]).
///
/// The address path is **deprecated for catalog-owned documents**: a
/// document that some stable key owns must never be re-cached by address
/// (two keys, two entries, and the address one silently dangles across a
/// catalog replacement).  Debug builds enforce this — an address-keyed
/// cache *hit* on a document a stable entry holds panics with a debug
/// assertion naming the fix (`Engine::prepare_keyed`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DocKey {
    /// The address of the document's [`Arc`] allocation (legacy path; see
    /// the address-reuse hazard above).
    Address(usize),
    /// A caller-assigned stable id, e.g. a catalog `DocId`.  Replacing the
    /// document behind a stable key rebuilds the entry in place.
    Stable(u64),
}

/// Memoizes [`PreparedDocument`] index construction per document — the
/// document-side analogue of the plan cache.
///
/// Entries are keyed by [`DocKey`]: either the address of the document's
/// [`Arc`] allocation (legacy; see the [`DocKey`] docs for the
/// address-reuse hazard) or a caller-assigned stable id (the catalog
/// path).
#[derive(Debug)]
pub struct DocumentCache {
    inner: Mutex<DocumentCacheInner>,
}

#[derive(Debug)]
struct DocumentCacheInner {
    capacity: usize,
    entries: HashMap<DocKey, DocumentEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct DocumentEntry {
    prepared: Arc<PreparedDocument>,
    last_used: u64,
}

impl DocumentCacheInner {
    /// Makes room for `key`: evicts the least-recently-used entry when
    /// the cache is at capacity and `key` is not already stored (storing
    /// over an existing key does not grow the map, so it must not evict).
    /// The single eviction-policy site for every insert path.
    fn evict_if_full(&mut self, key: &DocKey) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(key) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
            {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
    }
}

impl DocumentCache {
    /// Creates a cache holding at most `capacity` prepared documents;
    /// 0 disables caching (every call prepares afresh).
    pub fn new(capacity: usize) -> Self {
        DocumentCache {
            inner: Mutex::new(DocumentCacheInner {
                capacity,
                entries: HashMap::with_capacity(capacity.min(64)),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Returns the prepared form of `doc`, building (and caching) it on
    /// first sight, keyed by the address of its [`Arc`] allocation.
    ///
    /// This is the legacy entry point: the address is only a usable key
    /// *inside* this cache (entries keep their documents alive, so a live
    /// key cannot be recycled) — see [`DocKey`] for why it is a hazard as a
    /// document name anywhere else.  Callers that manage named, replaceable
    /// documents should use [`DocumentCache::get_or_prepare_keyed`] with
    /// their own stable id.
    pub fn get_or_prepare(&self, doc: &Arc<Document>) -> Arc<PreparedDocument> {
        self.get_or_prepare_at(DocKey::Address(Arc::as_ptr(doc) as usize), doc)
    }

    /// Returns the prepared form of `doc` under a caller-assigned stable
    /// key (e.g. a catalog `DocId`).
    ///
    /// Unlike the address path, the key survives document replacement: when
    /// the entry under `key` holds a *different* document than `doc` (the
    /// caller swapped the document behind its id), the stale index is
    /// dropped and rebuilt for `doc` — a miss, not a stale hit.
    pub fn get_or_prepare_keyed(&self, key: u64, doc: &Arc<Document>) -> Arc<PreparedDocument> {
        self.get_or_prepare_at(DocKey::Stable(key), doc)
    }

    /// The shared get → build → insert path.
    ///
    /// The O(|D|) index construction happens **outside** the cache lock —
    /// same discipline as the plan cache's get → compile → insert — so
    /// concurrent preparations of unrelated documents never serialize.  Two
    /// threads racing on the *same* unseen document may both build; the
    /// first insert wins and both get a usable index.  Two threads racing a
    /// *replacement* under one stable key (different documents) both build
    /// and the last insert wins — which may not be the caller's notion of
    /// the winning replacement; callers that care (the catalog) re-publish
    /// the installed index via [`DocumentCache::insert_keyed`] inside
    /// their own critical section.
    fn get_or_prepare_at(&self, key: DocKey, doc: &Arc<Document>) -> Arc<PreparedDocument> {
        {
            let mut inner = self.inner.lock().unwrap();
            inner.tick += 1;
            let tick = inner.tick;
            let same_doc = inner
                .entries
                .get(&key)
                .map(|entry| Arc::ptr_eq(entry.prepared.shared_document(), doc));
            match same_doc {
                Some(true) => {
                    // An address-keyed hit on a document some stable key
                    // also owns means a caller is naming a catalog-owned
                    // document by its Arc address — exactly the aliasing
                    // footgun stable keys exist to retire (the address
                    // stops meaning this document the moment the catalog
                    // replaces or drops it).  Reject it loudly in debug
                    // builds; the release fast path pays nothing.
                    #[cfg(debug_assertions)]
                    if matches!(key, DocKey::Address(_)) {
                        debug_assert!(
                            !inner
                                .entries
                                .iter()
                                .any(|(k, e)| matches!(k, DocKey::Stable(_))
                                    && Arc::ptr_eq(e.prepared.shared_document(), doc)),
                            "document cache: address-keyed hit on a document owned by a \
                             stable key — prepare catalog-owned documents through their \
                             stable id (Engine::prepare_keyed), not by Arc address"
                        );
                    }
                    let entry = inner.entries.get_mut(&key).expect("entry checked above");
                    entry.last_used = tick;
                    let prepared = Arc::clone(&entry.prepared);
                    inner.hits += 1;
                    return prepared;
                }
                Some(false) => {
                    // A stable key whose document was replaced: the stale
                    // index must not be served again.
                    inner.entries.remove(&key);
                }
                None => {}
            }
            inner.misses += 1;
        }

        let prepared = Arc::new(PreparedDocument::new(Arc::clone(doc)));

        let mut inner = self.inner.lock().unwrap();
        if inner.capacity == 0 {
            return prepared;
        }
        if let Some(entry) = inner.entries.get(&key) {
            if Arc::ptr_eq(entry.prepared.shared_document(), doc) {
                // Lost the build race: keep the entry that is already
                // shared.
                return Arc::clone(&entry.prepared);
            }
            // Raced with a replacement under the same stable key: fall
            // through and overwrite with the document we were asked for.
        }
        inner.evict_if_full(&key);
        let tick = inner.tick;
        inner.entries.insert(
            key,
            DocumentEntry {
                prepared: Arc::clone(&prepared),
                last_used: tick,
            },
        );
        prepared
    }

    /// Stores an already-prepared document under a stable key,
    /// unconditionally replacing whatever entry the key held.  O(1); no
    /// index is built.
    ///
    /// This is the *publish* half of the stable-key protocol: a caller
    /// that builds via [`DocumentCache::get_or_prepare_keyed`] outside its
    /// own lock and then installs the result under that lock can make the
    /// cache agree with its installation order by calling this inside the
    /// critical section — two racing replacements of one key then leave
    /// the cache holding whichever index the *last installer* published,
    /// never a superseded one.
    pub fn insert_keyed(&self, key: u64, prepared: &Arc<PreparedDocument>) {
        let mut inner = self.inner.lock().unwrap();
        if inner.capacity == 0 {
            return;
        }
        let key = DocKey::Stable(key);
        inner.tick += 1;
        let tick = inner.tick;
        inner.evict_if_full(&key);
        inner.entries.insert(
            key,
            DocumentEntry {
                prepared: Arc::clone(prepared),
                last_used: tick,
            },
        );
    }

    /// Drops the entry under a stable key, if any; returns whether one
    /// was removed.  Callers that retire their stable keys (a catalog
    /// removing or evicting a document) should call this so dead indexes
    /// do not stay pinned in the cache until LRU pressure finds them.
    pub fn remove_keyed(&self, key: u64) -> bool {
        self.inner
            .lock()
            .unwrap()
            .entries
            .remove(&DocKey::Stable(key))
            .is_some()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.entries.len(),
            capacity: inner.capacity,
            per_shard: Vec::new(),
        }
    }

    /// Drops every cached prepared document (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().unwrap().entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(src: &str) -> Arc<CompiledQuery> {
        Arc::new(CompiledQuery::compile(src).unwrap())
    }

    #[test]
    fn hit_after_insert() {
        let mut c = PlanCache::new(4);
        assert!(c.get("//a").is_none());
        c.insert("//a".into(), plan("//a"));
        let hit = c.get("//a").unwrap();
        assert_eq!(hit.source(), "//a");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let mut c = PlanCache::new(2);
        c.insert("//a".into(), plan("//a"));
        c.insert("//b".into(), plan("//b"));
        // Touch //a so //b becomes the LRU victim.
        assert!(c.get("//a").is_some());
        c.insert("//c".into(), plan("//c"));
        assert!(c.get("//b").is_none(), "//b should have been evicted");
        assert!(c.get("//a").is_some());
        assert!(c.get("//c").is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PlanCache::new(0);
        c.insert("//a".into(), plan("//a"));
        assert!(c.get("//a").is_none());
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut c = PlanCache::new(2);
        c.insert("//a".into(), plan("//a"));
        c.insert("//b".into(), plan("//b"));
        c.insert("//a".into(), plan("//a"));
        assert_eq!(c.stats().evictions, 0);
        assert!(c.get("//b").is_some());
    }

    #[test]
    fn small_capacities_use_a_single_shard() {
        let c = ShardedPlanCache::new(4);
        assert_eq!(c.shard_count(), 1);
        let s = c.stats();
        assert_eq!(s.capacity, 4);
        assert_eq!(s.per_shard.len(), 1);
    }

    #[test]
    fn large_capacities_shard_and_report_per_shard_counts() {
        let c = ShardedPlanCache::new(128);
        assert_eq!(c.shard_count(), PLAN_CACHE_SHARDS);
        let queries: Vec<String> = (0..40).map(|i| format!("//a[child::t{i}]")).collect();
        for q in &queries {
            assert!(c.get(q).is_none());
            c.insert(q.clone(), plan(q));
        }
        for q in &queries {
            assert!(c.get(q).is_some(), "{q}");
        }
        let s = c.stats();
        assert_eq!(s.capacity, 128);
        assert_eq!(s.misses, 40);
        assert_eq!(s.hits, 40);
        assert_eq!(s.len, 40);
        assert_eq!(s.per_shard.len(), PLAN_CACHE_SHARDS);
        // The aggregate is exactly the sum of the shards, and the keys
        // spread over more than one shard.
        assert_eq!(s.per_shard.iter().map(|p| p.hits).sum::<u64>(), s.hits);
        assert_eq!(s.per_shard.iter().map(|p| p.misses).sum::<u64>(), s.misses);
        assert_eq!(s.per_shard.iter().map(|p| p.len).sum::<usize>(), s.len);
        assert!(s.per_shard.iter().filter(|p| p.len > 0).count() > 1);
    }

    #[test]
    fn sharded_cache_supports_concurrent_compiles() {
        let c = std::sync::Arc::new(ShardedPlanCache::new(64));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..16 {
                        let q = format!("//t{t}[child::x{i}]");
                        if c.get(&q).is_none() {
                            c.insert(q.clone(), plan(&q));
                        }
                        assert!(c.get(&q).is_some());
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.misses, 64);
        assert_eq!(s.hits, 64);
        // Keys hash unevenly, so a full cache may evict within hot shards;
        // every entry is either stored or was evicted.
        assert_eq!(s.len as u64 + s.evictions, 64);
    }

    #[test]
    fn document_cache_memoizes_preparation_per_document() {
        use xpeval_dom::parse_xml;
        let cache = DocumentCache::new(2);
        let d1 = Arc::new(parse_xml("<a><b/></a>").unwrap());
        let d2 = Arc::new(parse_xml("<c/>").unwrap());
        let p1 = cache.get_or_prepare(&d1);
        let p1_again = cache.get_or_prepare(&d1);
        assert!(Arc::ptr_eq(&p1, &p1_again));
        cache.get_or_prepare(&d2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 2, 2));
        // A third document evicts the least-recently-used entry.
        let d3 = Arc::new(parse_xml("<d/>").unwrap());
        cache.get_or_prepare(&d3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn stable_keys_survive_replacement_with_a_rebuild() {
        use xpeval_dom::parse_xml;
        let cache = DocumentCache::new(4);
        let v1 = Arc::new(parse_xml("<a><b/></a>").unwrap());
        let p1 = cache.get_or_prepare_keyed(7, &v1);
        let p1_again = cache.get_or_prepare_keyed(7, &v1);
        assert!(Arc::ptr_eq(&p1, &p1_again));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));

        // Replacing the document behind the key rebuilds instead of
        // serving the stale index.
        let v2 = Arc::new(parse_xml("<a><b/><b/></a>").unwrap());
        let p2 = cache.get_or_prepare_keyed(7, &v2);
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert!(Arc::ptr_eq(p2.shared_document(), &v2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 2, 1));
        // The new document is now the hit.
        let p2_again = cache.get_or_prepare_keyed(7, &v2);
        assert!(Arc::ptr_eq(&p2, &p2_again));

        // Stable and address keys never collide: preparing v2 by address
        // is its own entry.
        cache.get_or_prepare(&v2);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "address-keyed hit")]
    fn address_keyed_hits_on_stable_owned_documents_are_rejected_in_debug() {
        use xpeval_dom::parse_xml;
        let cache = DocumentCache::new(4);
        let doc = Arc::new(parse_xml("<r/>").unwrap());
        // The catalog path owns this document under a stable key...
        cache.get_or_prepare_keyed(9, &doc);
        // ...so naming it by Arc address is the deprecated footgun: the
        // first call builds the duplicate entry (a miss), the second is
        // the address-keyed *hit* the debug assertion rejects.
        cache.get_or_prepare(&doc);
        cache.get_or_prepare(&doc);
    }

    #[test]
    fn zero_capacity_document_cache_prepares_fresh() {
        use xpeval_dom::parse_xml;
        let cache = DocumentCache::new(0);
        let d = Arc::new(parse_xml("<a/>").unwrap());
        let p1 = cache.get_or_prepare(&d);
        let p2 = cache.get_or_prepare(&d);
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats().len, 0);
    }
}
