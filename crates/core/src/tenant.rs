//! Multi-tenant cache composition: one private [`ShardedCache`] per tenant.
//!
//! Serving millions of users means one global namespace is not acceptable:
//! tenants must not read each other's cached answers, a hot tenant must not
//! evict a quiet one past its quota, and a tenant upgrade (new model, new
//! prompt template) must be able to flush that tenant's stale answers
//! without a restart. [`TenantedCache`] delivers all three by construction:
//!
//! * **Isolation** — every tenant owns a full `ShardedCache`, built empty
//!   from a shared template so config, routing centroids, the embedding
//!   memo-cache and the encoder's weights are common. Probe, commit and
//!   eviction decisions inside one tenant's cache are *bit-independent* of
//!   any other tenant's traffic — there is no shared index to interleave
//!   on. The embedding memo **is** shared deliberately: memoized
//!   embeddings are pure functions of the query text and bit-identical to
//!   a cold encode, so sharing it leaks no decisions, only speed.
//! * **Quota fairness** — each tenant's cache has its own capacity bound
//!   (the tenant's quota). A tenant at quota evicts its *own* LRU tail,
//!   never a neighbour's entries.
//! * **Lifecycle** — entries carry an insertion timestamp and the tenant
//!   *epoch* current at insert time. A probe hit whose entry is older than
//!   the TTL, or whose epoch predates the tenant's current epoch (bumped by
//!   `Invalidate`), is screened into a miss at decision time; the entries
//!   themselves are reclaimed lazily by [`TenantedCache::sweep`], which the
//!   serve batcher runs alongside its root-pin GC.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::{CacheDecisionOutcome, CacheError, Result, SemanticCache, ShardedCache};

/// Default tenant name used when a deployment does not configure tenants
/// explicitly (and the namespace legacy wire clients and legacy on-disk
/// files map onto).
pub const DEFAULT_TENANT: &str = "default";

/// Per-entry lifecycle metadata (tenant-side; the cache itself stays
/// tenancy-unaware).
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    inserted: Instant,
    epoch: u64,
}

/// One tenant's private cache plus its lifecycle state.
#[derive(Debug)]
pub struct TenantStore {
    cache: ShardedCache,
    /// Capacity quota this tenant was built with (entries).
    quota: usize,
    /// Current invalidation epoch: entries inserted under an older epoch
    /// are stale and screened into misses.
    epoch: u64,
    /// Lifecycle metadata per public entry id.
    meta: HashMap<u64, EntryMeta>,
    /// Hits screened into misses because the entry outlived the TTL.
    expired: AtomicU64,
    /// Hits screened into misses because the entry's epoch was stale.
    invalidated: AtomicU64,
    /// Entries physically reclaimed by sweeps.
    reclaimed: u64,
}

impl TenantStore {
    /// Borrow this tenant's private cache.
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// This tenant's capacity quota (entries).
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// Current invalidation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Hits screened into misses because the entry outlived the TTL.
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Hits screened into misses because the entry's epoch was stale.
    pub fn invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Entries physically reclaimed by sweeps.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.cache.len() == 0
    }

    /// Whether a hit on `id` should be screened into a miss, and why.
    fn screen_hit(&self, id: u64, ttl: Option<Duration>, now: Instant) -> Option<ScreenReason> {
        // Entries without metadata (inserted behind our back, e.g. directly
        // through the cache in tests) are treated as fresh and current —
        // the conservative choice for legacy compatibility.
        let meta = self.meta.get(&id)?;
        if meta.epoch < self.epoch {
            return Some(ScreenReason::Stale);
        }
        if let Some(ttl) = ttl {
            if now.duration_since(meta.inserted) >= ttl {
                return Some(ScreenReason::Expired);
            }
        }
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScreenReason {
    Expired,
    Stale,
}

/// A set of named tenant caches sharing one template configuration, with
/// TTL/epoch screening at decision time. See the module docs.
#[derive(Debug)]
pub struct TenantedCache {
    /// `BTreeMap` so iteration order (stats, sweeps, persistence) is
    /// deterministic and independent of insertion order.
    tenants: BTreeMap<String, TenantStore>,
    default_tenant: String,
    ttl: Option<Duration>,
}

impl TenantedCache {
    /// Wraps `cache` as the default tenant's store. `ttl` of zero or `None`
    /// disables time-based expiry.
    pub fn new(default_tenant: &str, cache: ShardedCache, ttl: Option<Duration>) -> Self {
        let quota = cache.config().capacity;
        let mut tenants = BTreeMap::new();
        tenants.insert(
            default_tenant.to_string(),
            TenantStore {
                cache,
                quota,
                epoch: 0,
                meta: HashMap::new(),
                expired: AtomicU64::new(0),
                invalidated: AtomicU64::new(0),
                reclaimed: 0,
            },
        );
        Self {
            tenants,
            default_tenant: default_tenant.to_string(),
            ttl: ttl.filter(|t| !t.is_zero()),
        }
    }

    /// The default tenant's name.
    pub fn default_tenant(&self) -> &str {
        &self.default_tenant
    }

    /// The configured TTL, if any.
    pub fn ttl(&self) -> Option<Duration> {
        self.ttl
    }

    /// Adds a tenant with a private, empty cache built from the default
    /// tenant's template ([`ShardedCache::empty_like`]: its configuration,
    /// shared encoder, memo and routing centroids, none of its entries) and
    /// capped at `quota` entries (`0` = inherit the template's capacity). A
    /// no-op if the tenant already exists, beyond applying `quota`.
    ///
    /// # Errors
    /// Propagates [`CacheError`] from building the new cache.
    pub fn add_tenant(&mut self, name: &str, quota: usize) -> Result<()> {
        if name.is_empty() {
            return Err(CacheError::InvalidConfig("empty tenant name".into()));
        }
        if let Some(existing) = self.tenants.get_mut(name) {
            if quota > 0 {
                existing.quota = quota;
                existing.cache.set_total_capacity(quota);
            }
            return Ok(());
        }
        let mut cache = self.tenants[&self.default_tenant].cache.empty_like()?;
        let quota = if quota > 0 {
            quota
        } else {
            cache.config().capacity
        };
        cache.set_total_capacity(quota);
        self.tenants.insert(
            name.to_string(),
            TenantStore {
                cache,
                quota,
                epoch: 0,
                meta: HashMap::new(),
                expired: AtomicU64::new(0),
                invalidated: AtomicU64::new(0),
                reclaimed: 0,
            },
        );
        Ok(())
    }

    /// Borrow one tenant's store.
    pub fn tenant(&self, name: &str) -> Option<&TenantStore> {
        self.tenants.get(name)
    }

    /// Tenant names in deterministic (sorted) order.
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.keys().map(String::as_str).collect()
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Iterate `(name, store)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TenantStore)> {
        self.tenants.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Borrow one tenant's cache mutably (persistence restore path).
    pub fn cache_mut(&mut self, name: &str) -> Option<&mut ShardedCache> {
        self.tenants.get_mut(name).map(|t| &mut t.cache)
    }

    /// Iterate every tenant's cache mutably, in deterministic order
    /// (cross-tenant admin operations: threshold updates, resharding).
    pub fn caches_mut(&mut self) -> impl Iterator<Item = (&str, &mut ShardedCache)> {
        self.tenants
            .iter_mut()
            .map(|(k, v)| (k.as_str(), &mut v.cache))
    }

    /// Screens a raw probe outcome through the tenant's TTL/epoch rules:
    /// a hit on an expired or stale entry becomes a miss (and is counted).
    /// Misses pass through untouched, so screening never *creates* hits —
    /// decision streams stay bit-identical to a solo run until entries age.
    pub fn screen(&self, name: &str, outcome: CacheDecisionOutcome) -> CacheDecisionOutcome {
        let Some(store) = self.tenants.get(name) else {
            return outcome;
        };
        if let Some(hit) = outcome.hit() {
            match store.screen_hit(hit.entry_id, self.ttl, Instant::now()) {
                Some(ScreenReason::Expired) => {
                    store.expired.fetch_add(1, Ordering::Relaxed);
                    return CacheDecisionOutcome::Miss;
                }
                Some(ScreenReason::Stale) => {
                    store.invalidated.fetch_add(1, Ordering::Relaxed);
                    return CacheDecisionOutcome::Miss;
                }
                None => {}
            }
        }
        outcome
    }

    /// Probe one tenant's cache (screened). Unknown tenants miss.
    pub fn probe(&self, name: &str, query: &str, context: &[String]) -> CacheDecisionOutcome {
        match self.tenants.get(name) {
            Some(store) => self.screen(name, store.cache.probe(query, context)),
            None => CacheDecisionOutcome::Miss,
        }
    }

    /// Record the eviction-policy touch for a (screened) hit.
    pub fn commit(&self, name: &str, outcome: &CacheDecisionOutcome) {
        if let Some(store) = self.tenants.get(name) {
            store.cache.commit_shared(outcome);
        }
    }

    /// Insert into one tenant's cache and record lifecycle metadata.
    ///
    /// # Errors
    /// [`CacheError::InvalidConfig`] for unknown tenants, storage errors
    /// otherwise.
    pub fn insert(
        &mut self,
        name: &str,
        query: &str,
        response: &str,
        context: &[String],
    ) -> Result<u64> {
        let store = self
            .tenants
            .get_mut(name)
            .ok_or_else(|| CacheError::InvalidConfig(format!("unknown tenant {name:?}")))?;
        let id = store.cache.insert(query, response, context)?;
        // Entries this insert evicted leave dead metadata ids behind; the
        // periodic `sweep` prunes them.
        store.meta.insert(
            id,
            EntryMeta {
                inserted: Instant::now(),
                epoch: store.epoch,
            },
        );
        Ok(id)
    }

    /// Registers a restored (persisted) entry under `epoch`, with its TTL
    /// clock restarted now — TTLs are wall-clock leases and do not survive
    /// a restart (documented in ARCHITECTURE.md).
    pub fn register_restored(&mut self, name: &str, id: u64, epoch: u64) {
        if let Some(store) = self.tenants.get_mut(name) {
            store.meta.insert(
                id,
                EntryMeta {
                    inserted: Instant::now(),
                    epoch,
                },
            );
        }
    }

    /// Restores a tenant's epoch counter (persistence manifest).
    pub fn restore_epoch(&mut self, name: &str, epoch: u64) {
        if let Some(store) = self.tenants.get_mut(name) {
            store.epoch = store.epoch.max(epoch);
        }
    }

    /// Bumps a tenant's invalidation epoch: `epoch == 0` advances by one,
    /// otherwise the epoch becomes `max(current, epoch)` (idempotent for
    /// retries). Returns the new epoch, or `None` for unknown tenants.
    /// Entries inserted before the bump become stale immediately (at probe
    /// time); their storage is reclaimed by the next [`TenantedCache::sweep`].
    pub fn invalidate(&mut self, name: &str, epoch: u64) -> Option<u64> {
        let store = self.tenants.get_mut(name)?;
        store.epoch = if epoch == 0 {
            store.epoch + 1
        } else {
            store.epoch.max(epoch)
        };
        Some(store.epoch)
    }

    /// Flushes one tenant's entries (keeping its epoch and quota).
    ///
    /// # Errors
    /// Propagates [`CacheError`] from the underlying clear.
    pub fn flush(&mut self, name: &str) -> Result<()> {
        if let Some(store) = self.tenants.get_mut(name) {
            store.cache.clear()?;
            store.meta.clear();
        }
        Ok(())
    }

    /// Flushes every tenant (legacy WAL flush records predate tenancy and
    /// meant "the whole process").
    ///
    /// # Errors
    /// Propagates [`CacheError`] from the underlying clears.
    pub fn flush_all(&mut self) -> Result<()> {
        let names: Vec<String> = self.tenants.keys().cloned().collect();
        for name in names {
            self.flush(&name)?;
        }
        Ok(())
    }

    /// Lazily reclaims expired/stale entries across every tenant and prunes
    /// metadata for entries the caches already evicted. Returns the number
    /// of entries physically removed. The serve batcher runs this on the
    /// same cadence as its root-pin GC sweep (dangling pins left by removal
    /// are that sweep's job).
    pub fn sweep(&mut self) -> usize {
        let now = Instant::now();
        let ttl = self.ttl;
        let mut removed = 0;
        for store in self.tenants.values_mut() {
            let mut dead: Vec<u64> = Vec::new();
            let mut evicted: Vec<u64> = Vec::new();
            for (&id, meta) in &store.meta {
                if store.cache.entry(id).is_none() {
                    evicted.push(id);
                } else if meta.epoch < store.epoch
                    || ttl.is_some_and(|t| now.duration_since(meta.inserted) >= t)
                {
                    dead.push(id);
                }
            }
            for id in evicted {
                store.meta.remove(&id);
            }
            for id in dead {
                if store.cache.remove_public(id) {
                    removed += 1;
                    store.reclaimed += 1;
                }
                store.meta.remove(&id);
            }
            if removed > 0 {
                store.cache.sweep_root_pins();
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MeanCacheConfig, RoutingMode};
    use mc_embedder::{ModelProfile, QueryEncoder};

    fn tenanted(ttl: Option<Duration>) -> TenantedCache {
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
        let mut config = MeanCacheConfig::default()
            .with_threshold(0.6)
            .with_shards(2);
        config.capacity = 64;
        let cache = ShardedCache::new(encoder, config).unwrap();
        TenantedCache::new(DEFAULT_TENANT, cache, ttl)
    }

    #[test]
    fn tenants_are_isolated() {
        let mut tc = tenanted(None);
        tc.add_tenant("acme", 16).unwrap();
        tc.insert(DEFAULT_TENANT, "what is rust", "a language", &[])
            .unwrap();
        assert!(tc.probe(DEFAULT_TENANT, "what is rust", &[]).is_hit());
        assert!(tc.probe("acme", "what is rust", &[]).is_miss());
        tc.insert("acme", "what is rust", "acme answer", &[])
            .unwrap();
        let hit = tc.probe("acme", "what is rust", &[]);
        assert_eq!(hit.hit().unwrap().response, "acme answer");
    }

    #[test]
    fn added_tenant_starts_empty_and_inherits_the_template() {
        let encoder = QueryEncoder::new(ModelProfile::tiny(), 7).unwrap();
        let mut config = MeanCacheConfig::default()
            .with_threshold(0.6)
            .with_shards(2)
            .with_routing(RoutingMode::Centroid);
        config.capacity = 64;
        let mut cache = ShardedCache::new(encoder, config).unwrap();
        let texts: Vec<String> = (0..24)
            .map(|i| format!("question {i} about topic {}", i % 6))
            .collect();
        cache.seed_centroids_from_texts(&texts).unwrap();
        cache.set_embedding_memo(Some(std::sync::Arc::new(mc_embedder::EmbeddingMemo::new(
            64, 0,
        ))));
        cache.set_threshold(0.72);
        let mut tc = TenantedCache::new(DEFAULT_TENANT, cache, None);
        for text in &texts {
            tc.insert(DEFAULT_TENANT, text, "answer", &[]).unwrap();
        }
        tc.add_tenant("acme", 0).unwrap();

        let template = tc.tenant(DEFAULT_TENANT).unwrap().cache();
        let added = tc.tenant("acme").unwrap().cache();
        assert_eq!(template.len(), texts.len());
        assert_eq!(added.len(), 0);
        assert_eq!(added.root_pin_count(), 0);
        assert_eq!(added.stats().inserts, 0);
        assert_eq!(added.threshold(), 0.72);
        assert_eq!(added.routing(), RoutingMode::Centroid);
        assert_eq!(added.config().capacity, 64);
        assert!(added.centroids_seeded());
        assert!(std::sync::Arc::ptr_eq(
            added.embedding_memo().unwrap(),
            template.embedding_memo().unwrap()
        ));
        // Same centroids: every query routes to the same shard in both.
        for text in &texts {
            assert_eq!(added.shard_of(text, &[]), template.shard_of(text, &[]));
        }
        assert!(tc.probe("acme", &texts[0], &[]).is_miss());
    }

    #[test]
    fn invalidate_screens_old_entries_and_sweep_reclaims() {
        let mut tc = tenanted(None);
        tc.insert(DEFAULT_TENANT, "q one", "r one", &[]).unwrap();
        assert!(tc.probe(DEFAULT_TENANT, "q one", &[]).is_hit());
        let epoch = tc.invalidate(DEFAULT_TENANT, 0).unwrap();
        assert_eq!(epoch, 1);
        assert!(tc.probe(DEFAULT_TENANT, "q one", &[]).is_miss());
        assert_eq!(tc.tenant(DEFAULT_TENANT).unwrap().invalidated(), 1);
        let removed = tc.sweep();
        assert_eq!(removed, 1);
        assert_eq!(tc.tenant(DEFAULT_TENANT).unwrap().len(), 0);
        // Fresh inserts under the new epoch hit again.
        tc.insert(DEFAULT_TENANT, "q one", "r two", &[]).unwrap();
        assert!(tc.probe(DEFAULT_TENANT, "q one", &[]).is_hit());
        // Idempotent retry with an explicit epoch never regresses.
        assert_eq!(tc.invalidate(DEFAULT_TENANT, 1).unwrap(), 1);
    }

    #[test]
    fn ttl_expires_entries() {
        let mut tc = tenanted(Some(Duration::from_nanos(1)));
        tc.insert(DEFAULT_TENANT, "short lived", "gone soon", &[])
            .unwrap();
        std::thread::sleep(Duration::from_millis(2));
        assert!(tc.probe(DEFAULT_TENANT, "short lived", &[]).is_miss());
        assert_eq!(tc.tenant(DEFAULT_TENANT).unwrap().expired(), 1);
        assert_eq!(tc.sweep(), 1);
    }

    #[test]
    fn quota_caps_tenant_capacity() {
        let mut tc = tenanted(None);
        tc.add_tenant("small", 4).unwrap();
        for i in 0..32 {
            tc.insert("small", &format!("unique query number {i}"), "r", &[])
                .unwrap();
        }
        // Two shards × ceil(4/2) per shard = at most 4 resident entries.
        assert!(tc.tenant("small").unwrap().len() <= 4);
        // The default tenant was untouched by the neighbour's churn.
        assert_eq!(tc.tenant(DEFAULT_TENANT).unwrap().len(), 0);
    }
}
