//! Cache telemetry: a transparent [`CachePolicy`] wrapper that counts
//! hits, misses, evictions, and invalidations, and journals cache
//! admissions/evictions.
//!
//! [`ObservedPolicy`] is pure observation — every call delegates to the
//! wrapped policy unchanged, so the simulator/live parity contract (and
//! every policy property test) holds with instrumentation on. Hits,
//! misses and evictions are tallied in plain fields of the wrapper and
//! published to the registry once, when the wrapper is dropped (at the
//! end of its client's run); invalidations publish as they happen. Each
//! wrapper gets a process-unique id so journal events can be attributed
//! to one client's cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use bdisk_obs::journal::{event, EventKind};
use bdisk_obs::registry::{self, Counter};
use bdisk_sched::PageId;

use crate::CachePolicy;

/// Cache-layer metric handles.
pub(crate) struct CacheMetrics {
    /// `bd_cache_hits_total`
    pub hits: &'static Counter,
    /// `bd_cache_misses_total`
    pub misses: &'static Counter,
    /// `bd_cache_evictions_total`
    pub evictions: &'static Counter,
    /// `bd_cache_invalidations_total`
    pub invalidations: &'static Counter,
}

pub(crate) fn metrics() -> &'static CacheMetrics {
    static M: OnceLock<CacheMetrics> = OnceLock::new();
    M.get_or_init(|| CacheMetrics {
        hits: registry::counter(
            "bd_cache_hits_total",
            "Client cache hits; published when each client's cache is dropped",
        ),
        misses: registry::counter(
            "bd_cache_misses_total",
            "Client cache misses (every miss inserts the fetched page); published when each client's cache is dropped",
        ),
        evictions: registry::counter(
            "bd_cache_evictions_total",
            "Pages evicted from full client caches; published when each client's cache is dropped",
        ),
        invalidations: registry::counter(
            "bd_cache_invalidations_total",
            "Resident pages dropped by server-sent invalidations",
        ),
    })
}

/// `bd_cache_miss_loss_delayed_total`: misses whose fetch was delayed past
/// the page's scheduled broadcast because that broadcast was lost on the
/// channel. A subset of `bd_cache_misses_total` — subtracting it recovers
/// the miss cost a lossless channel would have charged.
fn loss_delayed_misses() -> &'static Counter {
    static M: OnceLock<&'static Counter> = OnceLock::new();
    M.get_or_init(|| {
        registry::counter(
            "bd_cache_miss_loss_delayed_total",
            "Cache misses delayed past the page's scheduled broadcast by channel loss",
        )
    })
}

/// Records one miss whose fetch waited through a lost broadcast (the live
/// client calls this when a gap swallowed its pending page and a later
/// periodic broadcast recovered it).
pub fn record_loss_delayed_miss() {
    loss_delayed_misses().inc();
}

/// Eagerly registers the cache metrics (idempotent); call when starting a
/// metrics server so `/metrics` shows the cache family before traffic.
pub fn register_metrics() {
    let _ = metrics();
    let _ = loss_delayed_misses();
    let _ = crate::lix::chain_len_histogram();
}

static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(0);

/// A [`CachePolicy`] that counts what the wrapped policy does and journals
/// admissions/evictions, without changing any decision.
pub struct ObservedPolicy {
    inner: Box<dyn CachePolicy>,
    /// Process-unique id tagging this cache's journal events (one wrapper
    /// per client, so this stands in for a client id).
    id: u64,
    /// Hits, misses and evictions not yet published (see [`Drop`]).
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ObservedPolicy {
    /// Wraps `inner`, assigning the next process-unique cache id.
    pub fn new(inner: Box<dyn CachePolicy>) -> Self {
        Self {
            inner,
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl Drop for ObservedPolicy {
    fn drop(&mut self) {
        let m = metrics();
        m.hits.add(self.hits);
        m.misses.add(self.misses);
        m.evictions.add(self.evictions);
    }
}

impl CachePolicy for ObservedPolicy {
    fn contains(&self, page: PageId) -> bool {
        self.inner.contains(page)
    }

    fn on_hit(&mut self, page: PageId, now: f64) {
        self.hits += 1;
        self.inner.on_hit(page, now)
    }

    fn insert(&mut self, page: PageId, now: f64) -> Option<PageId> {
        self.misses += 1;
        event(EventKind::CacheAdmit, self.id, page.0 as u64);
        let victim = self.inner.insert(page, now);
        if let Some(victim) = victim {
            self.evictions += 1;
            event(EventKind::CacheEvict, self.id, victim.0 as u64);
        }
        victim
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        let dropped = self.inner.invalidate(page);
        if dropped {
            metrics().invalidations.inc();
            event(EventKind::CacheEvict, self.id, page.0 as u64);
        }
        dropped
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rescore(&mut self, ctx: &crate::PolicyContext) {
        self.inner.rescore(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruPolicy;

    #[test]
    fn wrapper_is_transparent_and_counts() {
        let m = metrics();
        let hits0 = m.hits.value();
        let miss0 = m.misses.value();
        let evic0 = m.evictions.value();
        let inval0 = m.invalidations.value();

        let mut p = ObservedPolicy::new(Box::new(LruPolicy::new(2)));
        assert_eq!(p.capacity(), 2);
        assert_eq!(p.name(), "LRU");
        assert_eq!(p.insert(PageId(0), 1.0), None);
        assert_eq!(p.insert(PageId(1), 2.0), None);
        p.on_hit(PageId(0), 3.0);
        // LRU evicts page 1 (page 0 was just touched).
        assert_eq!(p.insert(PageId(2), 4.0), Some(PageId(1)));
        assert!(p.invalidate(PageId(2)));
        assert!(!p.invalidate(PageId(1)));
        assert_eq!(p.len(), 1);
        // Hits, misses and evictions publish when the wrapper is dropped.
        drop(p);

        // Counters are process-global and sibling tests may be recording
        // concurrently, so assert the floor this test itself contributed.
        assert!(m.hits.value() - hits0 >= 1);
        assert!(m.misses.value() - miss0 >= 3);
        assert!(m.evictions.value() - evic0 >= 1);
        assert!(m.invalidations.value() - inval0 >= 1);
    }
}
