//! `LIX` — the implementable approximation of `PIX` (Section 5.5) — and its
//! frequency-blind variant `L`.
//!
//! LIX "maintains a number of smaller chains: one corresponding to each
//! disk of the broadcast (LIX reduces to LRU if the broadcast uses a single
//! flat disk). A page always enters the chain corresponding to the disk in
//! which it is broadcast. Like LRU, when a page is hit, it is moved to the
//! top of its own chain. When a new page enters the cache, LIX evaluates a
//! lix value only for the page at the bottom of each chain. The page with
//! the smallest lix value is ejected."
//!
//! Per cached page the policy tracks a running probability estimate `p` and
//! the last access time `t`. On each new access:
//!
//! ```text
//! p ← α / (CurrentTime − t)  +  (1 − α) · p        (α = 0.25 in the paper)
//! t ← CurrentTime
//! ```
//!
//! and `lix = p_evaluated / frequency` where the frequency of the page's
//! disk "is known exactly". The `L` variant "behaves exactly like LIX
//! except that it assumes the same value of frequency for all pages" —
//! comparing `L` against LRU isolates the value of the probability
//! estimator, and `LIX` against `L` isolates the value of frequency
//! knowledge (Experiment 5).
//!
//! Both policies do a constant amount of work per replacement (proportional
//! to the number of disks), the same order as LRU.

use std::sync::OnceLock;

use bdisk_obs::registry::{self, Histogram, HistogramBatch, POW2_BOUNDS};
use bdisk_sched::PageId;

use crate::chain::LruChain;
use crate::{CachePolicy, PolicyContext};

/// `bd_lix_chain_len` — the length of the chain a LIX/L victim search
/// walked past, recorded once per chain per replacement. The distribution
/// shows how the paper's "chains do not have fixed sizes" behave live.
/// Each policy tallies its samples locally and publishes them when it is
/// dropped (at the end of its client's run).
pub(crate) fn chain_len_histogram() -> &'static Histogram {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    H.get_or_init(|| {
        registry::histogram(
            "bd_lix_chain_len",
            "Per-disk LIX/L chain lengths sampled at each replacement; published when each client's cache is dropped",
            POW2_BOUNDS,
        )
    })
}

/// Minimum elapsed time used in the estimator to avoid division by zero
/// when a page is re-accessed at the instant it entered the cache.
const MIN_ELAPSED: f64 = 1e-9;

#[derive(Debug, Clone, Copy)]
struct Meta {
    /// Running probability estimate.
    p: f64,
    /// Time of the most recent access.
    t: f64,
}

/// The LIX replacement policy (and, via [`LixPolicy::l_variant`], `L`).
#[derive(Debug, Clone)]
pub struct LixPolicy {
    capacity: usize,
    /// One LRU chain per disk.
    chains: Vec<LruChain>,
    /// Disk of each physical page.
    page_disk: Vec<u16>,
    /// Per-disk broadcast frequency (all 1.0 for the `L` variant).
    disk_freqs: Vec<f64>,
    alpha: f64,
    /// Estimator state per page, `None` when the page is not resident.
    /// Page ids are dense, so this is indexed by page.
    meta: Vec<Option<Meta>>,
    /// Number of resident pages.
    resident: usize,
    /// `bd_lix_chain_len` samples not yet published.
    chain_lens: HistogramBatch,
    name: &'static str,
}

impl LixPolicy {
    /// Creates a LIX cache.
    ///
    /// `page_disk[p]` is the disk (0-based) broadcasting physical page `p`;
    /// `disk_freqs` the relative frequency of each disk; `alpha` the EWMA
    /// constant (paper: 0.25).
    pub fn new(capacity: usize, page_disk: Vec<u16>, disk_freqs: Vec<f64>, alpha: f64) -> Self {
        Self::build(capacity, page_disk, disk_freqs, alpha, "LIX")
    }

    /// Creates the `L` variant: identical chains and estimator, but all
    /// frequencies treated as equal.
    pub fn l_variant(capacity: usize, page_disk: Vec<u16>, num_disks: usize, alpha: f64) -> Self {
        Self::build(capacity, page_disk, vec![1.0; num_disks], alpha, "L")
    }

    fn build(
        capacity: usize,
        page_disk: Vec<u16>,
        disk_freqs: Vec<f64>,
        alpha: f64,
        name: &'static str,
    ) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(!disk_freqs.is_empty(), "need at least one disk");
        assert!(
            disk_freqs.iter().all(|&f| f > 0.0),
            "disk frequencies must be positive"
        );
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        if let Some(&bad) = page_disk.iter().find(|&&d| d as usize >= disk_freqs.len()) {
            panic!("page assigned to nonexistent disk {bad}");
        }
        Self {
            capacity,
            chains: (0..disk_freqs.len()).map(|_| LruChain::new()).collect(),
            meta: vec![None; page_disk.len()],
            page_disk,
            disk_freqs,
            alpha,
            resident: 0,
            chain_lens: HistogramBatch::new(chain_len_histogram()),
            name,
        }
    }

    fn disk_of(&self, page: PageId) -> usize {
        self.page_disk[page.index()] as usize
    }

    /// The estimator state of `page`, when resident.
    fn meta(&self, page: PageId) -> Option<&Meta> {
        self.meta.get(page.index()).and_then(Option::as_ref)
    }

    /// The estimator evaluated at `now` for a page's stored state.
    fn estimate(&self, m: &Meta, now: f64) -> f64 {
        let elapsed = (now - m.t).max(MIN_ELAPSED);
        self.alpha / elapsed + (1.0 - self.alpha) * m.p
    }

    /// The lix value of `page` evaluated at `now` (estimate ÷ frequency).
    pub fn lix_value(&self, page: PageId, now: f64) -> Option<f64> {
        let m = self.meta(page)?;
        Some(self.estimate(m, now) / self.disk_freqs[self.disk_of(page)])
    }

    /// Number of chains (= number of disks).
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// Current length of the chain for `disk`.
    pub fn chain_len(&self, disk: usize) -> usize {
        self.chains[disk].len()
    }

    /// The pages currently on `disk`'s chain, most- to least-recently used.
    /// Exposed so tests can check the chain-partition invariant.
    pub fn chain_pages(&self, disk: usize) -> Vec<PageId> {
        self.chains[disk].iter().collect()
    }

    /// The raw `(p, t)` estimator state of a resident page: the running
    /// probability estimate and the last access time. `None` when the page
    /// is not resident. Exposed for tests and instrumentation.
    pub fn estimator_state(&self, page: PageId) -> Option<(f64, f64)> {
        self.meta(page).map(|m| (m.p, m.t))
    }

    /// Chooses the victim: the bottom page of each chain with the smallest
    /// lix value. Ties break toward the faster disk for determinism.
    fn pick_victim(&mut self, now: f64) -> PageId {
        let mut best: Option<(f64, PageId)> = None;
        for chain in &self.chains {
            self.chain_lens.record(chain.len() as u64);
            let Some(page) = chain.back() else { continue };
            let lix = self
                .lix_value(page, now)
                .expect("resident pages always have metadata");
            match best {
                Some((b, _)) if lix >= b => {}
                _ => best = Some((lix, page)),
            }
        }
        best.expect("cache is full, some chain is non-empty").1
    }
}

impl CachePolicy for LixPolicy {
    fn contains(&self, page: PageId) -> bool {
        self.meta(page).is_some()
    }

    fn on_hit(&mut self, page: PageId, now: f64) {
        let alpha = self.alpha;
        let m = self.meta[page.index()]
            .as_mut()
            .expect("hit on non-resident page");
        let elapsed = (now - m.t).max(MIN_ELAPSED);
        m.p = alpha / elapsed + (1.0 - alpha) * m.p;
        m.t = now;
        let disk = self.page_disk[page.index()] as usize;
        self.chains[disk].move_to_front(page);
    }

    fn insert(&mut self, page: PageId, now: f64) -> Option<PageId> {
        assert!(!self.contains(page), "page {page} already resident");
        let victim = if self.resident == self.capacity {
            let v = self.pick_victim(now);
            let victim_disk = self.disk_of(v);
            self.chains[victim_disk].remove(v);
            self.meta[v.index()] = None;
            Some(v)
        } else {
            self.resident += 1;
            None
        };
        // "When the page enters a chain, p is initially set to zero and t
        //  is set to the current time."
        self.meta[page.index()] = Some(Meta { p: 0.0, t: now });
        let disk = self.disk_of(page);
        self.chains[disk].push_front(page);
        victim
    }

    fn invalidate(&mut self, page: PageId) -> bool {
        match self.meta.get_mut(page.index()) {
            Some(m @ Some(_)) => *m = None,
            _ => return false,
        }
        self.resident -= 1;
        let disk = self.disk_of(page);
        self.chains[disk].remove(page)
    }

    fn len(&self) -> usize {
        self.resident
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn rescore(&mut self, ctx: &PolicyContext) {
        // A hot-swapped plan moves pages between disks and changes disk
        // frequencies. Estimator state (p, t) is the client's *observed*
        // access history — it survives the swap untouched; only the
        // disk partition and the frequency denominators are replaced.
        if let Some(&bad) = ctx
            .page_disk
            .iter()
            .find(|&&d| d as usize >= ctx.disk_freqs.len())
        {
            panic!("page assigned to nonexistent disk {bad}");
        }
        self.page_disk = ctx.page_disk.clone();
        if self.meta.len() < self.page_disk.len() {
            self.meta.resize(self.page_disk.len(), None);
        }
        self.disk_freqs = if self.name == "L" {
            vec![1.0; ctx.disk_freqs.len()]
        } else {
            ctx.disk_freqs.iter().map(|&f| f as f64).collect()
        };
        // Re-bucket residents into their (possibly new) disk chains,
        // restoring recency order: most recently accessed at the front,
        // ties broken by page id for determinism.
        let mut residents: Vec<(f64, PageId)> = self
            .meta
            .iter()
            .enumerate()
            .filter_map(|(p, m)| m.map(|m| (m.t, PageId(p as u32))))
            .collect();
        residents.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("access times are never NaN")
                .then(b.1.cmp(&a.1))
        });
        self.chains = (0..self.disk_freqs.len())
            .map(|_| LruChain::new())
            .collect();
        for (_, page) in residents {
            let disk = self.page_disk[page.index()] as usize;
            self.chains[disk].push_front(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruPolicy;

    /// Two disks: pages 0..5 on the fast disk (freq 4), 5..10 slow (freq 1).
    fn two_disk_lix(capacity: usize) -> LixPolicy {
        let page_disk = (0..10u16).map(|p| if p < 5 { 0 } else { 1 }).collect();
        LixPolicy::new(capacity, page_disk, vec![4.0, 1.0], 0.25)
    }

    #[test]
    fn pages_enter_their_disk_chain() {
        let mut lix = two_disk_lix(4);
        lix.insert(PageId(0), 0.0);
        lix.insert(PageId(7), 1.0);
        lix.insert(PageId(1), 2.0);
        assert_eq!(lix.chain_len(0), 2);
        assert_eq!(lix.chain_len(1), 1);
        assert_eq!(lix.num_chains(), 2);
    }

    #[test]
    fn chains_grow_and_shrink_dynamically() {
        // Figure 12: "the chains do not have fixed sizes".
        let mut lix = two_disk_lix(2);
        lix.insert(PageId(0), 0.0);
        lix.insert(PageId(1), 1.0);
        assert_eq!(lix.chain_len(0), 2);
        // A slow-disk page evicts a fast-disk page: chain 0 shrinks,
        // chain 1 grows.
        let v = lix.insert(PageId(7), 10.0).unwrap();
        assert!(v.0 < 5, "victim {v} should be from the fast disk");
        assert_eq!(lix.chain_len(0), 1);
        assert_eq!(lix.chain_len(1), 1);
    }

    #[test]
    fn frequency_biases_eviction_toward_fast_disk() {
        // Same access recency, different disks: the fast-disk page has the
        // lower lix (same estimate ÷ larger frequency) and is evicted.
        let mut lix = two_disk_lix(2);
        lix.insert(PageId(0), 0.0); // fast disk
        lix.insert(PageId(7), 0.0); // slow disk
        lix.on_hit(PageId(0), 5.0);
        lix.on_hit(PageId(7), 5.0);
        let v = lix.insert(PageId(8), 10.0).unwrap();
        assert_eq!(v, PageId(0), "fast-disk page should be the victim");
    }

    #[test]
    fn l_variant_ignores_frequency() {
        // Identical scenario under L: equal frequencies, so the decision
        // falls to the estimates alone; with identical access patterns the
        // tie breaks to the first chain, but making the fast-disk page
        // *hotter* must save it under L.
        let page_disk: Vec<u16> = (0..10u16).map(|p| if p < 5 { 0 } else { 1 }).collect();
        let mut l = LixPolicy::l_variant(2, page_disk, 2, 0.25);
        l.insert(PageId(0), 0.0);
        l.insert(PageId(7), 0.0);
        for t in 1..8 {
            l.on_hit(PageId(0), t as f64);
        }
        l.on_hit(PageId(7), 8.0);
        let v = l.insert(PageId(8), 10.0).unwrap();
        assert_eq!(v, PageId(7), "L evicts the colder page regardless of disk");
        assert_eq!(l.name(), "L");
    }

    #[test]
    fn estimator_rises_with_hit_rate() {
        let mut lix = two_disk_lix(4);
        lix.insert(PageId(0), 0.0);
        lix.insert(PageId(1), 0.0);
        // Page 0 hit every unit, page 1 hit every 10 units.
        for i in 1..=20 {
            lix.on_hit(PageId(0), i as f64);
            if i % 10 == 0 {
                lix.on_hit(PageId(1), i as f64);
            }
        }
        let hot = lix.lix_value(PageId(0), 21.0).unwrap();
        let cold = lix.lix_value(PageId(1), 21.0).unwrap();
        // Same disk, so lix ratio = estimate ratio.
        assert!(hot > cold, "hot {hot} <= cold {cold}");
    }

    #[test]
    fn estimate_decays_with_idle_time() {
        let mut lix = two_disk_lix(4);
        lix.insert(PageId(0), 0.0);
        lix.on_hit(PageId(0), 1.0);
        let fresh = lix.lix_value(PageId(0), 2.0).unwrap();
        let stale = lix.lix_value(PageId(0), 100.0).unwrap();
        assert!(stale < fresh);
    }

    #[test]
    fn single_flat_disk_reduces_to_lru() {
        // "LIX reduces to LRU if the broadcast uses a single flat disk."
        let page_disk = vec![0u16; 50];
        let mut lix = LixPolicy::new(5, page_disk, vec![1.0], 0.25);
        let mut lru = LruPolicy::new(5);
        // Drive both with the same deterministic request stream.
        let mut x = 99u64;
        let mut t = 0.0;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = PageId((x >> 33) as u32 % 50);
            t += 1.0;
            let (a, b);
            if lix.contains(page) {
                lix.on_hit(page, t);
                a = None;
            } else {
                a = lix.insert(page, t);
            }
            if lru.contains(page) {
                lru.on_hit(page, t);
                b = None;
            } else {
                b = lru.insert(page, t);
            }
            assert_eq!(a, b, "diverged at t={t} on {page}");
        }
    }

    #[test]
    fn figure12_worked_example() {
        // Two chains; bottom pages g (disk 1, lix 0.37) and k (disk 2,
        // lix 0.85). g has the lower lix and is the victim; the new page z
        // from disk 2 joins Disk2Q.
        let page_disk: Vec<u16> = (0..12u16).map(|p| if p < 7 { 0 } else { 1 }).collect();
        let mut lix = LixPolicy::new(11, page_disk, vec![2.0, 1.0], 0.25);
        // Fill Disk1Q with a..g (pages 0..7) and Disk2Q with h..k (7..11).
        // Insert in reverse so page 'a'=0 ends at the top like the figure.
        for p in (0..7u32).rev() {
            lix.insert(PageId(p), f64::from(10 - p));
        }
        for p in (7..11u32).rev() {
            lix.insert(PageId(p), f64::from(20 - p));
        }
        // Make g's lix smaller than k's: hit k recently.
        lix.on_hit(PageId(10), 30.0);
        // …then re-order so k is at the bottom of its chain again.
        for p in 7..10u32 {
            lix.on_hit(PageId(p), 31.0);
        }
        let g = PageId(6);
        let k = PageId(10);
        let now = 40.0;
        let lix_g = lix.lix_value(g, now).unwrap();
        let lix_k = lix.lix_value(k, now).unwrap();
        assert!(lix_g < lix_k, "g={lix_g} must be below k={lix_k}");
        // New page z = 11 on disk 2.
        let victim = lix.insert(PageId(11), now).unwrap();
        assert_eq!(victim, g, "victim must be g");
        assert_eq!(lix.chain_len(0), 6); // Disk1Q shrank
        assert_eq!(lix.chain_len(1), 5); // Disk2Q grew
    }

    #[test]
    fn rescore_rebuckets_chains_and_keeps_recency() {
        let mut lix = two_disk_lix(4);
        lix.insert(PageId(0), 0.0); // fast disk
        lix.insert(PageId(7), 1.0); // slow disk
        lix.insert(PageId(1), 2.0); // fast disk
        lix.on_hit(PageId(0), 3.0); // page 0 now most recent
        assert_eq!(lix.chain_len(0), 2);
        // New plan: pages 0..5 move to the slow disk and 5..10 to the fast
        // one; frequencies swap too.
        let ctx = PolicyContext {
            probs: vec![0.0; 10],
            page_disk: (0..10u16).map(|p| if p < 5 { 1 } else { 0 }).collect(),
            disk_freqs: vec![4, 1],
            alpha: 0.25,
        };
        lix.rescore(&ctx);
        assert_eq!(lix.len(), 3, "residency preserved");
        assert_eq!(lix.chain_pages(1), vec![PageId(0), PageId(1)]);
        assert_eq!(lix.chain_pages(0), vec![PageId(7)]);
        // Estimator state survives the swap.
        assert!(lix.estimator_state(PageId(0)).unwrap().0 > 0.0);
        assert_eq!(lix.estimator_state(PageId(0)).unwrap().1, 3.0);
        // The protocol keeps working after the swap.
        lix.on_hit(PageId(7), 5.0);
        lix.insert(PageId(8), 6.0);
        assert_eq!(lix.len(), 4);
    }

    #[test]
    fn hit_at_insert_instant_does_not_blow_up() {
        let mut lix = two_disk_lix(2);
        lix.insert(PageId(0), 5.0);
        lix.on_hit(PageId(0), 5.0); // elapsed 0 → clamped
        let v = lix.lix_value(PageId(0), 5.0).unwrap();
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn capacity_one_replaces_every_miss() {
        let mut lix = two_disk_lix(1);
        assert_eq!(lix.insert(PageId(0), 0.0), None);
        assert_eq!(lix.insert(PageId(7), 1.0), Some(PageId(0)));
        assert_eq!(lix.insert(PageId(1), 2.0), Some(PageId(7)));
        assert_eq!(lix.len(), 1);
    }

    #[test]
    #[should_panic(expected = "nonexistent disk")]
    fn bad_page_disk_rejected() {
        let _ = LixPolicy::new(2, vec![0, 5], vec![1.0], 0.25);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn bad_alpha_rejected() {
        let _ = LixPolicy::new(2, vec![0], vec![1.0], 1.5);
    }
}
