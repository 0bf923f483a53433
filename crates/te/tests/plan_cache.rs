//! Eviction behavior of the incremental-lowering [`PlanCache`]: at
//! capacity the cache evicts a single second-chance victim, so a working
//! set one entry over capacity keeps its hot members. The old
//! clear-at-capacity policy wiped the whole map on every insert past the
//! cap, re-planning every schedule (the PR 7 thrashing note).

use std::sync::atomic::{AtomicUsize, Ordering};

use tvm_te::PlanCache;

fn get(cache: &PlanCache<u64>, builds: &AtomicUsize, key: u64) -> u64 {
    *cache.get_or_build(key, || {
        builds.fetch_add(1, Ordering::SeqCst);
        key * 10
    })
}

#[test]
fn working_set_one_over_capacity_keeps_hot_entries() {
    let cache: PlanCache<u64> = PlanCache::new(4);
    let builds = AtomicUsize::new(0);
    // Fill to capacity.
    for k in 0..4 {
        assert_eq!(get(&cache, &builds, k), k * 10);
    }
    assert_eq!(builds.load(Ordering::SeqCst), 4);
    // Touch 0..3 again: they are now hot (referenced since last sweep).
    for k in 0..3 {
        get(&cache, &builds, k);
    }
    assert_eq!(builds.load(Ordering::SeqCst), 4, "hot touches must hit");
    // Insert the capacity+1-th key: exactly one cold victim (key 3) is
    // evicted; the hot set survives.
    get(&cache, &builds, 4);
    assert_eq!(builds.load(Ordering::SeqCst), 5);
    assert_eq!(cache.len(), 4);
    for k in 0..3 {
        get(&cache, &builds, k);
    }
    assert_eq!(
        builds.load(Ordering::SeqCst),
        5,
        "hot entries must survive an over-capacity insert (whole-cache eviction regression)"
    );
    // The cold victim was 3: re-requesting it is the only new build.
    get(&cache, &builds, 3);
    assert_eq!(builds.load(Ordering::SeqCst), 6);
}

#[test]
fn eviction_is_one_at_a_time_under_churn() {
    let cache: PlanCache<u64> = PlanCache::new(8);
    let builds = AtomicUsize::new(0);
    // Stream 64 distinct keys through an 8-entry cache, re-touching one
    // pinned hot key between inserts. The hot key must never be evicted.
    get(&cache, &builds, 1000);
    for k in 0..64 {
        get(&cache, &builds, k);
        get(&cache, &builds, 1000);
    }
    assert_eq!(
        builds.load(Ordering::SeqCst),
        65,
        "pinned hot key was evicted under churn"
    );
    assert_eq!(cache.len(), 8, "cache stays at capacity");
}
