//! Allocation accounting for the two ingestion hot paths.
//!
//! The contiguous-slab refactor promises that steady-state training does not
//! touch the heap: the sequential `observe` path performs *zero* allocations
//! per sample, and so does `AmfTrainer::feed_batch` — the serving plane's
//! ingest path — once every pair in the stream is already stored. This suite
//! pins both properties with a counting global allocator.
//!
//! It lives in its own integration-test binary (own process) so the
//! `#[global_allocator]` cannot interfere with any other suite, and runs
//! both measurements from a single `#[test]` so no concurrent test thread
//! pollutes the counter. The counter is *thread-scoped* (a const-initialized
//! TLS flag gates it), because the property under test is "the measuring
//! thread performs zero allocations". A process-global counter is not usable
//! here: while the test thread runs, the libtest harness's main thread
//! blocks in `mpsc::Receiver::recv`, and std's mpmc channel lazily allocates
//! its per-thread parking `Context` the first time a thread blocks — two
//! allocations that land inside the measured window on some runs and before
//! it on others.

use amf_core::{AmfConfig, AmfModel, AmfTrainer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static THREAD_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set only on the measuring thread while it measures. Const
    /// initialization keeps the TLS access itself allocation-free, and
    /// `try_with` keeps the allocator safe during thread teardown.
    static COUNT_THIS_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count(delta: u64) {
    if COUNT_THIS_THREAD.try_with(Cell::get).unwrap_or(false) {
        THREAD_ALLOCATIONS.fetch_add(delta, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while running `f`.
fn thread_allocations(f: impl FnOnce()) -> u64 {
    COUNT_THIS_THREAD.with(|flag| flag.set(true));
    let before = THREAD_ALLOCATIONS.load(Ordering::Relaxed);
    f();
    let allocs = THREAD_ALLOCATIONS.load(Ordering::Relaxed) - before;
    COUNT_THIS_THREAD.with(|flag| flag.set(false));
    allocs
}

/// Deterministic `(user, service, value)` stream, same shape as the bench.
fn stream(n: usize, users: usize, services: usize) -> Vec<(usize, usize, f64)> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 33) as usize % users;
            let s = (state >> 13) as usize % services;
            let r = 0.2 + ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0;
            (u, s, r)
        })
        .collect()
}

#[test]
fn hot_paths_do_not_allocate_per_sample() {
    const USERS: usize = 32;
    const SERVICES: usize = 64;
    const SAMPLES: usize = 40_000;

    let data = stream(SAMPLES, USERS, SERVICES);

    // Sequential observe is exactly allocation-free.
    let mut model = AmfModel::new(AmfConfig::response_time()).unwrap();
    // Warmup registers every entity (slab growth) and exercises each branch
    // of the update (trackers, clamps) before measurement starts.
    model.ensure_user(USERS - 1);
    model.ensure_service(SERVICES - 1);
    for &(u, s, r) in &data[..1000] {
        model.observe(u, s, r);
    }
    let sequential_allocs = thread_allocations(|| {
        for &(u, s, r) in &data {
            model.observe(u, s, r);
        }
    });
    assert_eq!(
        sequential_allocs, 0,
        "sequential observe allocated {sequential_allocs} times over {SAMPLES} samples; \
         the fused slab kernel must stay off the heap"
    );

    // So is the trainer's batch path in serve's steady state: every pair is
    // already in the observation store, so each sample only refreshes its
    // entry, and the batch is fed as it is iterated, never collected.
    let batches: Vec<Vec<(usize, usize, u64, f64)>> = data
        .chunks(256)
        .enumerate()
        .map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, &(u, s, r))| (u, s, (c * 256 + i) as u64, r))
                .collect()
        })
        .collect();
    let mut trainer = AmfTrainer::new(AmfConfig::response_time()).unwrap();
    *trainer.model_mut() = model;
    // Warmup: stores every pair and registers the batch-path metric handles.
    for batch in &batches {
        trainer.feed_batch(batch.iter().copied());
    }
    let batch_allocs = thread_allocations(|| {
        for batch in &batches {
            trainer.feed_batch(batch.iter().copied());
        }
    });
    assert_eq!(
        batch_allocs, 0,
        "AmfTrainer::feed_batch allocated {batch_allocs} times over {SAMPLES} samples; \
         steady-state batch ingestion must stay off the heap"
    );
    assert_eq!(trainer.model().update_count(), (3 * SAMPLES + 1000) as u64);
}
