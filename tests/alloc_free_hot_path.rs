//! Allocation accounting for the ingestion hot paths.
//!
//! The contiguous-slab refactor promises that steady-state training does not
//! touch the heap: the sequential `observe` path performs *zero* allocations
//! per sample, and so does `AmfTrainer::feed_batch` — the serving plane's
//! ingest path — once every pair in the stream is already stored. The
//! service's id stage (`QosPredictionService::submit_batch_ids`) allocates
//! per batch, never per sample. A name registry allocates when its storage
//! doubles, not per new name, and nothing for a known one; a request's
//! header lookups allocate nothing. This suite pins these properties with a
//! counting global allocator.
//!
//! It lives in its own integration-test binary (own process) so the
//! `#[global_allocator]` cannot interfere with any other suite. The counter
//! is *thread-scoped* (const-initialized TLS), because the property under
//! test is "the measuring thread performs zero allocations", and so the
//! tests here can run in parallel threads. A process-global counter is not usable
//! here: while the test thread runs, the libtest harness's main thread
//! blocks in `mpsc::Receiver::recv`, and std's mpmc channel lazily allocates
//! its per-thread parking `Context` the first time a thread blocks — two
//! allocations that land inside the measured window on some runs and before
//! it on others.

use amf_core::{AmfConfig, AmfModel, AmfTrainer};
use qos_serve::http::{parse_request, Parsed};
use qos_service::{QosPredictionService, Registry, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Set only on the measuring thread while it measures. Const
    /// initialization keeps the TLS access itself allocation-free, and
    /// `try_with` keeps the allocator safe during thread teardown.
    static COUNT_THIS_THREAD: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count(delta: u64) {
    if COUNT_THIS_THREAD.try_with(Cell::get).unwrap_or(false) {
        let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + delta));
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
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    f();
    let allocs = THREAD_ALLOCATIONS.with(Cell::get) - before;
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

#[test]
fn service_id_stage_allocates_per_batch_not_per_sample() {
    const USERS: usize = 8;
    const SERVICES: usize = 32;

    let service = QosPredictionService::new(ServiceConfig::default());
    for u in 0..USERS {
        service.join_user(&format!("user-{u}"));
    }
    for s in 0..SERVICES {
        service.join_service(&format!("svc-{s}"));
    }
    // Every pair in serve's steady state: the model and the observation
    // store already know it, so a new observation replaces the stored one.
    let pairs = USERS * SERVICES;
    let sample = |t: usize| {
        let pair = t % pairs;
        let value = 0.5 + (t % 7) as f64 * 0.25;
        (pair / SERVICES, pair % SERVICES, t as u64, value)
    };
    let warm: Vec<_> = (0..pairs * 2).map(sample).collect();
    for batch in warm.chunks(256) {
        service.submit_batch_ids(batch);
    }
    assert_eq!(service.live_observations(), pairs);

    let mut t = warm.len();
    let mut allocations = |n: usize| {
        let batch: Vec<_> = (t..t + n).map(sample).collect();
        t += n;
        let mut accepted = 0;
        let allocs = thread_allocations(|| accepted = service.submit_batch_ids(&batch));
        assert_eq!(accepted, n);
        allocs
    };
    let (small, large) = (allocations(16), allocations(256));
    assert_eq!(
        small, large,
        "submit_batch_ids allocated {small} times for 16 samples and {large} for 256; \
         the id stage must allocate per batch, not per sample"
    );
    assert_eq!(service.live_observations(), pairs);
}

#[test]
fn registry_allocates_per_doubling_not_per_name() {
    // The paper's service count. Names are formatted before measuring.
    const NAMES: usize = 4_500;
    let names: Vec<String> = (0..NAMES).map(|s| format!("svc-{s}")).collect();
    let mut registry = Registry::new();
    let joins = thread_allocations(|| {
        for (id, name) in names.iter().enumerate() {
            assert_eq!(registry.join(name), id);
        }
    });
    assert!(
        joins <= 64,
        "joining {NAMES} new names allocated {joins} times; \
         a registry must allocate when its storage doubles, not per name"
    );

    let known = thread_allocations(|| {
        for (id, name) in names.iter().enumerate() {
            assert_eq!(registry.join(name), id);
            assert_eq!(registry.resolve(name), Some(id));
        }
        assert_eq!(registry.resolve("svc-unknown"), None);
    });
    assert_eq!(
        known, 0,
        "join and resolve of known names allocated {known} times"
    );
}

#[test]
fn header_lookups_do_not_allocate() {
    let raw = b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\
        Connection: keep-alive\r\nX-AMF-Trace-Id: probe-1\r\nx-amf-deadline-ms: 250\r\n\r\n{}";
    let Ok(Parsed::Complete { request, .. }) = parse_request(raw, 1 << 20) else {
        panic!("a complete request");
    };
    let mut found = Vec::with_capacity(6);
    let allocs = thread_allocations(|| {
        // The five lookups every request makes, and one by a mixed-case name.
        for name in [
            "transfer-encoding",
            "content-length",
            "connection",
            "x-amf-trace-id",
            "x-amf-deadline-ms",
            "X-Amf-Trace-Id",
        ] {
            found.push(request.header(name));
        }
    });
    assert_eq!(
        found,
        [
            None,
            Some("2"),
            Some("keep-alive"),
            Some("probe-1"),
            Some("250"),
            Some("probe-1")
        ]
    );
    assert_eq!(allocs, 0, "six header lookups allocated {allocs} times");
}
