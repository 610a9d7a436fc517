//! Live-heap budget of a warmed prediction service at the paper's scale.
//!
//! The serving plane keeps one per-pair structure next to the model: the
//! trainer's `ObservationStore` (latest sample per pair, for replay and the
//! fallback means). At 142 users × 4,500 services with one sample per pair
//! it holds most of the process's memory, so this suite pins the live and
//! peak heap of a default service warmed with 63,727 distinct pairs, the
//! size of servebench's `ingest-paper` warm-up. The peak counts every
//! transient, such as a table that doubles, and it is what the process's
//! peak RSS reads. The per-entity structures come next: the suite also pins
//! the two name registries alone, at the paper's 142 + 4,500 names.
//!
//! It lives in its own integration-test binary so its counting
//! `#[global_allocator]` sees no other suite's allocations, and it runs a
//! single `#[test]` so no concurrent test thread adds to the count.

use qos_service::{QosPredictionService, QosRecord, Registry, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const USERS: usize = 142;
const SERVICES: usize = 4_500;
const PAIRS: usize = 63_727;
const MIB: usize = 1 << 20;
/// Live-heap ceiling of the warmed service, in bytes: 3.4 MiB.
const BUDGET: usize = 34 * MIB / 10;
/// Peak-heap ceiling while the service warms, in bytes: 3.5 MiB.
const PEAK_BUDGET: usize = 3 * MIB + MIB / 2;
/// Live-heap ceiling of the paper-scale user and service registries, in
/// bytes: 192 KiB.
const REGISTRY_BUDGET: usize = 192 << 10;

fn mib(bytes: usize) -> f64 {
    bytes as f64 / MIB as f64
}

#[test]
fn warmed_service_at_paper_scale_fits_the_budget() {
    // Stepping through the grid by a stride coprime to its size visits
    // PAIRS distinct cells spread over every user and most services.
    const STRIDE: usize = 7_919;
    assert_eq!(gcd(STRIDE, USERS * SERVICES), 1);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let service = QosPredictionService::new(ServiceConfig::default());
    let mut batch = Vec::with_capacity(256);
    for k in 0..PAIRS {
        let cell = k * STRIDE % (USERS * SERVICES);
        batch.push(QosRecord {
            user: format!("user-{}", cell / SERVICES),
            service: format!("svc-{}", cell % SERVICES),
            timestamp: k as u64,
            value: 0.05 + (k % 1_900) as f64 / 100.0,
        });
        if batch.len() == 256 || k + 1 == PAIRS {
            service.submit_batch(std::mem::take(&mut batch));
        }
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(service.live_observations(), PAIRS);
    assert_eq!(service.stats().accepted, PAIRS as u64);
    println!(
        "warmed service: {:.2} MiB live, {:.2} MiB peak, {:.0} B per pair",
        mib(held),
        mib(peak),
        held as f64 / PAIRS as f64
    );
    assert!(
        held <= BUDGET,
        "a warmed service holds {:.2} MiB of heap, over the {:.2} MiB budget",
        mib(held),
        mib(BUDGET)
    );
    assert!(
        peak <= PEAK_BUDGET,
        "warming the service peaks at {:.2} MiB of heap, over the {:.2} MiB budget",
        mib(peak),
        mib(PEAK_BUDGET)
    );
    drop(service);

    let before = LIVE.load(Ordering::Relaxed);
    let (mut users, mut services) = (Registry::new(), Registry::new());
    for u in 0..USERS {
        users.join(&format!("user-{u}"));
    }
    for s in 0..SERVICES {
        services.join(&format!("svc-{s}"));
    }
    let registries = LIVE.load(Ordering::Relaxed) - before;
    println!(
        "registries: {:.0} KiB for {} names",
        registries as f64 / 1024.0,
        users.len() + services.len()
    );
    assert!(
        registries <= REGISTRY_BUDGET,
        "the paper-scale registries hold {:.0} KiB of heap, over the {} KiB budget",
        registries as f64 / 1024.0,
        REGISTRY_BUDGET >> 10
    );
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
