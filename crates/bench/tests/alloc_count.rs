//! Allocation-count regression gate for the trial path: in steady state
//! (every trial after a scenario's first on a given pool), a trial of every
//! canonical protocol instance performs **zero** heap allocations, apart
//! from the named exemptions in [`EXEMPT`].
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! every `alloc`/`alloc_zeroed`/`realloc` call. The test warms a
//! [`rn_sim::TrialPool`] with one trial per scenario — that trial is allowed
//! to allocate freely (it builds protocol tables, reserves worst-case
//! scratch, memoizes connectivity) — then asserts the allocation counter
//! does not move across subsequent trials.
//!
//! This file is its own integration-test binary on purpose: the global
//! allocator override must not leak into other tests, and the single
//! `#[test]` keeps the harness from running trials concurrently with the
//! measurement.

use rn_bench::ProtocolSpec;
use rn_graph::TopologySpec;
use rn_sim::{CollisionModel, NetParams, TrialPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator with a global counter on every allocating entry point.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure forwarding wrapper around `System`; every method delegates
// to the corresponding `System` entry point with unchanged arguments, so
// `System`'s layout/provenance contract is upheld verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwards to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwards to `System.realloc` with the caller's pointer/layout.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards to `System.dealloc` with the caller's pointer/layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Canonical instances that allocate in steady state, each with the reason.
/// Every other instance — including any family registered later — is gated.
const EXEMPT: &[(&str, &str)] = &[
    ("binsearch_le(bgi)", "keeps no pooled state: every probe phase builds its own protocol"),
    ("binsearch_le(cd17)", "keeps no pooled state: every probe phase builds its own protocol"),
    ("binsearch_le(beep)", "keeps no pooled state: every probe phase builds its own protocol"),
    ("compete(4,clustered)", "nearest_k's BFS ball allocates (SourcePlacement::place_into)"),
    ("compete(4,corner)", "nearest_k's BFS ball allocates (SourcePlacement::place_into)"),
    ("schedule(downcast)", "run_pass builds its values and executor; Simulator::run a TxBuf"),
    ("schedule(upcast)", "run_pass builds its values and executor; Simulator::run a TxBuf"),
];

#[test]
fn steady_state_pooled_trials_allocate_nothing() {
    // The smoke-campaign topology: the cell the committed baseline pins.
    let g = TopologySpec::Rgg { n: 2000, radius: 0.05 }.build(0x5EED);
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    let specs = ProtocolSpec::all();
    for (name, _) in EXEMPT {
        assert!(
            specs.iter().any(|s| s.to_string() == *name),
            "exemption {name} names no canonical instance; drop it"
        );
    }
    let mut pool = TrialPool::new();
    for spec in specs {
        let name = spec.to_string();
        if EXEMPT.iter().any(|(exempt, _)| *exempt == name) {
            continue;
        }
        let runnable = spec.instantiate();
        let model = runnable.effective_model(CollisionModel::NoCollisionDetection);
        // Warm-up: the first trial on this (pool, scenario, graph) may
        // allocate — it builds the protocol state, reserves worst-case
        // scratch, and memoizes graph connectivity.
        runnable.run_trial_pooled(&g, net, model, 0, None, &mut pool);
        for seed in 1..=5u64 {
            let before = allocation_count();
            let record = runnable.run_trial_pooled(&g, net, model, seed, None, &mut pool);
            let during = allocation_count() - before;
            assert!(record.rounds > 0, "{name} seed {seed}: the trial really ran");
            assert_eq!(
                during, 0,
                "{name} seed {seed}: a steady-state pooled trial must not touch \
                 the heap, but performed {during} allocation(s)"
            );
        }
    }
}
