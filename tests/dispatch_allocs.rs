//! The dispatcher routes without allocating.
//!
//! Routing is per record on the one thread that feeds every joiner, so a
//! heap allocation there is paid once per record and shows in no result:
//! a dispatcher that builds a fresh `RouteDecision` for each record (two
//! vectors) still routes every record correctly. This test counts the heap
//! allocations the `dispatcher-0` thread makes over a threads run of the
//! benchmark's tweet configuration and bounds them per record. What is
//! left is the batch buffers and the task's own start-up, well under one
//! allocation per ten records.

#![cfg(target_os = "linux")]

use dssj::core::JoinConfig;
use dssj::core::Window;
use dssj::distrib::{run_distributed, DistributedJoinConfig};
use dssj::text::Record;
use dssj::workloads::{DatasetProfile, StreamGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::ffi::c_int;
use std::sync::atomic::{AtomicU64, Ordering};

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}

/// `prctl` option reading the calling thread's name (at most 16 bytes,
/// NUL included).
const PR_GET_NAME: c_int = 16;

/// The name the topology gives its dispatcher task's thread, NUL ended.
const DISPATCHER: &[u8] = b"dispatcher-0\0";

/// Whether the calling thread is the dispatcher's. Asks the kernel, so it
/// allocates nothing and holds no thread-local state.
fn on_dispatcher() -> bool {
    let mut name = [0u8; 16];
    // SAFETY: PR_GET_NAME writes the calling thread's NUL-terminated name,
    // at most 16 bytes, into the buffer it is given, which is 16 bytes
    // long; it touches nothing else.
    let read = unsafe { prctl(PR_GET_NAME, name.as_mut_ptr()) } == 0;
    read && name.starts_with(DISPATCHER)
}

/// The system allocator plus a count of the allocations made on the
/// dispatcher's thread (the one in `crates/distrib/tests/bounded_prealloc.rs`
/// is the model). A reallocation counts: the default `realloc` allocates.
struct CountingAlloc;

static DISPATCHER_ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation is `System`'s, called with the caller's own
// arguments; the only addition is a kernel query of the thread name into
// a stack buffer and an atomic increment, neither of which allocates or
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_dispatcher() {
            DISPATCHER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N: usize = 20_000;
const K: usize = 4;
const BATCH: usize = 32;

#[test]
fn the_dispatcher_makes_under_one_allocation_per_ten_records() {
    let records: Vec<Record> = StreamGenerator::new(DatasetProfile::tweet(), 5).take_records(N);
    let join = JoinConfig::jaccard(0.8).with_window(Window::Count(20_000));
    let cfg = DistributedJoinConfig::recommended(K, join).with_dispatch_batch(BATCH);
    let before = DISPATCHER_ALLOCS.load(Ordering::Relaxed);
    let run = run_distributed(&records, &cfg);
    let allocs = DISPATCHER_ALLOCS.load(Ordering::Relaxed) - before;
    assert!(!run.pairs.is_empty(), "the run must join something");
    assert!(allocs > 0, "no allocation seen on the dispatcher's thread");
    let per_record = allocs as f64 / N as f64;
    assert!(
        per_record < 0.1,
        "the dispatcher made {allocs} allocations for {N} records ({per_record:.3} per record)"
    );
}
