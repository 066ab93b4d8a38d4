//! A count read from the wire or from disk must not size an allocation:
//! each decoder that pre-allocates for a declared element count is fed a
//! header claiming `u32::MAX` elements and nothing after it, and must fail
//! with a typed error having asked the allocator for next to nothing — not
//! for the 16–32 GiB the header describes.

use ssj_core::snapshot::decode_window_slice;
use ssj_distrib::checkpoint::Manifest;
use ssj_distrib::wire::Frame;
use ssj_partition::LengthPartition;
use ssj_text::codec::decode_record;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

/// The system allocator plus a per-thread count of bytes requested (the
/// one in `crates/stormlite/tests/codec.rs` is the model).
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every operation is `System`'s, called with the caller's own
// arguments; the only addition is a bump of a `const`-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
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

/// What a decoder may ask for while refusing a hostile header.
const BUDGET: usize = 64 * 1024;

/// Runs `decode` on this thread and returns its error with the bytes it
/// requested from the allocator.
fn refused<T: std::fmt::Debug>(decode: impl FnOnce() -> io::Result<T>) -> (io::Error, usize) {
    let before = ALLOCATED.with(Cell::get);
    let err = decode().expect_err("a header with nothing behind it must not decode");
    (err, ALLOCATED.with(Cell::get) - before)
}

#[test]
fn record_header_claiming_u32_max_tokens_is_refused_unallocated() {
    let mut header = Vec::new();
    header.extend_from_slice(&7u64.to_le_bytes()); // id
    header.extend_from_slice(&0u64.to_le_bytes()); // timestamp
    header.extend_from_slice(&u32::MAX.to_le_bytes()); // token count
    assert_eq!(header.len(), 20);
    let (err, allocated) = refused(|| decode_record(&mut header.as_slice()));
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(allocated < BUDGET, "allocated {allocated} B for 0 tokens");
}

#[test]
fn snapshot_header_claiming_u32_max_entries_is_refused_unallocated() {
    // A well-formed empty snapshot with its entry count overwritten.
    let mut header = ssj_core::snapshot::encode_window_vec(&[]).unwrap();
    header[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    let (err, allocated) = refused(|| decode_window_slice(&header));
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(allocated < BUDGET, "allocated {allocated} B for 0 entries");
}

#[test]
fn results_frame_claiming_u32_max_pairs_is_refused_unallocated() {
    // A well-formed empty `Results` frame with its pair count overwritten.
    let mut header = Frame::Results(Vec::new()).encode().unwrap();
    assert_eq!(header.len(), 5);
    header[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    let (err, allocated) = refused(|| Frame::decode(&header));
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("truncated"), "{err}");
    assert!(allocated < BUDGET, "allocated {allocated} B for 0 pairs");
}

#[test]
fn manifest_claiming_u32_max_partition_bounds_is_refused_unallocated() {
    // A well-formed one-bound manifest with its bound count overwritten.
    let mut bytes = Manifest {
        epoch: 1,
        cut_id: 9,
        k: 1,
        bistream: false,
        partition: Some(LengthPartition::from_uppers(vec![40])),
    }
    .encode();
    bytes[34..38].copy_from_slice(&u32::MAX.to_le_bytes());
    let (err, allocated) = refused(|| Manifest::decode(&bytes));
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("truncated"), "{err}");
    assert!(allocated < BUDGET, "allocated {allocated} B for 1 bound");
}
