//! Encoding costs its output plus a key table: neither codec builds a
//! value tree, so encoding a fleet manifest needs at most ~2× the output's
//! size in heap, the output buffer included.
//!
//! The test counts every allocation in the process through a counting
//! global allocator, so it sits alone in its own test binary.

use cpa::data::codec;
use cpa::data::profile::DatasetProfile;
use cpa::data::simulate::simulate;
use cpa::data::stream::WorkerStream;
use cpa::eval::runner::Method;
use cpa::math::rng::seeded;
use cpa::serve::{Fleet, FleetOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// The system allocator, keeping count of the live and peak heap bytes. A
/// `realloc` counts by its net change, as the allocator may resize the
/// block in place.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, SeqCst) + bytes;
    PEAK.fetch_max(live, SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (every block of
        // this allocator does).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` with `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, SeqCst);
                }
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `encode` returns, and the peak live heap above the level before it.
fn peak_extra<T>(encode: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    let out = encode();
    (out, PEAK.load(SeqCst) - base)
}

#[test]
fn encoding_a_manifest_needs_at_most_twice_its_output_in_heap() {
    // `decode_paths`' K=4 CPA-SVI fleet.
    const SEED: u64 = 4411;
    let d = simulate(&DatasetProfile::movie().scaled(0.05), SEED).dataset;
    let batches = WorkerStream::new(&d, 8, &mut seeded(SEED + 1)).into_batches();
    let (i, u, c) = (d.num_items(), d.num_workers(), d.num_labels());
    let mut fleet = Fleet::new(4, 1, i, u, c, |_| Method::CpaSvi.engine(i, u, c, SEED));
    for batch in &batches {
        fleet.apply(FleetOp::ingest_from(&d.answers, batch));
    }
    let manifest = fleet.snapshot();

    let (json, json_peak) = peak_extra(|| manifest.to_json());
    let (binary, binary_peak) = peak_extra(|| codec::to_bytes(&manifest));
    for (codec, bytes, peak) in [
        ("JSON", json.len(), json_peak),
        ("binary", binary.len(), binary_peak),
    ] {
        let ratio = peak as f64 / bytes as f64;
        eprintln!("{codec}: {bytes} B out, heap peak +{peak} B ({ratio:.2}× the output)");
        assert!(
            peak <= 2 * bytes,
            "{codec}: heap peak +{peak} B for {bytes} B out"
        );
    }
}
