//! Allocation gate for the call path: a counting global allocator
//! (this test binary's own) counts the heap allocations made inside
//! `DesClient::start_call` and `DesClient::end_call` over a fixed,
//! seeded loop of call set-ups and tear-downs with journal capture on,
//! as a node with a durable store runs them. The count is exact and
//! host-independent, so the gate fires on any machine.
//!
//! A second gate counts the record headers decoded
//! ([`Database::headers_decoded`]) per record allocation inside
//! `start_call`, with a ceiling of zero: the allocator finds a free
//! slot in the status index, so a scan that decodes headers to find
//! one fails it.
//!
//! A third gate counts the journal frames and bytes the calls capture
//! (`Database::captured`): each record operation is one mutation, so a
//! `start_call` (three allocations, three `write_rec`s) captures exactly
//! six frames and an `end_call` (three frees) exactly three. A call path
//! that journals a record field by field fails it.
//!
//! The ceilings are the counts of the current call path. When a change
//! removes allocations, decodes or journal bytes, lower them to the new
//! counts; never raise them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use wtnc_callproc::{DesClient, WorkloadConfig};
use wtnc_db::{frames, schema, Database, DbApi};
use wtnc_sim::{ProcessRegistry, SimDuration, SimTime};

/// Counts allocations (and reallocations) per thread, so the test
/// harness's own threads never touch the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` tolerates allocation during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Set-ups in the loop; all but the last `CONCURRENT` are torn down.
const CALLS: u64 = 2_000;
/// Calls kept up at once.
const CONCURRENT: usize = 48;
/// Ceiling on allocations per `start_call`, in hundredths.
const START_CALL_ALLOCS_X100: u64 = 146;
/// Ceiling on allocations per `end_call`, in hundredths.
const END_CALL_ALLOCS_X100: u64 = 0;
/// Records `start_call` allocates: a process, a connection and a
/// resource record.
const RECORDS_PER_CALL: u64 = 3;
/// Journal frames one `start_call` captures: an allocation and a
/// `write_rec` per record.
const START_CALL_FRAMES: usize = 6;
/// Journal frames one `end_call` captures: a free per record.
const END_CALL_FRAMES: usize = 3;
/// Ceiling on journal bytes one call (set-up plus tear-down) captures.
const JOURNAL_BYTES_PER_CALL: usize = 433;

#[test]
fn call_path_allocations_stay_under_the_committed_ceilings() {
    let mut db = Database::build(schema::standard_schema_with_slots(4096)).unwrap();
    db.set_capture(true);
    let mut api = DbApi::new();
    let mut registry = ProcessRegistry::new();
    let workload = WorkloadConfig { threads: CONCURRENT + 1, ..WorkloadConfig::default() };
    let mut client = DesClient::new(workload, 7, true);

    let mut live = VecDeque::new();
    let (mut start_allocs, mut end_allocs, mut start_headers) = (0u64, 0u64, 0u64);
    let (mut start_bytes, mut end_bytes) = (0usize, 0usize);
    let mut now = SimTime::from_secs(1);
    for _ in 0..CALLS {
        now += SimDuration::from_millis(10);
        let headers_before = db.headers_decoded();
        let (started, n) = counted(|| client.start_call(&mut db, &mut api, &mut registry, now));
        start_allocs += n;
        start_headers += db.headers_decoded() - headers_before;
        let (handle, _) = started.expect("the loop never runs out of threads or records");
        assert_eq!(frames(db.captured()).count(), START_CALL_FRAMES, "frames per start_call");
        start_bytes += db.captured().len();
        db.clear_captured();
        live.push_back(handle);
        if live.len() > CONCURRENT {
            let oldest = live.pop_front().expect("non-empty");
            let (_, n) = counted(|| client.end_call(&mut db, &mut api, &mut registry, oldest, now));
            end_allocs += n;
            assert_eq!(frames(db.captured()).count(), END_CALL_FRAMES, "frames per end_call");
            end_bytes += db.captured().len();
        }
        // What a store sync would drain, outside the counted calls.
        db.clear_captured();
        api.events_mut().drain().for_each(drop);
    }
    let ends = CALLS - CONCURRENT as u64;
    let per_start_x100 = start_allocs * 100 / CALLS;
    let per_end_x100 = end_allocs * 100 / ends;
    let headers_x100 = start_headers * 100 / (CALLS * RECORDS_PER_CALL);
    println!("allocations x100: start_call {per_start_x100}, end_call {per_end_x100}");
    println!("headers decoded per record allocation x100: {headers_x100}");
    let bytes_per_call = start_bytes / CALLS as usize + end_bytes / ends as usize;
    println!("journal bytes per call: {bytes_per_call}");
    assert!(
        bytes_per_call <= JOURNAL_BYTES_PER_CALL,
        "a call journals {bytes_per_call} bytes, ceiling {JOURNAL_BYTES_PER_CALL}"
    );
    assert!(
        per_start_x100 <= START_CALL_ALLOCS_X100,
        "start_call allocates {per_start_x100}/100 per call, ceiling {START_CALL_ALLOCS_X100}"
    );
    // The ceiling is zero, so it is an equality.
    assert_eq!(
        per_end_x100, END_CALL_ALLOCS_X100,
        "end_call allocates {per_end_x100}/100 per call, ceiling {END_CALL_ALLOCS_X100}"
    );
    // The ceiling is zero: an allocation decodes no header at all.
    assert_eq!(headers_x100, 0, "a record allocation decodes {headers_x100}/100 headers");
}
