//! Allocation gate for the journal sync path: a counting global
//! allocator (this test binary's own) counts the heap allocations made
//! inside `Store::sync` over a seeded loop of syncs, at several batch
//! sizes. A sync writes the database's capture buffer as it is and
//! appends the same bytes to the store's journal copy (and its golden
//! commits to the golden-commit copy), so the only allocations left are
//! the amortized doublings of those two buffers: a fraction of one
//! allocation per sync, under one ceiling from 1 to 256 frames per
//! batch, where an allocation per frame would cost 256. The count is
//! exact and host-independent. The loop also checks that the journal
//! file holds exactly the captured frames and that an empty sync
//! writes nothing.
//!
//! The ceiling is the count of the current sync path. When a change
//! removes allocations, lower it to the new count; never raise it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wtnc_db::{schema, Database};
use wtnc_store::{ScratchDir, Store, StoreConfig, JOURNAL_FILE};

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

/// A splitmix64 stream: the loop below is fixed by its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Syncs per batch size.
const SYNCS: u64 = 64;
/// Frames per sync, smallest to largest.
const BATCHES: [usize; 4] = [1, 8, 64, 256];
/// Ceiling on allocations per `Store::sync`, in hundredths, at every
/// batch size.
const SYNC_ALLOCS_X100: u64 = 28;

#[test]
fn sync_allocations_do_not_grow_with_the_batch() {
    let mut rng = Rng(0x5EED_5111);
    for batch in BATCHES {
        let scratch = ScratchDir::new("sync-alloc-gate");
        let mut db = Database::build(schema::standard_schema()).expect("standard schema");
        let mut store = Store::open(scratch.path(), StoreConfig::default()).expect("open");
        store.attach(&mut db);
        let (mut allocs, mut records, mut written) = (0u64, 0usize, Vec::new());
        for _ in 0..SYNCS {
            for i in 0..batch {
                let bytes = rng.next().to_le_bytes();
                let len = 1 + rng.below(bytes.len());
                let offset = rng.below(db.region_len() - len);
                if i % 16 == 15 {
                    // A golden-side restore: the store keeps a second
                    // copy of golden-commit frames.
                    db.restore_golden_range(offset, &bytes[..len]).expect("restore golden");
                } else {
                    db.poke(offset, &bytes[..len]).expect("poke");
                }
            }
            written.extend_from_slice(db.captured());
            let (synced, n) = counted(|| store.sync(&mut db).expect("sync"));
            allocs += n;
            records += synced;
        }
        assert_eq!(records, batch * SYNCS as usize, "every frame is persisted");
        assert_eq!(store.sync(&mut db).expect("sync"), 0, "an empty sync writes nothing");
        let journal = std::fs::read(store.dir().join(JOURNAL_FILE)).expect("read journal");
        assert!(journal == written, "the journal is the captured frames, byte for byte");
        assert_eq!(store.journal_bytes(), journal.len() as u64);
        let per_sync_x100 = allocs * 100 / SYNCS;
        println!("batch {batch:>3}: allocations x100 per sync {per_sync_x100}");
        assert!(
            per_sync_x100 <= SYNC_ALLOCS_X100,
            "a {batch}-frame sync allocates {per_sync_x100}/100, ceiling {SYNC_ALLOCS_X100}"
        );
    }
}
