//! The database proper: the contiguous memory region, raw accessors,
//! shadow metadata and the golden disk image.

use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

use wtnc_sim::{Pid, SimTime};

use crate::catalog::{Catalog, FieldId, TableDef, TableId, TableMeta, TableNature};
use crate::dirty::DirtyTracker;
use crate::error::DbError;
use crate::frame::{push_frame, Frame, FrameKind};
use crate::layout::{
    encode_record_id, read_le, write_le, HDR_GROUP, HDR_NEXT, HDR_PREV, HDR_RECORD_ID, HDR_STATUS,
    LINK_NONE, RECORD_HEADER_SIZE, STATUS_ACTIVE, STATUS_FREE,
};
use crate::status::StatusIndex;
use crate::taint::{TaintKind, TaintMap};

/// A `(table, record index)` pair naming one record slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordRef {
    /// The table.
    pub table: TableId,
    /// The record index within the table.
    pub index: u32,
}

impl RecordRef {
    /// Creates a record reference.
    pub fn new(table: TableId, index: u32) -> Self {
        RecordRef { table, index }
    }
}

/// The redundant per-record data structure of §4.3.3: "the ID of the
/// client process that last accessed the record ... the time of last
/// access and counters that maintain database access frequencies".
/// The access frequencies live per table in [`TableStats::accesses`],
/// the counter the prioritized audit reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordMeta {
    /// Client that last wrote the record, if any.
    pub last_writer: Option<Pid>,
    /// Time of the most recent access (read or write).
    pub last_access: SimTime,
}

/// Per-table access statistics feeding prioritized audit triggering
/// (§4.4.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// API operations (reads and writes) against the table.
    pub accesses: u64,
    /// Errors the audit found in the table during the last audit cycle.
    pub errors_last_cycle: u64,
}

/// The decoded header of one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Stored record identifier (should equal
    /// [`encode_record_id`]`(table, index)`).
    pub record_id: u32,
    /// Status byte (should be [`STATUS_FREE`] or [`STATUS_ACTIVE`]).
    pub status: u8,
    /// Logical-group byte.
    pub group: u8,
    /// Next record index in the logical group ([`LINK_NONE`] = none).
    pub next: u16,
    /// Previous record index in the logical group.
    pub prev: u16,
}

impl RecordHeader {
    /// Decodes the header at the start of `record`, the bytes of one
    /// record slot.
    ///
    /// # Panics
    ///
    /// Panics if `record` is shorter than [`RECORD_HEADER_SIZE`].
    pub fn parse(record: &[u8]) -> Self {
        let h = &record[..RECORD_HEADER_SIZE];
        RecordHeader {
            record_id: read_le(&h[HDR_RECORD_ID..], 4) as u32,
            status: h[HDR_STATUS],
            group: h[HDR_GROUP],
            next: read_le(&h[HDR_NEXT..], 2) as u16,
            prev: read_le(&h[HDR_PREV..], 2) as u16,
        }
    }
}

/// The in-memory controller database.
///
/// See the [crate documentation](crate) for the overall model. All
/// methods here are *raw*: they bypass locking, event notification and
/// shadow-metadata upkeep, which belong to [`DbApi`](crate::DbApi).
/// The audit process uses these raw methods deliberately — the paper's
/// audit "access\[es\] the database directly instead of through the
/// database API" to reduce contention.
#[derive(Debug, Clone)]
pub struct Database {
    region: Vec<u8>,
    golden: Vec<u8>,
    /// The parsed catalog, immutable after build. Shared (`Arc`) so
    /// clones of the database reference the layout without copying it.
    catalog: Arc<Catalog>,
    meta: Vec<Vec<RecordMeta>>,
    stats: Vec<TableStats>,
    taint: TaintMap,
    /// Per-table free and active bitsets, derived from the status
    /// bytes and kept exact by every write, plus the allocation hints.
    status: StatusIndex,
    /// Headers decoded by [`Database::header`]: a deterministic work
    /// counter (the allocator and the audit passes decode none).
    headers_decoded: Cell<u64>,
    /// Per-block dirty bitmap, marked by every region mutation.
    dirty: DirtyTracker,
    /// Checkpoint-dirty bitmap over `region ‖ golden` (golden bytes at
    /// offset `region_len`). Unlike [`Database::dirty`], whose bits
    /// audits clear as blocks *verify* clean, these bits accumulate
    /// every mutation since the last checkpoint and are cleared only
    /// by [`Database::clear_checkpoint_dirty`] once a checkpoint has
    /// durably sealed them — the consumption hook for delta
    /// checkpoints.
    ckpt_dirty: DirtyTracker,
    /// Monotonic mutation counter; bumped once per mutation of the
    /// region or of the golden image.
    global_gen: u64,
    /// Per-record generation: `global_gen` at the record's last
    /// mutation.
    record_gen: Vec<Vec<u64>>,
    /// Journal capture buffer (`None` = capture disabled): finished
    /// journal frames, one per mutation, in call order. Fed by the same
    /// [`Database::note_mutation`] hook that maintains the dirty
    /// bitmap, drained by `wtnc-store`.
    capture: Option<Vec<u8>>,
}

impl Database {
    /// Builds a database from a schema: computes the layout, writes the
    /// in-region catalog, formats every record slot, pre-populates
    /// config tables with their default values, and snapshots the
    /// golden disk image.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError::BadSchema`] from catalog construction.
    pub fn build(schema: Vec<TableDef>) -> Result<Self, DbError> {
        let catalog = Catalog::build(schema)?;
        let mut region = vec![0u8; catalog.region_len()];
        catalog.write_region(&mut region);

        let mut meta = Vec::with_capacity(catalog.table_count());
        let mut stats = Vec::with_capacity(catalog.table_count());
        let mut status = StatusIndex::new(catalog.tables().map(|tm| tm.def.record_count));
        for tm in catalog.tables() {
            meta.push(vec![RecordMeta::default(); tm.def.record_count as usize]);
            stats.push(TableStats::default());
            let status_byte =
                if tm.def.nature == TableNature::Config { STATUS_ACTIVE } else { STATUS_FREE };
            for index in 0..tm.def.record_count {
                // Every field starts at its default; for config tables
                // that *is* the configuration data.
                format_slot(&mut region, tm, index, status_byte);
                status.set(tm.id.0 as usize, index as usize, status_byte);
            }
        }

        let golden = region.clone();
        let dirty = DirtyTracker::new(region.len());
        // A freshly built image has never been checkpointed: everything
        // is checkpoint-dirty until the first (full) checkpoint seals it.
        let mut ckpt_dirty = DirtyTracker::new(region.len() * 2);
        ckpt_dirty.mark_all();
        let record_gen =
            catalog.tables().map(|tm| vec![0u64; tm.def.record_count as usize]).collect();
        Ok(Database {
            region,
            golden,
            catalog: Arc::new(catalog),
            meta,
            stats,
            taint: TaintMap::new(),
            status,
            headers_decoded: Cell::new(0),
            dirty,
            ckpt_dirty,
            global_gen: 0,
            record_gen,
            capture: None,
        })
    }

    /// The parsed (trusted) catalog. The audit process holds layout
    /// knowledge here; the client API instead re-validates the
    /// in-region copy on every call.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Read-only view of the whole region.
    pub fn region(&self) -> &[u8] {
        &self.region
    }

    /// Size of the region in bytes.
    pub fn region_len(&self) -> usize {
        self.region.len()
    }

    /// Read-only view of the golden disk image.
    pub fn golden(&self) -> &[u8] {
        &self.golden
    }

    /// The ground-truth taint ledger.
    pub fn taint(&self) -> &TaintMap {
        &self.taint
    }

    // ------------------------------------------------------------------
    // The unified mutation hook: dirty-block tracking, mutation
    // generations and journal capture.
    //
    // Every region mutation funnels through poke / flip_bit /
    // reload_range / reload_all / write_header / write_field_raw /
    // alloc_record_raw / write_span, and each of those calls
    // `note_mutation` once — including the injector's
    // raw bit flips, so nothing bypasses the bitmap *or* the journal
    // capture buffer. Audit elements consume the bitmap and
    // generations to skip provably unchanged state; `wtnc-store`
    // drains the capture buffer into the on-disk journal. (The DB
    // API's event queue is a separate, coarser channel gated on
    // instrumentation; durability deliberately does not depend on it.)
    // ------------------------------------------------------------------

    /// Marks `[offset, offset + len)` mutated: dirties the overlapping
    /// blocks, bumps the global and per-record generations,
    /// and (when capture is enabled) appends the written bytes as a
    /// journal frame.
    fn note_mutation(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.dirty.mark_range(offset, len);
        self.ckpt_dirty.mark_range(offset, len);
        self.global_gen += 1;
        let gen = self.global_gen;
        self.stamp_generations(offset, len, gen);
        if let Some(buf) = self.capture.as_mut() {
            let end = offset.saturating_add(len).min(self.region.len());
            push_frame(buf, FrameKind::Region, gen, offset, &self.region[offset..end]);
        }
    }

    /// Raises the generation of every record slot that
    /// `[offset, offset + len)` overlaps to at least `gen`, and
    /// re-derives the status bits of every slot whose status byte lies
    /// inside the range (a field-only write touches none). Tables lie
    /// in ascending, disjoint offset order, so the first overlapping
    /// one is found by bisection and the walk stops past the range.
    fn stamp_generations(&mut self, offset: usize, len: usize, gen: u64) {
        let end = offset.saturating_add(len);
        let tables = self.catalog.tables().as_slice();
        let first_table = tables.partition_point(|tm| tm.offset + tm.data_len() <= offset);
        for tm in tables[first_table..].iter().take_while(|tm| tm.offset < end) {
            let (t_start, t_end) = (tm.offset, tm.offset + tm.data_len());
            let ti = tm.id.0 as usize;
            let lo = offset.max(t_start) - t_start;
            let hi = end.min(t_end) - t_start;
            let (first, last) = (lo / tm.record_size, (hi - 1) / tm.record_size);
            for g in &mut self.record_gen[ti][first..=last] {
                *g = (*g).max(gen);
            }
            // Only the first and last overlapped slots can have their
            // status byte outside the range: before `lo`, or at or past
            // `hi`.
            let from = first + usize::from(lo % tm.record_size > HDR_STATUS);
            let to = last + 1 - usize::from((hi - 1) % tm.record_size < HDR_STATUS);
            for index in from..to {
                let status = self.region[t_start + index * tm.record_size + HDR_STATUS];
                self.status.set(ti, index, status);
            }
        }
    }

    /// Enables or disables journal capture. Enabling starts an empty
    /// buffer; disabling discards any undrained captures.
    pub fn set_capture(&mut self, enabled: bool) {
        self.capture = if enabled { Some(Vec::new()) } else { None };
    }

    /// The journal frames captured since the last
    /// [`Database::clear_captured`], one per mutation in call order
    /// (walk them with [`frames`](crate::frames)). Empty when capture
    /// is disabled.
    pub fn captured(&self) -> &[u8] {
        self.capture.as_deref().unwrap_or_default()
    }

    /// Empties the capture buffer, keeping its allocation for the next
    /// batch.
    pub fn clear_captured(&mut self) {
        if let Some(buf) = self.capture.as_mut() {
            buf.clear();
        }
    }

    /// Applies one journal frame during replay, *without* re-capturing
    /// it: bytes are written to the region (or golden image), dirty
    /// blocks are marked, and the generations are stamped with the
    /// frame's generation so the recovered database continues the same
    /// monotonic sequence. A compaction marker carries no mutation and
    /// changes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::OutOfBounds`] if the extent leaves the
    /// region (a corrupt journal record that framing failed to catch).
    pub fn apply_frame(&mut self, frame: &Frame<'_>) -> Result<(), DbError> {
        let (offset, len) = (frame.offset, frame.bytes.len());
        let golden = match frame.kind {
            FrameKind::Region => false,
            FrameKind::Golden => true,
            FrameKind::Compaction => return Ok(()),
        };
        self.check_bounds(offset, len)?;
        let target = if golden { &mut self.golden } else { &mut self.region };
        target[offset..offset + len].copy_from_slice(frame.bytes);
        let ckpt_off = if golden { self.region.len() + offset } else { offset };
        self.ckpt_dirty.mark_range(ckpt_off, len);
        if !golden {
            self.dirty.mark_range(offset, len);
            self.stamp_generations(offset, len, frame.gen);
        }
        self.global_gen = self.global_gen.max(frame.gen);
        Ok(())
    }

    /// Replaces the region and golden image wholesale from a recovered
    /// checkpoint, stamping every generation with the checkpoint's
    /// generation, re-deriving the status index and marking everything
    /// dirty (the audits re-verify a recovered image from scratch). Any
    /// pending captures are discarded — the image *is* the durable
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::OutOfBounds`] when either image does not
    /// match the schema's region length.
    pub fn load_image(&mut self, region: &[u8], golden: &[u8], gen: u64) -> Result<(), DbError> {
        for image in [region, golden] {
            if image.len() != self.region.len() {
                return Err(DbError::OutOfBounds {
                    offset: 0,
                    len: image.len(),
                    region: self.region.len(),
                });
            }
        }
        self.region.copy_from_slice(region);
        self.golden.copy_from_slice(golden);
        self.dirty.mark_range(0, self.region.len());
        // The loaded image may differ arbitrarily from whatever the
        // last checkpoint sealed.
        self.ckpt_dirty.mark_all();
        self.global_gen = gen;
        for tm in self.catalog.tables() {
            let records =
                self.region[tm.offset..tm.offset + tm.data_len()].chunks_exact(tm.record_size);
            for (index, record) in records.enumerate() {
                self.status.set(tm.id.0 as usize, index, record[HDR_STATUS]);
            }
        }
        for t in &mut self.record_gen {
            for r in t.iter_mut() {
                *r = gen;
            }
        }
        if let Some(buf) = self.capture.as_mut() {
            buf.clear();
        }
        Ok(())
    }

    /// The per-block dirty bitmap.
    pub fn dirty(&self) -> &DirtyTracker {
        &self.dirty
    }

    /// Mutable access to the dirty bitmap. Audit elements clear bits
    /// here after *verifying* (or repairing) the covered bytes; nothing
    /// else should clear them.
    pub fn dirty_mut(&mut self) -> &mut DirtyTracker {
        &mut self.dirty
    }

    /// The checkpoint-dirty bitmap over `region ‖ golden` (golden
    /// bytes at offset [`Database::region_len`]): every block mutated
    /// since the last [`Database::clear_checkpoint_dirty`]. Delta
    /// checkpoints persist exactly these blocks.
    pub fn checkpoint_dirty(&self) -> &DirtyTracker {
        &self.ckpt_dirty
    }

    /// Clears the checkpoint-dirty bitmap. Called by the store only
    /// after a checkpoint covering the dirty blocks is durably on disk
    /// (written, synced, renamed into place).
    pub fn clear_checkpoint_dirty(&mut self) {
        self.ckpt_dirty.clear_all();
    }

    /// The global mutation generation: bumped once per region
    /// mutation, never reset.
    pub fn mutation_generation(&self) -> u64 {
        self.global_gen
    }

    /// Generation of the last mutation overlapping the record slot
    /// (0 = never mutated since build, or unknown slot).
    pub fn record_generation(&self, rec: RecordRef) -> u64 {
        self.record_gen
            .get(rec.table.0 as usize)
            .and_then(|t| t.get(rec.index as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Fraction of `table`'s blocks currently dirty, in `[0, 1]`
    /// (0 for unknown tables). Feeds the scheduler's dirty-density
    /// priority signal.
    pub fn dirty_density(&self, table: TableId) -> f64 {
        let Ok(tm) = self.catalog.table(table) else {
            return 0.0;
        };
        let blocks = self.dirty.count_blocks_in(tm.offset, tm.data_len());
        if blocks == 0 {
            return 0.0;
        }
        self.dirty.count_dirty_in(tm.offset, tm.data_len()) as f64 / blocks as f64
    }

    /// Mutable access to the taint ledger (injector and classification
    /// paths).
    pub fn taint_mut(&mut self) -> &mut TaintMap {
        &mut self.taint
    }

    // ------------------------------------------------------------------
    // Byte-level access (injection and audit).
    // ------------------------------------------------------------------

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::OutOfBounds`] if the range leaves the region.
    pub fn peek(&self, offset: usize, len: usize) -> Result<&[u8], DbError> {
        self.check_bounds(offset, len)?;
        Ok(&self.region[offset..offset + len])
    }

    /// Overwrites bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::OutOfBounds`] if the range leaves the region.
    pub fn poke(&mut self, offset: usize, bytes: &[u8]) -> Result<(), DbError> {
        self.check_bounds(offset, bytes.len())?;
        self.region[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.note_mutation(offset, bytes.len());
        Ok(())
    }

    /// Flips bit `bit` (0–7) of the byte at `offset`, returning
    /// `(old, new)`. This is the injector's primitive.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::OutOfBounds`] if `offset` leaves the region.
    ///
    /// # Panics
    ///
    /// Panics if `bit > 7`.
    pub fn flip_bit(&mut self, offset: usize, bit: u8) -> Result<(u8, u8), DbError> {
        assert!(bit < 8, "bit index out of range");
        self.check_bounds(offset, 1)?;
        let old = self.region[offset];
        let new = old ^ (1 << bit);
        self.region[offset] = new;
        self.note_mutation(offset, 1);
        Ok((old, new))
    }

    fn check_bounds(&self, offset: usize, len: usize) -> Result<(), DbError> {
        if offset.checked_add(len).is_none_or(|end| end > self.region.len()) {
            return Err(DbError::OutOfBounds { offset, len, region: self.region.len() });
        }
        Ok(())
    }

    /// Restores `[offset, offset+len)` from the golden disk image —
    /// the paper's "reload the affected portion from permanent
    /// storage".
    ///
    /// # Errors
    ///
    /// Returns [`DbError::OutOfBounds`] if the range leaves the region.
    pub fn reload_range(&mut self, offset: usize, len: usize) -> Result<(), DbError> {
        self.check_bounds(offset, len)?;
        self.region[offset..offset + len].copy_from_slice(&self.golden[offset..offset + len]);
        self.note_mutation(offset, len);
        Ok(())
    }

    /// Restores the entire region from the golden disk image — the
    /// escalated recovery for multi-record structural damage.
    pub fn reload_all(&mut self) {
        self.region.copy_from_slice(&self.golden);
        self.note_mutation(0, self.region.len());
    }

    /// Updates the golden image for `[offset, offset+len)` to match the
    /// current region. Called by the API after *legitimate* writes to
    /// static configuration (operator reconfiguration), so that the
    /// golden image tracks intent. Captured for the journal
    /// ([`Database::note_golden`]): losing a golden commit across a
    /// restart would resurrect pre-reconfiguration values.
    pub(crate) fn commit_golden(&mut self, offset: usize, len: usize) {
        self.golden[offset..offset + len].copy_from_slice(&self.region[offset..offset + len]);
        self.note_golden(offset, len);
    }

    /// The golden-image counterpart of [`Database::note_mutation`]:
    /// marks `[offset, offset + len)` of the golden half
    /// checkpoint-dirty, bumps the global generation, and (when capture
    /// is enabled) appends the golden bytes as a journal frame. The
    /// generation of its own puts the commit above any checkpoint
    /// sealed before it, so warm recovery and the durable golden, which
    /// both take the frames newer than the checkpoint, carry it.
    fn note_golden(&mut self, offset: usize, len: usize) {
        self.ckpt_dirty.mark_range(self.region.len() + offset, len);
        self.global_gen += 1;
        if let Some(buf) = self.capture.as_mut() {
            let bytes = &self.golden[offset..offset + len];
            push_frame(buf, FrameKind::Golden, self.global_gen, offset, bytes);
        }
    }

    /// Overwrites part of the in-memory golden image from an external
    /// durable source (the on-disk checkpoint) — the repair path for a
    /// *golden-side* divergence, where the in-memory reference copy
    /// itself is the corrupted party and every golden-based repair
    /// would propagate the corruption. Captured like a golden commit
    /// so the journal stays consistent with the repaired image.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::OutOfBounds`] if the extent leaves the
    /// region.
    pub fn restore_golden_range(&mut self, offset: usize, bytes: &[u8]) -> Result<(), DbError> {
        self.check_bounds(offset, bytes.len())?;
        self.golden[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.note_golden(offset, bytes.len());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Repair API (used by the recovery engine).
    //
    // Each method performs exactly one narrowly scoped repair and
    // returns the byte extent it rewrote, so the caller can resolve
    // taints over that extent, log the repair and re-run the
    // originating audit element against it. Error history is recorded
    // via `note_errors_detected` by the caller, keeping the
    // prioritized-audit feedback loop intact.
    // ------------------------------------------------------------------

    /// CRC-32 block diff of `[offset, offset+len)` against the golden
    /// disk image: the range is cut into `block_size`-byte blocks and
    /// the extents of the mismatching blocks are returned. Restoring
    /// only dirty blocks keeps large static regions repairable within a
    /// small per-cycle budget.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn golden_block_diff(
        &self,
        offset: usize,
        len: usize,
        block_size: usize,
    ) -> Vec<(usize, usize)> {
        assert!(block_size > 0, "block size must be positive");
        let end = (offset + len).min(self.region.len());
        let mut dirty = Vec::new();
        let mut at = offset.min(end);
        while at < end {
            let block_len = block_size.min(end - at);
            let live = crate::crc::crc32(&self.region[at..at + block_len]);
            let gold = crate::crc::crc32(&self.golden[at..at + block_len]);
            if live != gold {
                dirty.push((at, block_len));
            }
            at += block_len;
        }
        dirty
    }

    /// Restores one static block from the golden disk image, returning
    /// the restored extent.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::OutOfBounds`] if the range leaves the region.
    pub fn restore_static_block(
        &mut self,
        offset: usize,
        len: usize,
    ) -> Result<(usize, usize), DbError> {
        self.reload_range(offset, len)?;
        Ok((offset, len))
    }

    /// Restores one record slot (header and fields) from the golden
    /// disk image, returning the restored extent. For dynamic tables
    /// the golden image holds a formatted free slot, so this doubles as
    /// record re-initialization.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] or [`DbError::BadRecordIndex`].
    pub fn restore_record(&mut self, rec: RecordRef) -> Result<(usize, usize), DbError> {
        let base = self.record_offset(rec)?;
        let size = self.record_size(rec.table)?;
        self.reload_range(base, size)?;
        self.status.lower_hint(rec.table.0 as usize, rec.index);
        Ok((base, size))
    }

    /// Resets one field to its catalog default, returning the field's
    /// extent.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`], [`DbError::BadRecordIndex`]
    /// or [`DbError::UnknownField`].
    pub fn reset_field_to_default(
        &mut self,
        rec: RecordRef,
        field: FieldId,
    ) -> Result<(usize, usize), DbError> {
        let default = self.catalog.field(rec.table, field)?.default;
        self.write_field_raw(rec, field, default)?;
        self.field_extent(rec, field)
    }

    /// Rebuilds one record header from its computed offset: the record
    /// id is re-derived, an impossible status byte resolves to
    /// [`STATUS_FREE`], and out-of-range links are cleared. Returns the
    /// header's extent.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] or [`DbError::BadRecordIndex`].
    pub fn rebuild_header(&mut self, rec: RecordRef) -> Result<(usize, usize), DbError> {
        let record_count = self.catalog.table(rec.table)?.def.record_count;
        let mut hdr = self.header(rec)?;
        hdr.record_id = encode_record_id(rec.table.0, rec.index);
        if hdr.status != STATUS_ACTIVE && hdr.status != STATUS_FREE {
            hdr.status = STATUS_FREE;
        }
        if hdr.next != LINK_NONE && (hdr.next as u32) >= record_count {
            hdr.next = LINK_NONE;
        }
        if hdr.prev != LINK_NONE && (hdr.prev as u32) >= record_count {
            hdr.prev = LINK_NONE;
        }
        self.write_header(rec, hdr)?;
        let base = self.record_offset(rec)?;
        Ok((base, RECORD_HEADER_SIZE))
    }

    // ------------------------------------------------------------------
    // Record-level access.
    // ------------------------------------------------------------------

    /// Byte offset of a record within the region.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] or [`DbError::BadRecordIndex`].
    pub fn record_offset(&self, rec: RecordRef) -> Result<usize, DbError> {
        let tm = self.catalog.table(rec.table)?;
        if rec.index >= tm.def.record_count {
            return Err(DbError::BadRecordIndex {
                table: rec.table,
                index: rec.index,
                capacity: tm.def.record_count,
            });
        }
        Ok(tm.record_offset(rec.index))
    }

    /// Record size (header + fields) for a table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`].
    pub fn record_size(&self, table: TableId) -> Result<usize, DbError> {
        Ok(self.catalog.table(table)?.record_size)
    }

    /// Decodes a record header from the region bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] or [`DbError::BadRecordIndex`].
    pub fn header(&self, rec: RecordRef) -> Result<RecordHeader, DbError> {
        let base = self.record_offset(rec)?;
        self.headers_decoded.set(self.headers_decoded.get() + 1);
        Ok(RecordHeader::parse(&self.region[base..]))
    }

    /// Headers decoded by [`Database::header`] since build. The count
    /// is deterministic, so tests can gate the work a scan does: the
    /// allocator and the range and semantic audit passes read the
    /// status index instead and decode none.
    pub fn headers_decoded(&self) -> u64 {
        self.headers_decoded.get()
    }

    /// Rewrites a record header.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] or [`DbError::BadRecordIndex`].
    pub fn write_header(&mut self, rec: RecordRef, hdr: RecordHeader) -> Result<(), DbError> {
        let base = self.record_offset(rec)?;
        let r = &mut self.region;
        write_le(&mut r[base + HDR_RECORD_ID..], 4, hdr.record_id as u64);
        r[base + HDR_STATUS] = hdr.status;
        r[base + HDR_GROUP] = hdr.group;
        write_le(&mut r[base + HDR_NEXT..], 2, hdr.next as u64);
        write_le(&mut r[base + HDR_PREV..], 2, hdr.prev as u64);
        self.note_mutation(base, RECORD_HEADER_SIZE);
        Ok(())
    }

    /// True if the record slot's status byte is exactly
    /// [`STATUS_ACTIVE`] (read from the status index).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] or [`DbError::BadRecordIndex`].
    pub fn is_active(&self, rec: RecordRef) -> Result<bool, DbError> {
        self.record_offset(rec)?;
        Ok(self.status.is_active(rec.table.0 as usize, rec.index))
    }

    /// The first active slot of `table` at or after index `from`, from
    /// the status index (`None` past the last one, or for an unknown
    /// table). Callers that mutate the database between steps call it
    /// again from the next index, so they see every change.
    pub fn next_active(&self, table: TableId, from: u32) -> Option<u32> {
        self.status.next_active(table.0 as usize, from)
    }

    /// Reads one field of an (active or free) record, bypassing locks
    /// and notification.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`], [`DbError::BadRecordIndex`]
    /// or [`DbError::UnknownField`].
    pub fn read_field_raw(&self, rec: RecordRef, field: FieldId) -> Result<u64, DbError> {
        let tm = self.catalog.table(rec.table)?;
        let f = self.catalog.field(rec.table, field)?;
        let base = self.record_offset(rec)?;
        let off = base + tm.field_offsets[field.0 as usize];
        Ok(read_le(&self.region[off..], f.width.bytes()))
    }

    /// Writes one field of a record, bypassing locks and notification.
    /// The value is truncated to the field width.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`], [`DbError::BadRecordIndex`]
    /// or [`DbError::UnknownField`].
    pub fn write_field_raw(
        &mut self,
        rec: RecordRef,
        field: FieldId,
        value: u64,
    ) -> Result<(), DbError> {
        let tm = self.catalog.table(rec.table)?;
        let f = self.catalog.field(rec.table, field)?;
        let base = self.record_offset(rec)?;
        let off = base + tm.field_offsets[field.0 as usize];
        let width = f.width.bytes();
        write_le(&mut self.region[off..], width, value);
        self.note_mutation(off, width);
        Ok(())
    }

    /// Runs one record-level write: `write` writes through the
    /// [`SpanWriter`], and the span from the lowest to the highest byte
    /// it wrote is then noted as one mutation (one dirty mark, one
    /// generation, one journal frame) — also when `write` fails part
    /// way, so the writes made before the failure are journaled.
    pub(crate) fn write_span(
        &mut self,
        write: impl FnOnce(&mut SpanWriter<'_>) -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        let mut writer = SpanWriter { db: self, span: None };
        let out = write(&mut writer);
        if let Some(span) = writer.span {
            self.note_mutation(span.start, span.len());
        }
        out
    }

    /// Byte range `[offset, len)` of one field within the region.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`], [`DbError::BadRecordIndex`]
    /// or [`DbError::UnknownField`].
    pub fn field_extent(&self, rec: RecordRef, field: FieldId) -> Result<(usize, usize), DbError> {
        let tm = self.catalog.table(rec.table)?;
        let f = self.catalog.field(rec.table, field)?;
        let base = self.record_offset(rec)?;
        Ok((base + tm.field_offsets[field.0 as usize], f.width.bytes()))
    }

    /// Finds the first free slot in `table`, marks it active, restores
    /// its header and resets its fields to defaults. Returns the index.
    /// The slot is formatted in place and noted as one mutation (one
    /// journal frame), so a replay never sees it half formatted.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableFull`] when no slot is free, or
    /// [`DbError::UnknownTable`].
    pub fn alloc_record_raw(&mut self, table: TableId) -> Result<u32, DbError> {
        let tm = self.catalog.table(table)?;
        // The first free slot at or after the hint, else the first one
        // below it (a reload-style repair may have freed a slot behind
        // the hint's back).
        let Some(index) = self.status.next_free(table.0 as usize) else {
            return Err(DbError::TableFull(table));
        };
        self.status.set_hint(table.0 as usize, index + 1);
        let base = tm.record_offset(index);
        let len = format_slot(&mut self.region, tm, index, STATUS_ACTIVE);
        self.note_mutation(base, len);
        Ok(index)
    }

    /// Marks a record slot free (its bytes are left in place, like a
    /// real freed record).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] or [`DbError::BadRecordIndex`].
    pub fn free_record_raw(&mut self, rec: RecordRef) -> Result<(), DbError> {
        let mut hdr = self.header(rec)?;
        hdr.status = STATUS_FREE;
        hdr.next = LINK_NONE;
        hdr.prev = LINK_NONE;
        self.write_header(rec, hdr)?;
        self.status.lower_hint(rec.table.0 as usize, rec.index);
        Ok(())
    }

    /// Number of active records in `table`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`].
    pub fn active_count(&self, table: TableId) -> Result<u32, DbError> {
        self.catalog.table(table)?;
        Ok(self.status.active_count(table.0 as usize))
    }

    // ------------------------------------------------------------------
    // Shadow metadata and statistics.
    // ------------------------------------------------------------------

    /// The redundant metadata for one record.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] or [`DbError::BadRecordIndex`].
    pub fn record_meta(&self, rec: RecordRef) -> Result<&RecordMeta, DbError> {
        self.record_offset(rec)?;
        Ok(&self.meta[rec.table.0 as usize][rec.index as usize])
    }

    /// Records a client access in the shadow metadata and table stats.
    /// The API calls this on every instrumented operation; harnesses
    /// may call it directly to synthesize access patterns.
    pub fn note_access(&mut self, rec: RecordRef, pid: Pid, at: SimTime, write: bool) {
        if let (Some(per_table), Some(stats)) =
            (self.meta.get_mut(rec.table.0 as usize), self.stats.get_mut(rec.table.0 as usize))
        {
            if let Some(m) = per_table.get_mut(rec.index as usize) {
                m.last_access = at;
                if write {
                    m.last_writer = Some(pid);
                }
                stats.accesses += 1;
            }
        }
    }

    /// Per-table access/error statistics.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`].
    pub fn table_stats(&self, table: TableId) -> Result<&TableStats, DbError> {
        self.catalog.table(table)?;
        Ok(&self.stats[table.0 as usize])
    }

    /// Records `n` audit-detected errors against `table`.
    pub fn note_errors_detected(&mut self, table: TableId, n: u64) {
        if let Some(s) = self.stats.get_mut(table.0 as usize) {
            s.errors_last_cycle += n;
        }
    }

    /// Zeroes one table's `errors_last_cycle` counter (the scheduler
    /// has consumed it and the table is about to be re-audited).
    pub fn reset_error_cycle_table(&mut self, table: TableId) {
        if let Some(s) = self.stats.get_mut(table.0 as usize) {
            s.errors_last_cycle = 0;
        }
    }

    // ------------------------------------------------------------------
    // Offset classification (injector support).
    // ------------------------------------------------------------------

    /// Classifies an *impending single-bit flip* for taint
    /// bookkeeping, value-aware: the kind says which detector (if any)
    /// could flag the post-flip state.
    ///
    /// * Catalog and static/config bytes → [`TaintKind::StaticData`]
    ///   (the golden CRC detects any flip).
    /// * Header bytes whose flip breaks a structural invariant
    ///   (record id, status byte, out-of-range link) →
    ///   [`TaintKind::Structural`].
    /// * Dynamic field bytes of active records → ruled when the
    ///   post-flip value violates its range rule or perturbs a
    ///   semantic link (the loop check flags even valid-looking
    ///   wrong indices), unruled when the corrupted value would pass
    ///   every rule.
    /// * Everything else (free slots, padding, rule-silent header
    ///   bytes of free records) → [`TaintKind::Slack`].
    pub fn classify_injection(&self, offset: usize, bit: u8) -> TaintKind {
        if offset < self.catalog.catalog_len() {
            return TaintKind::StaticData;
        }
        for tm in self.catalog.tables() {
            let start = tm.offset;
            let end = start + tm.data_len();
            if offset < start || offset >= end {
                continue;
            }
            if tm.def.nature == TableNature::Config {
                return TaintKind::StaticData;
            }
            let rel = offset - start;
            let index = (rel / tm.record_size) as u32;
            let in_rec = rel % tm.record_size;
            let rec = RecordRef::new(tm.id, index);
            let active = self.is_active(rec).unwrap_or(false);
            if in_rec < RECORD_HEADER_SIZE {
                // Which header invariant does the flip break?
                let hdr_byte = in_rec;
                match hdr_byte {
                    HDR_RECORD_ID..=3 => return TaintKind::Structural,
                    b if b == HDR_STATUS => return TaintKind::Structural,
                    b if b == HDR_GROUP => {
                        // The group byte carries no validity rule.
                        return if active { TaintKind::DynamicUnruled } else { TaintKind::Slack };
                    }
                    _ => {
                        // Link bytes: detectable when the flipped link
                        // leaves the valid index range (and is not the
                        // NONE sentinel).
                        let (link_off, shift) = if hdr_byte < HDR_PREV {
                            (HDR_NEXT, hdr_byte - HDR_NEXT)
                        } else if hdr_byte < HDR_PREV + 2 {
                            (HDR_PREV, hdr_byte - HDR_PREV)
                        } else {
                            return if active {
                                TaintKind::DynamicUnruled
                            } else {
                                TaintKind::Slack
                            };
                        };
                        let base = tm.record_offset(index);
                        let current = read_le(&self.region[base + link_off..], 2) as u16;
                        let flipped = current ^ (1u16 << (bit as usize + shift * 8));
                        let invalid = flipped != LINK_NONE && flipped as u32 >= tm.def.record_count;
                        return if invalid {
                            TaintKind::Structural
                        } else if active {
                            TaintKind::DynamicUnruled
                        } else {
                            TaintKind::Slack
                        };
                    }
                }
            }
            if !active {
                return TaintKind::Slack;
            }
            for (fi, f) in tm.def.fields.iter().enumerate() {
                let fo = tm.field_offsets[fi];
                if in_rec < fo || in_rec >= fo + f.width.bytes() {
                    continue;
                }
                if f.kind == crate::catalog::FieldKind::Static {
                    return TaintKind::StaticData;
                }
                // A perturbed link is always caught: either the index
                // leaves the table, or the loop no longer closes at its
                // origin.
                if f.link.is_some() {
                    return TaintKind::DynamicRuled;
                }
                if let Some((lo, hi)) = f.range {
                    let base = tm.record_offset(index);
                    let current = read_le(&self.region[base + fo..], f.width.bytes());
                    let byte_in_field = in_rec - fo;
                    let flipped = current ^ (1u64 << (bit as usize + byte_in_field * 8));
                    let flipped = flipped & f.width.max_value();
                    return if flipped < lo || flipped > hi {
                        TaintKind::DynamicRuled
                    } else {
                        TaintKind::DynamicUnruled
                    };
                }
                return TaintKind::DynamicUnruled;
            }
            return TaintKind::Slack;
        }
        TaintKind::Slack
    }
}

/// Formats record slot `index` of `tm` in place: the header (record
/// id, `status`, no group, no links) and every field at its catalog
/// default. Padding bytes are left as they are. Returns the length of
/// the formatted extent from the slot's start: the header through the
/// last field.
///
/// Always inlined: `build` formats every slot through it, and as an
/// out-of-line call a 32,768-slot build measured ~25% slower.
#[inline(always)]
fn format_slot(region: &mut [u8], tm: &TableMeta, index: u32, status: u8) -> usize {
    let record = &mut region[tm.record_offset(index)..];
    write_le(&mut record[HDR_RECORD_ID..], 4, encode_record_id(tm.id.0, index) as u64);
    record[HDR_STATUS] = status;
    record[HDR_GROUP] = 0;
    write_le(&mut record[HDR_NEXT..], 2, LINK_NONE as u64);
    write_le(&mut record[HDR_PREV..], 2, LINK_NONE as u64);
    let mut end = RECORD_HEADER_SIZE;
    for (f, &off) in tm.def.fields.iter().zip(&tm.field_offsets) {
        write_le(&mut record[off..], f.width.bytes(), f.default);
        end = end.max(off + f.width.bytes());
    }
    end
}

/// The region access of one record-level write in progress (see
/// [`Database::write_span`]): its writes land at once, and the span
/// they cover is noted as one mutation when the write ends.
pub(crate) struct SpanWriter<'a> {
    db: &'a mut Database,
    span: Option<Range<usize>>,
}

impl SpanWriter<'_> {
    /// Read-only view of the whole region, writes so far included.
    pub(crate) fn region(&self) -> &[u8] {
        &self.db.region
    }

    /// The ground-truth taint ledger.
    pub(crate) fn taint_mut(&mut self) -> &mut TaintMap {
        &mut self.db.taint
    }

    /// Overwrites bytes at `offset` and widens the span to cover them.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::OutOfBounds`] if the range leaves the region.
    pub(crate) fn write(&mut self, offset: usize, bytes: &[u8]) -> Result<(), DbError> {
        self.db.check_bounds(offset, bytes.len())?;
        let end = offset + bytes.len();
        self.db.region[offset..end].copy_from_slice(bytes);
        self.span = Some(match self.span.take() {
            Some(span) => span.start.min(offset)..span.end.max(end),
            None => offset..end,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{FieldDef, FieldWidth};

    fn schema() -> Vec<TableDef> {
        vec![
            TableDef::new(
                "config",
                TableNature::Config,
                2,
                vec![
                    FieldDef::static_value("n_cpus", FieldWidth::U8, 4),
                    FieldDef::static_value("max_calls", FieldWidth::U32, 1000),
                ],
            ),
            TableDef::new(
                "conn",
                TableNature::Dynamic,
                4,
                vec![
                    FieldDef::dynamic("caller", FieldWidth::U32).with_range(0, 99_999),
                    FieldDef::dynamic("channel", FieldWidth::U16).with_link(TableId(0)),
                    FieldDef::dynamic("unruled", FieldWidth::U64),
                ],
            ),
        ]
    }

    #[test]
    fn build_formats_headers_and_defaults() {
        let db = Database::build(schema()).unwrap();
        // Config records are pre-populated and active.
        let cfg0 = RecordRef::new(TableId(0), 0);
        assert!(db.is_active(cfg0).unwrap());
        assert_eq!(db.read_field_raw(cfg0, FieldId(0)).unwrap(), 4);
        assert_eq!(db.read_field_raw(cfg0, FieldId(1)).unwrap(), 1000);
        let hdr = db.header(cfg0).unwrap();
        assert_eq!(hdr.record_id, encode_record_id(0, 0));
        assert_eq!(hdr.next, LINK_NONE);
        // Dynamic records start free.
        let conn0 = RecordRef::new(TableId(1), 0);
        assert!(!db.is_active(conn0).unwrap());
        // Golden image matches the freshly built region.
        assert_eq!(db.region(), db.golden());
    }

    #[test]
    fn alloc_free_cycle() {
        let mut db = Database::build(schema()).unwrap();
        let t = TableId(1);
        let a = db.alloc_record_raw(t).unwrap();
        let b = db.alloc_record_raw(t).unwrap();
        assert_ne!(a, b);
        assert_eq!(db.active_count(t).unwrap(), 2);
        db.free_record_raw(RecordRef::new(t, a)).unwrap();
        assert_eq!(db.active_count(t).unwrap(), 1);
        // Freed slot is reused.
        let c = db.alloc_record_raw(t).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn alloc_exhaustion() {
        let mut db = Database::build(schema()).unwrap();
        let t = TableId(1);
        for _ in 0..4 {
            db.alloc_record_raw(t).unwrap();
        }
        assert_eq!(db.alloc_record_raw(t).unwrap_err(), DbError::TableFull(t));
    }

    #[test]
    fn alloc_resets_fields_to_defaults() {
        let mut db = Database::build(schema()).unwrap();
        let t = TableId(1);
        let i = db.alloc_record_raw(t).unwrap();
        let rec = RecordRef::new(t, i);
        db.write_field_raw(rec, FieldId(0), 777).unwrap();
        db.free_record_raw(rec).unwrap();
        let j = db.alloc_record_raw(t).unwrap();
        assert_eq!(i, j);
        assert_eq!(db.read_field_raw(rec, FieldId(0)).unwrap(), 0);
    }

    #[test]
    fn field_round_trip_and_truncation() {
        let mut db = Database::build(schema()).unwrap();
        let t = TableId(1);
        let i = db.alloc_record_raw(t).unwrap();
        let rec = RecordRef::new(t, i);
        db.write_field_raw(rec, FieldId(1), 0x1_FFFF).unwrap();
        assert_eq!(db.read_field_raw(rec, FieldId(1)).unwrap(), 0xFFFF);
    }

    #[test]
    fn flip_bit_and_reload_range() {
        let mut db = Database::build(schema()).unwrap();
        let rec = RecordRef::new(TableId(0), 0);
        let (off, len) = db.field_extent(rec, FieldId(1)).unwrap();
        let (old, new) = db.flip_bit(off, 3).unwrap();
        assert_eq!(old ^ 8, new);
        assert_ne!(db.read_field_raw(rec, FieldId(1)).unwrap(), 1000);
        db.reload_range(off, len).unwrap();
        assert_eq!(db.read_field_raw(rec, FieldId(1)).unwrap(), 1000);
    }

    #[test]
    fn reload_all_restores_everything() {
        let mut db = Database::build(schema()).unwrap();
        for off in (0..db.region_len()).step_by(97) {
            db.flip_bit(off, 0).unwrap();
        }
        db.reload_all();
        assert_eq!(db.region(), db.golden());
    }

    #[test]
    fn bounds_are_enforced() {
        let mut db = Database::build(schema()).unwrap();
        let len = db.region_len();
        assert!(matches!(db.peek(len, 1), Err(DbError::OutOfBounds { .. })));
        assert!(matches!(db.flip_bit(len, 0), Err(DbError::OutOfBounds { .. })));
        assert!(matches!(db.peek(usize::MAX, 2), Err(DbError::OutOfBounds { .. })));
        assert!(matches!(
            db.record_offset(RecordRef::new(TableId(1), 99)),
            Err(DbError::BadRecordIndex { .. })
        ));
    }

    #[test]
    fn classify_injection_covers_all_kinds() {
        let mut db = Database::build(schema()).unwrap();
        // Catalog bytes.
        assert_eq!(db.classify_injection(0, 0), TaintKind::StaticData);
        // Every byte of a Config table, its record headers included, is
        // static data: the golden CRC covers it.
        let cfg_off = db.record_offset(RecordRef::new(TableId(0), 0)).unwrap();
        assert_eq!(db.classify_injection(cfg_off, 0), TaintKind::StaticData);
        let (f_off, _) = db.field_extent(RecordRef::new(TableId(0), 0), FieldId(0)).unwrap();
        assert_eq!(db.classify_injection(f_off, 0), TaintKind::StaticData);
        // Dynamic, free record: slack.
        let (d_off, d_len) = db.field_extent(RecordRef::new(TableId(1), 0), FieldId(0)).unwrap();
        assert_eq!(db.classify_injection(d_off, 0), TaintKind::Slack);
        // Activate it. The ranged field is ruled only when the flipped
        // value leaves the range: 0 -> 1 passes, 0 -> 2^31 does not.
        let i = db.alloc_record_raw(TableId(1)).unwrap();
        assert_eq!(i, 0);
        assert_eq!(db.classify_injection(d_off, 0), TaintKind::DynamicUnruled);
        assert_eq!(db.classify_injection(d_off + d_len - 1, 7), TaintKind::DynamicRuled);
        // A perturbed link is always caught.
        let (l_off, _) = db.field_extent(RecordRef::new(TableId(1), 0), FieldId(1)).unwrap();
        assert_eq!(db.classify_injection(l_off, 0), TaintKind::DynamicRuled);
        let (u_off, _) = db.field_extent(RecordRef::new(TableId(1), 0), FieldId(2)).unwrap();
        assert_eq!(db.classify_injection(u_off, 5), TaintKind::DynamicUnruled);
        // The record-id bytes of a dynamic header are structural even
        // when the record is free; its group byte carries no rule.
        let hdr_off = db.record_offset(RecordRef::new(TableId(1), 1)).unwrap();
        assert_eq!(db.classify_injection(hdr_off, 0), TaintKind::Structural);
        assert_eq!(db.classify_injection(hdr_off + HDR_STATUS, 0), TaintKind::Structural);
        assert_eq!(db.classify_injection(hdr_off + HDR_GROUP, 0), TaintKind::Slack);
        let active_hdr = db.record_offset(RecordRef::new(TableId(1), 0)).unwrap();
        assert_eq!(db.classify_injection(active_hdr + HDR_GROUP, 0), TaintKind::DynamicUnruled);
    }

    #[test]
    fn shadow_metadata_updates() {
        let mut db = Database::build(schema()).unwrap();
        let rec = RecordRef::new(TableId(1), 0);
        db.alloc_record_raw(TableId(1)).unwrap();
        db.note_access(rec, Pid(9), SimTime::from_secs(5), true);
        db.note_access(rec, Pid(9), SimTime::from_secs(6), false);
        let m = db.record_meta(rec).unwrap();
        assert_eq!(m.last_writer, Some(Pid(9)));
        assert_eq!(m.last_access, SimTime::from_secs(6));
        assert_eq!(db.table_stats(TableId(1)).unwrap().accesses, 2);
    }

    #[test]
    fn mutations_mark_dirty_blocks_and_generations() {
        let mut db = Database::build(schema()).unwrap();
        assert_eq!(db.dirty().dirty_count(), 0, "fresh build starts clean");
        assert_eq!(db.mutation_generation(), 0);

        // An API-path field write marks the record and block.
        let t = TableId(1);
        let i = db.alloc_record_raw(t).unwrap();
        let rec = RecordRef::new(t, i);
        let gen_after_alloc = db.mutation_generation();
        assert!(gen_after_alloc > 0);
        assert!(db.record_generation(rec) > 0);
        assert!(db.dirty().dirty_count() > 0);

        // A raw injector flip also bumps generations: nothing bypasses.
        let (off, _) = db.field_extent(rec, FieldId(0)).unwrap();
        db.flip_bit(off, 0).unwrap();
        assert!(db.mutation_generation() > gen_after_alloc);
        assert_eq!(db.record_generation(rec), db.mutation_generation());
        assert!(db.dirty().any_dirty_in(off, 1));

        // A golden reload of the slot is itself a mutation.
        let before = db.mutation_generation();
        let (base, size) = db.restore_record(rec).unwrap();
        assert!(db.mutation_generation() > before);
        assert!(db.dirty().any_dirty_in(base, size));

        // An untouched table's records keep generation 0. (Its dirty
        // *density* may still be nonzero: 256-byte blocks can span
        // table boundaries.)
        assert_eq!(db.record_generation(RecordRef::new(TableId(0), 0)), 0);
        assert!(db.dirty_density(t) > 0.0);
    }

    #[test]
    fn capture_feeds_from_the_unified_mutation_hook() {
        let mut db = Database::build(schema()).unwrap();
        db.set_capture(true);
        assert!(db.capture.is_some());
        let t = TableId(1);
        let i = db.alloc_record_raw(t).unwrap();
        let rec = RecordRef::new(t, i);
        db.write_field_raw(rec, FieldId(0), 77).unwrap();
        // A raw injector flip is captured too: nothing bypasses.
        let (off, _) = db.field_extent(rec, FieldId(0)).unwrap();
        db.flip_bit(off, 1).unwrap();
        let captured: Vec<_> = crate::frames(db.captured()).collect();
        assert!(captured.len() >= 3);
        assert_eq!(captured.iter().map(|f| f.raw.len()).sum::<usize>(), db.captured().len());
        for w in captured.windows(2) {
            assert!(w[0].gen <= w[1].gen, "capture order follows generation order");
        }

        // Replaying the stream over a fresh database reproduces the
        // exact image and generation.
        let mut fresh = Database::build(schema()).unwrap();
        for f in &captured {
            fresh.apply_frame(f).unwrap();
        }
        assert_eq!(fresh.region(), db.region());
        assert_eq!(fresh.mutation_generation(), db.mutation_generation());
        db.clear_captured();
        assert!(db.captured().is_empty(), "drained");
    }

    #[test]
    fn golden_commit_and_golden_restore_are_captured() {
        let mut db = Database::build(schema()).unwrap();
        db.set_capture(true);
        let rec = RecordRef::new(TableId(0), 0);
        let (off, len) = db.field_extent(rec, FieldId(1)).unwrap();
        db.write_field_raw(rec, FieldId(1), 2000).unwrap();
        db.commit_golden(off, len);
        let captured: Vec<_> = crate::frames(db.captured()).collect();
        let golden: Vec<_> = captured.iter().filter(|f| f.kind == FrameKind::Golden).collect();
        assert_eq!(golden.len(), 1);
        assert_eq!(golden[0].offset, off);
        assert_eq!(golden[0].gen, captured[0].gen + 1, "a golden commit has its own generation");
        assert_eq!(db.mutation_generation(), golden[0].gen);

        // Replay onto a fresh db: the golden image tracks the commit.
        let mut fresh = Database::build(schema()).unwrap();
        for f in &captured {
            fresh.apply_frame(f).unwrap();
        }
        assert_eq!(fresh.golden(), db.golden());

        // restore_golden_range is captured the same way.
        let patch = vec![0xEE; len];
        db.clear_captured();
        db.restore_golden_range(off, &patch).unwrap();
        let captured: Vec<_> = crate::frames(db.captured()).collect();
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].kind, FrameKind::Golden);
        assert_eq!(captured[0].bytes, &patch[..]);
        assert!(db.restore_golden_range(db.region_len(), &[1]).is_err());
    }

    #[test]
    fn load_image_replaces_state_and_stamps_generations() {
        let mut db = Database::build(schema()).unwrap();
        db.alloc_record_raw(TableId(1)).unwrap();
        let region = db.region().to_vec();
        let golden = db.golden().to_vec();

        let mut other = Database::build(schema()).unwrap();
        other.load_image(&region, &golden, 42).unwrap();
        assert_eq!(other.region(), db.region());
        assert_eq!(other.golden(), db.golden());
        assert_eq!(other.mutation_generation(), 42);
        assert_eq!(other.record_generation(RecordRef::new(TableId(1), 0)), 42);
        assert!(other.dirty().dirty_count() > 0, "a recovered image is re-verified from scratch");
        assert!(other.load_image(&region[1..], &golden, 1).is_err());
    }

    #[test]
    fn error_counters_cycle() {
        let mut db = Database::build(schema()).unwrap();
        db.note_errors_detected(TableId(1), 3);
        assert_eq!(db.table_stats(TableId(1)).unwrap().errors_last_cycle, 3);
        db.reset_error_cycle_table(TableId(1));
        assert_eq!(db.table_stats(TableId(1)).unwrap().errors_last_cycle, 0);
    }
}
