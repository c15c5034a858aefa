//! The client-facing database API (`DBinit` … `DBmove`).
//!
//! This is the "modified" API of the paper: besides performing the
//! requested operation it (a) maintains and manipulates record locks
//! transparently, (b) sends a message to the audit process on every
//! call (the event channel of Figure 1), and (c) maintains the shadow
//! metadata — last writer, last access time, per-table access counts —
//! that the audit's diagnosis and prioritization rely on. All of that costs
//! time, which is exactly what the paper's Figure 4 measures; the
//! instrumentation can be disabled to obtain the "original" API.
//!
//! Unlike the audit (which holds trusted layout knowledge), the API
//! validates and uses the **in-region system catalog** on every call,
//! so catalog corruption genuinely breaks client operations.
//!
//! Every record operation runs one access protocol, written once as
//! private helpers and called in this order:
//!
//! 1. *Admission* (`admit`): charge the operation's cost, even when
//!    the call then fails, check the connection and validate the
//!    in-region catalog entry; `admit_record` also bound-checks the
//!    record index.
//! 2. *Lock rule*: the read rule (`check_read_lock`) refuses a record
//!    locked by another client; the write rule (`with_write_lock`)
//!    holds the lock for the call and releases it unless the caller
//!    held it already.
//! 3. *Completion* (`complete`): the shadow-metadata update, when
//!    instrumented, then the one audit event.
//!
//! An operation whose steps differ calls only the helpers it needs:
//! `alloc_record` names no record, `free_record` takes the read rule
//! but does not require the record to be active, and `reconfigure`
//! bypasses the in-region catalog and the lock.

use std::collections::{BTreeSet, HashMap};

use wtnc_sim::{Enqueue, FairQueue, Pid, SimDuration, SimTime};

use crate::catalog::{Catalog, FieldId, RegionTableEntry, TableId};
use crate::database::{Database, RecordRef};
use crate::error::DbError;
use crate::events::{DbEvent, DbOp};
use crate::layout::{
    read_le, write_le, CATALOG_HEADER_SIZE, FIELD_DESC_SIZE, HDR_GROUP, HDR_NEXT, HDR_PREV,
    HDR_STATUS, LINK_NONE, STATUS_ACTIVE, TABLE_DESC_SIZE,
};
use crate::taint::TaintFate;

/// Simulated execution cost of each API primitive: the base cost of
/// the original function plus the fractional overhead added by the
/// audit instrumentation. Defaults approximate the paper's Figure 4
/// (microseconds on a Sun UltraSPARC-2; only relative magnitudes
/// matter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApiCosts {
    /// Base cost of `DBinit` and its instrumentation overhead fraction.
    pub init: (SimDuration, f64),
    /// Base cost of `DBclose`.
    pub close: (SimDuration, f64),
    /// Base cost of `DBread_rec`.
    pub read_rec: (SimDuration, f64),
    /// Base cost of `DBread_fld`.
    pub read_fld: (SimDuration, f64),
    /// Base cost of `DBwrite_rec`.
    pub write_rec: (SimDuration, f64),
    /// Base cost of `DBwrite_fld`.
    pub write_fld: (SimDuration, f64),
    /// Base cost of `DBmove`.
    pub mov: (SimDuration, f64),
}

impl Default for ApiCosts {
    fn default() -> Self {
        let us = SimDuration::from_micros;
        ApiCosts {
            init: (us(620), 0.065),
            close: (us(155), 0.191),
            read_rec: (us(150), 0.105),
            read_fld: (us(110), 0.103),
            write_rec: (us(310), 0.452),
            write_fld: (us(235), 0.294),
            mov: (us(210), 0.258),
        }
    }
}

impl ApiCosts {
    /// Cost of one invocation of `op`, with or without the audit
    /// instrumentation.
    pub fn cost(&self, op: DbOp, instrumented: bool) -> SimDuration {
        let (base, ovh) = match op {
            DbOp::Init => self.init,
            DbOp::Close => self.close,
            DbOp::ReadRec => self.read_rec,
            DbOp::ReadFld => self.read_fld,
            DbOp::WriteRec | DbOp::Alloc | DbOp::Free => self.write_rec,
            DbOp::WriteFld => self.write_fld,
            DbOp::Move => self.mov,
        };
        if instrumented {
            SimDuration::from_secs_f64(base.as_secs_f64() * (1.0 + ovh))
        } else {
            base
        }
    }
}

/// The record-lock table the API manages transparently for its
/// clients. Locks are keyed by record and owned by a client process;
/// the acquisition time supports the progress indicator's stale-lock
/// recovery.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: HashMap<(TableId, u32), (Pid, SimTime)>,
}

impl LockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the lock on `rec` for `pid` (re-entrant for the same
    /// owner).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::LockHeld`] if another client holds it.
    pub fn acquire(&mut self, rec: RecordRef, pid: Pid, now: SimTime) -> Result<(), DbError> {
        match self.locks.get(&(rec.table, rec.index)) {
            Some(&(holder, _)) if holder != pid => {
                Err(DbError::LockHeld { table: rec.table, index: rec.index, holder })
            }
            Some(_) => Ok(()),
            None => {
                self.locks.insert((rec.table, rec.index), (pid, now));
                Ok(())
            }
        }
    }

    /// Releases the lock on `rec` if `pid` holds it. Returns whether a
    /// lock was released.
    pub fn release(&mut self, rec: RecordRef, pid: Pid) -> bool {
        match self.locks.get(&(rec.table, rec.index)) {
            Some(&(holder, _)) if holder == pid => {
                self.locks.remove(&(rec.table, rec.index));
                true
            }
            _ => false,
        }
    }

    /// Releases every lock held by `pid` (client exit or recovery
    /// action), returning how many were released.
    pub fn release_all(&mut self, pid: Pid) -> usize {
        let before = self.locks.len();
        self.locks.retain(|_, &mut (holder, _)| holder != pid);
        before - self.locks.len()
    }

    /// Current holder of the lock on `rec`.
    pub fn holder(&self, rec: RecordRef) -> Option<Pid> {
        self.locks.get(&(rec.table, rec.index)).map(|&(p, _)| p)
    }

    /// Locks held longer than `threshold` as of `now`: the candidates
    /// for progress-indicator recovery.
    pub fn stale(&self, now: SimTime, threshold: SimDuration) -> Vec<(RecordRef, Pid, SimTime)> {
        let mut out: Vec<_> = self
            .locks
            .iter()
            .filter(|&(_, &(_, since))| now.saturating_since(since) > threshold)
            .map(|(&(t, i), &(p, since))| (RecordRef::new(t, i), p, since))
            .collect();
        out.sort_by_key(|&(r, _, _)| (r.table, r.index));
        out
    }

    /// Every lock held by `pid`, sorted by `(table, index)`. The
    /// supervision tier uses this to report exactly which locks it is
    /// about to steal from a condemned client before `release_all`.
    pub fn held_by(&self, pid: Pid) -> Vec<RecordRef> {
        let mut out: Vec<_> = self
            .locks
            .iter()
            .filter(|&(_, &(holder, _))| holder == pid)
            .map(|(&(t, i), _)| RecordRef::new(t, i))
            .collect();
        out.sort_by_key(|&r| (r.table, r.index));
        out
    }

    /// Number of held locks.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True when no locks are held.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }
}

/// Sizing of the IPC event queue between the database API and the
/// audit process.
///
/// The queue is a [`FairQueue`]: `capacity` bounds the total backlog
/// the audit process can ever face, and `lane_capacity` bounds any one
/// client's share of it, so a super-producer saturates only its own
/// lane. Producers rejected by global congestion are told to retry
/// after `retry_after`.
///
/// Both capacities must be non-zero: [`FairQueue::new`] **panics** on
/// a zero capacity rather than silently misbehave as an always-full or
/// always-dropping queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpcConfig {
    /// Total undelivered-event bound across all producers.
    pub capacity: usize,
    /// Per-producer bound (a single client's maximum share).
    pub lane_capacity: usize,
    /// Retry delay suggested to backpressured producers.
    pub retry_after: SimDuration,
}

impl Default for IpcConfig {
    fn default() -> Self {
        // The historical queue size, now split into four fair lanes.
        IpcConfig {
            capacity: 65_536,
            lane_capacity: 16_384,
            retry_after: SimDuration::from_millis(10),
        }
    }
}

/// The database API instance shared by all clients of one controller
/// node.
#[derive(Debug)]
pub struct DbApi {
    connections: BTreeSet<Pid>,
    locks: LockTable,
    events: FairQueue<DbEvent>,
    costs: ApiCosts,
    instrumented: bool,
    cost_accum: SimDuration,
}

impl Default for DbApi {
    fn default() -> Self {
        Self::new()
    }
}

impl DbApi {
    /// Creates an API instance with audit instrumentation enabled,
    /// default costs and the default event-queue sizing.
    pub fn new() -> Self {
        Self::with_ipc(IpcConfig::default())
    }

    /// Creates an API instance with an explicit event-queue sizing.
    ///
    /// # Panics
    ///
    /// Panics if `ipc.capacity` or `ipc.lane_capacity` is zero (see
    /// [`IpcConfig`]).
    pub fn with_ipc(ipc: IpcConfig) -> Self {
        DbApi {
            connections: BTreeSet::new(),
            locks: LockTable::new(),
            events: FairQueue::new(ipc.capacity, ipc.lane_capacity, ipc.retry_after),
            costs: ApiCosts::default(),
            instrumented: true,
            cost_accum: SimDuration::ZERO,
        }
    }

    /// Creates the "original" API with all audit instrumentation
    /// disabled (no events, no shadow metadata, base costs).
    pub fn without_instrumentation() -> Self {
        let mut api = Self::new();
        api.instrumented = false;
        api
    }

    /// The event queue towards the audit process. The audit main
    /// thread drains this.
    pub fn events_mut(&mut self) -> &mut FairQueue<DbEvent> {
        &mut self.events
    }

    /// Read-only view of the event queue. A supervision tier taps the
    /// pending traffic through this without stealing messages from the
    /// audit process, which remains the queue's consumer.
    pub fn events(&self) -> &FairQueue<DbEvent> {
        &self.events
    }

    /// Posts a raw event on behalf of a client, returning the explicit
    /// [`Enqueue`] verdict. This is the client-visible IPC path: a
    /// flooding client sees `Shed` once its own lane is full and
    /// `Backpressure` when the queue as a whole is congested, and the
    /// caller decides whether to retry. Internal API notifications use
    /// the same queue, so its drop/shed accounting covers both paths.
    pub fn post_event(
        &mut self,
        pid: Pid,
        op: DbOp,
        table: Option<TableId>,
        record: Option<u32>,
        at: SimTime,
    ) -> Enqueue {
        self.events.try_send(pid, DbEvent { at, pid, op, table, record })
    }

    /// Events shed at a producer's lane bound since construction.
    pub fn events_shed(&self) -> u64 {
        self.events.shed()
    }

    /// Enqueue attempts rejected with a retry hint since construction.
    pub fn events_backpressured(&self) -> u64 {
        self.events.backpressured()
    }

    /// The lock table (progress indicator reads it; recovery releases
    /// through it).
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Mutable lock table access for recovery actions.
    pub fn locks_mut(&mut self) -> &mut LockTable {
        &mut self.locks
    }

    /// Simulated execution time consumed by API calls since the last
    /// [`DbApi::take_cost`].
    pub fn take_cost(&mut self) -> SimDuration {
        std::mem::take(&mut self.cost_accum)
    }

    fn charge(&mut self, op: DbOp) {
        self.cost_accum += self.costs.cost(op, self.instrumented);
    }

    fn notify(
        &mut self,
        pid: Pid,
        op: DbOp,
        table: Option<TableId>,
        record: Option<u32>,
        at: SimTime,
    ) {
        if self.instrumented {
            // The fair queue accounts for every rejected event (shed
            // or backpressured), so nothing is lost silently even when
            // a storm saturates the audit IPC path.
            let _ = self.post_event(pid, op, table, record, at);
        }
    }

    fn require_connection(&self, pid: Pid) -> Result<(), DbError> {
        if self.connections.contains(&pid) {
            Ok(())
        } else {
            Err(DbError::NotConnected(pid))
        }
    }

    /// `DBinit`: opens a client connection.
    pub fn init(&mut self, pid: Pid) {
        self.init_at(pid, SimTime::ZERO);
    }

    /// `DBinit` at a known simulation time.
    pub fn init_at(&mut self, pid: Pid, at: SimTime) {
        self.charge(DbOp::Init);
        self.connections.insert(pid);
        self.notify(pid, DbOp::Init, None, None, at);
    }

    /// `DBclose`: closes a client connection and releases its locks.
    pub fn close(&mut self, pid: Pid, at: SimTime) {
        self.charge(DbOp::Close);
        self.connections.remove(&pid);
        self.locks.release_all(pid);
        self.notify(pid, DbOp::Close, None, None, at);
    }

    /// Simulates a client that terminates prematurely **without**
    /// committing: the connection vanishes but its locks stay behind —
    /// the deadlock scenario the progress indicator exists to resolve.
    pub fn crash_client(&mut self, pid: Pid) {
        self.connections.remove(&pid);
        // Locks intentionally not released.
    }

    /// Admission for an operation on `table`: charges `op` (even when
    /// the call then fails), checks the connection and validates the
    /// in-region catalog entry.
    fn admit(
        &mut self,
        db: &mut Database,
        op: DbOp,
        pid: Pid,
        table: TableId,
        at: SimTime,
    ) -> Result<RegionTableEntry, DbError> {
        self.charge(op);
        self.require_connection(pid)?;
        region_entry(db, table, at)
    }

    /// `admit` for an operation on one record: also checks the
    /// index against the in-region record count and returns the
    /// record's base offset.
    fn admit_record(
        &mut self,
        db: &mut Database,
        op: DbOp,
        pid: Pid,
        rec: RecordRef,
        at: SimTime,
    ) -> Result<(RegionTableEntry, usize), DbError> {
        let entry = self.admit(db, op, pid, rec.table, at)?;
        if rec.index >= entry.record_count {
            return Err(DbError::BadRecordIndex {
                table: rec.table,
                index: rec.index,
                capacity: entry.record_count,
            });
        }
        let base = entry.offset + entry.record_size * rec.index as usize;
        Ok((entry, base))
    }

    /// The read lock rule: a record locked by another client is refused.
    fn check_read_lock(&self, rec: RecordRef, pid: Pid) -> Result<(), DbError> {
        match self.locks.holder(rec) {
            Some(holder) if holder != pid => {
                Err(DbError::LockHeld { table: rec.table, index: rec.index, holder })
            }
            _ => Ok(()),
        }
    }

    /// The write lock rule: runs `body` holding the lock on `rec`,
    /// which is released afterwards unless `pid` already held it.
    fn with_write_lock(
        &mut self,
        rec: RecordRef,
        pid: Pid,
        at: SimTime,
        body: impl FnOnce() -> Result<(), DbError>,
    ) -> Result<(), DbError> {
        let held_before = self.locks.holder(rec) == Some(pid);
        self.locks.acquire(rec, pid, at)?;
        let result = body();
        if !held_before {
            self.locks.release(rec, pid);
        }
        result
    }

    /// Completion of a successful record operation: the shadow
    /// metadata update (instrumented API only) and the audit event.
    fn complete(&mut self, db: &mut Database, op: DbOp, pid: Pid, rec: RecordRef, at: SimTime) {
        if self.instrumented {
            db.note_access(rec, pid, at, op.is_write());
        }
        self.notify(pid, op, Some(rec.table), Some(rec.index), at);
    }

    /// `DBread_rec`: reads every field of an active record.
    ///
    /// # Errors
    ///
    /// As for [`DbApi::read_rec_into`].
    pub fn read_rec(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        at: SimTime,
    ) -> Result<Vec<u64>, DbError> {
        let mut values = Vec::new();
        self.read_rec_into(db, pid, table, index, at, &mut values)?;
        Ok(values)
    }

    /// `DBread_rec` into a caller's buffer: `values` is cleared, then
    /// holds every field of the active record in field order. A client
    /// that reads many records reuses one buffer and allocates nothing.
    /// On an error `values` may hold a prefix of the fields.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NotConnected`], [`DbError::CatalogCorrupt`],
    /// [`DbError::BadRecordIndex`], [`DbError::LockHeld`],
    /// [`DbError::RecordFree`] or [`DbError::OutOfBounds`].
    pub fn read_rec_into(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        at: SimTime,
        values: &mut Vec<u64>,
    ) -> Result<(), DbError> {
        values.clear();
        let rec = RecordRef::new(table, index);
        let (entry, base) = self.admit_record(db, DbOp::ReadRec, pid, rec, at)?;
        self.check_read_lock(rec, pid)?;
        require_active(db, rec, base, at)?;
        values.reserve(entry.field_count);
        for fi in 0..entry.field_count {
            let f = Catalog::read_region_field(db.region(), table, &entry, FieldId(fi as u16))?;
            let bytes = db.peek(base + f.offset_in_record, f.width.bytes())?;
            values.push(read_le(bytes, f.width.bytes()));
        }
        // The whole record (header + data) has been consumed.
        db.taint_mut().resolve_range(base, entry.record_size, TaintFate::Escaped { at });
        self.complete(db, DbOp::ReadRec, pid, rec, at);
        Ok(())
    }

    /// `DBread_fld`: reads one field of an active record.
    ///
    /// # Errors
    ///
    /// As for [`DbApi::read_rec`], plus [`DbError::UnknownField`].
    pub fn read_fld(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        field: FieldId,
        at: SimTime,
    ) -> Result<u64, DbError> {
        let rec = RecordRef::new(table, index);
        let (entry, base) = self.admit_record(db, DbOp::ReadFld, pid, rec, at)?;
        self.check_read_lock(rec, pid)?;
        require_active(db, rec, base, at)?;
        let f = Catalog::read_region_field(db.region(), table, &entry, field)?;
        let bytes = db.peek(base + f.offset_in_record, f.width.bytes())?;
        let value = read_le(bytes, f.width.bytes());
        db.taint_mut().resolve_range(
            base + f.offset_in_record,
            f.width.bytes(),
            TaintFate::Escaped { at },
        );
        // Consulting the status byte consumed the header too.
        db.taint_mut().resolve_range(base + HDR_STATUS, 1, TaintFate::Escaped { at });
        self.complete(db, DbOp::ReadFld, pid, rec, at);
        Ok(value)
    }

    /// `DBwrite_rec`: writes every field of an active record, as one
    /// mutation (one journal frame) over the span the fields cover.
    ///
    /// # Errors
    ///
    /// As for [`DbApi::read_rec`]; additionally the value slice must
    /// have one entry per field or [`DbError::BadSchema`] is returned
    /// (before the lock is examined).
    pub fn write_rec(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        values: &[u64],
        at: SimTime,
    ) -> Result<(), DbError> {
        let rec = RecordRef::new(table, index);
        let (entry, base) = self.admit_record(db, DbOp::WriteRec, pid, rec, at)?;
        if values.len() != entry.field_count {
            return Err(DbError::BadSchema(format!(
                "write_rec got {} values for {} fields",
                values.len(),
                entry.field_count
            )));
        }
        self.with_write_lock(rec, pid, at, || {
            require_active(db, rec, base, at)?;
            // One mutation for the record: fields written before a
            // corrupt descriptor stops the loop are still noted.
            db.write_span(|span| {
                for (fi, &v) in values.iter().enumerate() {
                    let field = FieldId(fi as u16);
                    let f = Catalog::read_region_field(span.region(), table, &entry, field)?;
                    let (off, w) = (base + f.offset_in_record, f.width.bytes());
                    // Legitimate data replaces corrupted data.
                    span.taint_mut().resolve_range(off, w, TaintFate::Overwritten { at });
                    let mut buf = [0u8; 8];
                    write_le(&mut buf, w, v);
                    span.write(off, &buf[..w])?;
                }
                Ok(())
            })
        })?;
        self.complete(db, DbOp::WriteRec, pid, rec, at);
        Ok(())
    }

    /// `DBwrite_fld`: writes one field of an active record.
    ///
    /// # Errors
    ///
    /// As for [`DbApi::read_fld`].
    #[allow(clippy::too_many_arguments)]
    pub fn write_fld(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        field: FieldId,
        value: u64,
        at: SimTime,
    ) -> Result<(), DbError> {
        let rec = RecordRef::new(table, index);
        let (entry, base) = self.admit_record(db, DbOp::WriteFld, pid, rec, at)?;
        self.with_write_lock(rec, pid, at, || {
            require_active(db, rec, base, at)?;
            let f = Catalog::read_region_field(db.region(), table, &entry, field)?;
            let (off, w) = (base + f.offset_in_record, f.width.bytes());
            db.taint_mut().resolve_range(off, w, TaintFate::Overwritten { at });
            let mut buf = [0u8; 8];
            write_le(&mut buf, w, value);
            db.poke(off, &buf[..w])
        })?;
        self.complete(db, DbOp::WriteFld, pid, rec, at);
        Ok(())
    }

    /// `DBmove`: moves an active record to another logical group,
    /// relinking the doubly linked neighbour chain.
    ///
    /// # Errors
    ///
    /// As for [`DbApi::read_rec`].
    pub fn move_rec(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        new_group: u8,
        at: SimTime,
    ) -> Result<(), DbError> {
        let rec = RecordRef::new(table, index);
        let (entry, base) = self.admit_record(db, DbOp::Move, pid, rec, at)?;
        self.with_write_lock(rec, pid, at, || {
            require_active(db, rec, base, at)?;
            // Unlink from the old chain.
            let next = read_le(db.peek(base + HDR_NEXT, 2)?, 2) as u16;
            let prev = read_le(db.peek(base + HDR_PREV, 2)?, 2) as u16;
            if next != LINK_NONE && (next as u32) < entry.record_count {
                let nb = entry.offset + entry.record_size * next as usize;
                let mut buf = [0u8; 2];
                write_le(&mut buf, 2, prev as u64);
                db.poke(nb + HDR_PREV, &buf)?;
            }
            if prev != LINK_NONE && (prev as u32) < entry.record_count {
                let pb = entry.offset + entry.record_size * prev as usize;
                let mut buf = [0u8; 2];
                write_le(&mut buf, 2, next as u64);
                db.poke(pb + HDR_NEXT, &buf)?;
            }
            // Find the head of the target group to insert before.
            let mut head: Option<u32> = None;
            for i in 0..entry.record_count {
                if i == index {
                    continue;
                }
                let b = entry.offset + entry.record_size * i as usize;
                if db.peek(b + HDR_STATUS, 1)?[0] == STATUS_ACTIVE
                    && db.peek(b + HDR_GROUP, 1)?[0] == new_group
                {
                    head = Some(i);
                    break;
                }
            }
            let mut buf = [0u8; 2];
            match head {
                Some(h) => {
                    let hb = entry.offset + entry.record_size * h as usize;
                    let h_prev = read_le(db.peek(hb + HDR_PREV, 2)?, 2) as u16;
                    // Insert `index` between h's predecessor and h.
                    write_le(&mut buf, 2, h as u64);
                    db.poke(base + HDR_NEXT, &buf)?;
                    write_le(&mut buf, 2, h_prev as u64);
                    db.poke(base + HDR_PREV, &buf)?;
                    write_le(&mut buf, 2, index as u64);
                    db.poke(hb + HDR_PREV, &buf)?;
                    if h_prev != LINK_NONE && (h_prev as u32) < entry.record_count {
                        let qb = entry.offset + entry.record_size * h_prev as usize;
                        write_le(&mut buf, 2, index as u64);
                        db.poke(qb + HDR_NEXT, &buf)?;
                    }
                }
                None => {
                    write_le(&mut buf, 2, LINK_NONE as u64);
                    db.poke(base + HDR_NEXT, &buf)?;
                    db.poke(base + HDR_PREV, &buf)?;
                }
            }
            db.poke(base + HDR_GROUP, &[new_group])
        })?;
        self.complete(db, DbOp::Move, pid, rec, at);
        Ok(())
    }

    /// Allocates a record in `table` (write-class operation used at
    /// call setup).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NotConnected`], [`DbError::CatalogCorrupt`]
    /// or [`DbError::TableFull`].
    pub fn alloc_record(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        at: SimTime,
    ) -> Result<u32, DbError> {
        self.admit(db, DbOp::Alloc, pid, table, at)?;
        let index = db.alloc_record_raw(table)?;
        // Fresh formatting overwrites any corruption in the slot.
        let tm = db.catalog().table(table)?;
        let (off, len) = (tm.record_offset(index), tm.record_size);
        db.taint_mut().resolve_range(off, len, TaintFate::Overwritten { at });
        self.complete(db, DbOp::Alloc, pid, RecordRef::new(table, index), at);
        Ok(index)
    }

    /// Frees a record in `table` (write-class operation used at call
    /// teardown). The record need not be active, and the index is
    /// checked only after the lock.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::NotConnected`], [`DbError::CatalogCorrupt`],
    /// [`DbError::LockHeld`] or [`DbError::BadRecordIndex`].
    pub fn free_record(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        at: SimTime,
    ) -> Result<(), DbError> {
        let rec = RecordRef::new(table, index);
        self.admit(db, DbOp::Free, pid, table, at)?;
        self.check_read_lock(rec, pid)?;
        db.free_record_raw(rec)?;
        self.complete(db, DbOp::Free, pid, rec, at);
        Ok(())
    }

    /// Operator reconfiguration: writes a **static** configuration
    /// field and commits the change to the golden disk image, so the
    /// new value survives audit reloads. The caller must also
    /// rebaseline the static-data audit's checksums (the
    /// [`Controller`](https://docs.rs/wtnc) facade does both). It
    /// validates against the trusted catalog, not the in-region one,
    /// and takes no lock.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownField`] for a dynamic field — runtime
    /// state is never committed to the disk image — plus the usual
    /// lookup errors.
    #[allow(clippy::too_many_arguments)]
    pub fn reconfigure(
        &mut self,
        db: &mut Database,
        pid: Pid,
        table: TableId,
        index: u32,
        field: FieldId,
        value: u64,
        at: SimTime,
    ) -> Result<(), DbError> {
        self.charge(DbOp::WriteFld);
        self.require_connection(pid)?;
        let f = db.catalog().field(table, field)?;
        if f.kind != crate::catalog::FieldKind::Static {
            return Err(DbError::UnknownField(table, field));
        }
        let rec = RecordRef::new(table, index);
        db.write_field_raw(rec, field, value)?;
        let (off, len) = db.field_extent(rec, field)?;
        db.commit_golden(off, len);
        db.taint_mut().resolve_range(off, len, TaintFate::Overwritten { at });
        self.complete(db, DbOp::WriteFld, pid, rec, at);
        Ok(())
    }

    /// Explicitly acquires a record lock (multi-operation
    /// transactions). Only a record the schema has can be locked. The
    /// check reads the trusted catalog, not the in-region one, so a
    /// catalog flip cannot change what may be locked.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownTable`] or [`DbError::BadRecordIndex`]
    /// for a record outside the schema, and [`DbError::LockHeld`] if
    /// another client holds the lock.
    pub fn lock(
        &mut self,
        db: &Database,
        rec: RecordRef,
        pid: Pid,
        at: SimTime,
    ) -> Result<(), DbError> {
        let capacity = db.catalog().table(rec.table)?.def.record_count;
        if rec.index >= capacity {
            return Err(DbError::BadRecordIndex { table: rec.table, index: rec.index, capacity });
        }
        self.locks.acquire(rec, pid, at)
    }

    /// Explicitly releases a record lock.
    pub fn unlock(&mut self, rec: RecordRef, pid: Pid) -> bool {
        self.locks.release(rec, pid)
    }
}

/// Validates the in-region catalog entry for `table`, resolving any
/// consumed taints (a client that trips over corrupted catalog bytes
/// has been affected by the error).
fn region_entry(
    db: &mut Database,
    table: TableId,
    at: SimTime,
) -> Result<RegionTableEntry, DbError> {
    let res = Catalog::read_region_entry(db.region(), table);
    if res.is_err() {
        // The failed validation *consumed* corrupted catalog bytes:
        // mark the bytes it actually examined — the catalog header
        // plus this table's descriptors — as escaped. Corruption in
        // unexamined catalog bytes (other tables, range metadata)
        // stays latent for the static-data audit to catch.
        db.taint_mut().resolve_range(0, CATALOG_HEADER_SIZE, TaintFate::Escaped { at });
        if let Ok(tm) = db.catalog().table(table) {
            let (d, fd, nf) = (tm.desc_offset, tm.field_desc_offset, tm.def.fields.len());
            db.taint_mut().resolve_range(d, TABLE_DESC_SIZE, TaintFate::Escaped { at });
            db.taint_mut().resolve_range(fd, nf * FIELD_DESC_SIZE, TaintFate::Escaped { at });
        }
    }
    res
}

/// Refuses a record whose status byte does not read active.
fn require_active(
    db: &mut Database,
    rec: RecordRef,
    base: usize,
    at: SimTime,
) -> Result<(), DbError> {
    let status = db.peek(base + HDR_STATUS, 1)?[0];
    if status != STATUS_ACTIVE {
        // A corrupted status byte that makes an active record look
        // free has now affected the client; only the status byte was
        // consulted.
        db.taint_mut().resolve_range(base + HDR_STATUS, 1, TaintFate::Escaped { at });
        return Err(DbError::RecordFree(rec.table, rec.index));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{self, connection, standard_schema};
    use crate::taint::{TaintEntry, TaintKind};

    fn setup() -> (Database, DbApi, Pid) {
        let db = Database::build(standard_schema()).unwrap();
        let mut api = DbApi::new();
        let pid = Pid(1);
        api.init(pid);
        (db, api, pid)
    }

    #[test]
    fn full_call_record_lifecycle() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::from_secs(1);
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.write_fld(&mut db, pid, t, idx, connection::CALLER_ID, 5551234, at).unwrap();
        let vals = api.read_rec(&mut db, pid, t, idx, at).unwrap();
        assert_eq!(vals[connection::CALLER_ID.0 as usize], 5551234);
        api.free_record(&mut db, pid, t, idx, at).unwrap();
        assert!(matches!(api.read_rec(&mut db, pid, t, idx, at), Err(DbError::RecordFree(_, _))));
    }

    #[test]
    fn write_rec_requires_matching_arity() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        assert!(matches!(
            api.write_rec(&mut db, pid, t, idx, &[1, 2], at),
            Err(DbError::BadSchema(_))
        ));
        let field_count = db.catalog().table(t).unwrap().def.fields.len();
        let mut values = vec![0u64; field_count];
        values[connection::CALLEE_ID.0 as usize] = 2;
        api.write_rec(&mut db, pid, t, idx, &values, at).unwrap();
        assert_eq!(api.read_fld(&mut db, pid, t, idx, connection::CALLEE_ID, at).unwrap(), 2);
    }

    #[test]
    fn not_connected_is_rejected() {
        let (mut db, mut api, _) = setup();
        let stranger = Pid(99);
        assert!(matches!(
            api.read_rec(&mut db, stranger, schema::CONNECTION_TABLE, 0, SimTime::ZERO),
            Err(DbError::NotConnected(_))
        ));
    }

    #[test]
    fn close_releases_locks() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.lock(&db, RecordRef::new(t, idx), pid, at).unwrap();
        assert_eq!(api.locks().len(), 1);
        api.close(pid, at);
        assert!(api.locks().is_empty());
    }

    #[test]
    fn crashed_client_leaks_locks() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.lock(&db, RecordRef::new(t, idx), pid, at).unwrap();
        api.crash_client(pid);
        assert_eq!(api.locks().len(), 1);
        // Another client is blocked.
        let other = Pid(2);
        api.init(other);
        assert!(matches!(
            api.write_fld(&mut db, other, t, idx, connection::STATE, 1, at),
            Err(DbError::LockHeld { .. })
        ));
        // Stale-lock detection sees it.
        let stale = api.locks().stale(SimTime::from_secs(200), SimDuration::from_millis(100));
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].1, pid);
        // Recovery releases everything the dead client held.
        assert_eq!(api.locks_mut().release_all(pid), 1);
        api.write_fld(&mut db, other, t, idx, connection::STATE, 1, at).unwrap();
    }

    #[test]
    fn catalog_corruption_breaks_operations_and_escapes() {
        let (mut db, mut api, pid) = setup();
        db.flip_bit(0, 0).unwrap(); // magic byte
        db.taint_mut()
            .insert(0, TaintEntry { id: 1, at: SimTime::ZERO, kind: TaintKind::StaticData });
        let err = api
            .read_rec(&mut db, pid, schema::CONNECTION_TABLE, 0, SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, DbError::CatalogCorrupt { .. }));
        // The taint has been consumed as an escape.
        assert_eq!(db.taint().latent_count(), 0);
        assert_eq!(db.taint().resolved().len(), 1);
    }

    #[test]
    fn read_resolves_taint_as_escape_write_as_overwrite() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        let rec = RecordRef::new(t, idx);
        let (off, _) = db.field_extent(rec, connection::CALLER_ID).unwrap();

        // Taint + read => escape.
        db.taint_mut().insert(off, TaintEntry { id: 1, at, kind: TaintKind::DynamicRuled });
        api.read_fld(&mut db, pid, t, idx, connection::CALLER_ID, at).unwrap();
        assert!(matches!(db.taint().resolved()[0].2, TaintFate::Escaped { .. }));

        // Taint + write => overwritten.
        db.taint_mut().insert(off, TaintEntry { id: 2, at, kind: TaintKind::DynamicRuled });
        api.write_fld(&mut db, pid, t, idx, connection::CALLER_ID, 7, at).unwrap();
        assert!(matches!(db.taint().resolved()[1].2, TaintFate::Overwritten { .. }));
    }

    #[test]
    fn move_rec_maintains_group_chain() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let a = api.alloc_record(&mut db, pid, t, at).unwrap();
        let b = api.alloc_record(&mut db, pid, t, at).unwrap();
        let c = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.move_rec(&mut db, pid, t, a, 5, at).unwrap();
        api.move_rec(&mut db, pid, t, b, 5, at).unwrap();
        api.move_rec(&mut db, pid, t, c, 5, at).unwrap();
        // All three now in group 5; chain is consistent (prev/next are
        // mutual).
        for idx in [a, b, c] {
            let hdr = db.header(RecordRef::new(t, idx)).unwrap();
            assert_eq!(hdr.group, 5);
            if hdr.next != LINK_NONE {
                let nb = db.header(RecordRef::new(t, hdr.next as u32)).unwrap();
                assert_eq!(nb.prev, idx as u16);
            }
            if hdr.prev != LINK_NONE {
                let pb = db.header(RecordRef::new(t, hdr.prev as u32)).unwrap();
                assert_eq!(pb.next, idx as u16);
            }
        }
        // Move one out again; the remaining two stay linked.
        api.move_rec(&mut db, pid, t, b, 9, at).unwrap();
        let ha = db.header(RecordRef::new(t, a)).unwrap();
        let hc = db.header(RecordRef::new(t, c)).unwrap();
        assert_eq!(ha.group, 5);
        assert_eq!(hc.group, 5);
        let hb = db.header(RecordRef::new(t, b)).unwrap();
        assert_eq!(hb.group, 9);
    }

    #[test]
    fn events_flow_when_instrumented_only() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.write_fld(&mut db, pid, t, idx, connection::STATE, 1, at).unwrap();
        let events: Vec<_> = api.events_mut().drain().collect();
        assert!(events.iter().any(|e| e.op == DbOp::WriteFld));
        assert!(events.iter().any(|e| e.op == DbOp::Alloc));

        let mut raw = DbApi::without_instrumentation();
        raw.init(pid);
        let idx2 = raw.alloc_record(&mut db, pid, t, at).unwrap();
        raw.write_fld(&mut db, pid, t, idx2, connection::STATE, 1, at).unwrap();
        assert!(raw.events_mut().is_empty());
    }

    #[test]
    fn post_event_sheds_a_flooding_lane_but_admits_quiet_clients() {
        use wtnc_sim::Enqueue;
        let mut api = DbApi::with_ipc(IpcConfig {
            capacity: 8,
            lane_capacity: 2,
            retry_after: SimDuration::from_millis(5),
        });
        let spammer = Pid(9);
        let quiet = Pid(10);
        let at = SimTime::ZERO;
        assert!(api.post_event(spammer, DbOp::WriteFld, None, None, at).accepted());
        assert!(api.post_event(spammer, DbOp::WriteFld, None, None, at).accepted());
        // Third message from the same producer exceeds its lane.
        assert_eq!(api.post_event(spammer, DbOp::WriteFld, None, None, at), Enqueue::Shed);
        // A quieter client still gets through.
        assert!(api.post_event(quiet, DbOp::ReadRec, None, None, at).accepted());
        assert_eq!(api.events_shed(), 1);
        assert_eq!(api.events().len(), 3);
    }

    #[test]
    fn event_capacity_is_configurable() {
        let api =
            DbApi::with_ipc(IpcConfig { capacity: 16, lane_capacity: 4, ..IpcConfig::default() });
        assert_eq!(api.events().capacity(), 16);
        assert_eq!(api.events().lane_capacity(), 4);
    }

    #[test]
    fn instrumentation_costs_more() {
        let costs = ApiCosts::default();
        for op in [
            DbOp::Init,
            DbOp::Close,
            DbOp::ReadRec,
            DbOp::ReadFld,
            DbOp::WriteRec,
            DbOp::WriteFld,
            DbOp::Move,
        ] {
            assert!(costs.cost(op, true) > costs.cost(op, false), "{op:?}");
        }
        // Figure 4: DBwrite_rec has the largest overhead, DBinit the
        // smallest.
        let rel =
            |op: DbOp| costs.cost(op, true).as_secs_f64() / costs.cost(op, false).as_secs_f64();
        assert!(rel(DbOp::WriteRec) > rel(DbOp::WriteFld));
        assert!(rel(DbOp::Init) < rel(DbOp::ReadFld));
    }

    #[test]
    fn cost_accumulator_drains() {
        let (mut db, mut api, pid) = setup();
        let t = schema::CONNECTION_TABLE;
        let at = SimTime::ZERO;
        api.take_cost();
        let idx = api.alloc_record(&mut db, pid, t, at).unwrap();
        api.read_rec(&mut db, pid, t, idx, at).unwrap();
        let cost = api.take_cost();
        assert!(cost > SimDuration::ZERO);
        assert_eq!(api.take_cost(), SimDuration::ZERO);
    }

    #[test]
    fn lock_refuses_a_record_outside_the_schema() {
        let (mut db, mut api, pid) = setup();
        let at = SimTime::from_secs(1);
        let t = schema::CONNECTION_TABLE;
        let slots = db.catalog().table(t).unwrap().def.record_count;
        assert_eq!(
            api.lock(&db, RecordRef::new(t, slots), pid, at),
            Err(DbError::BadRecordIndex { table: t, index: slots, capacity: slots })
        );
        assert_eq!(
            api.lock(&db, RecordRef::new(TableId(99), 0), pid, at),
            Err(DbError::UnknownTable(TableId(99)))
        );
        assert!(api.locks().is_empty(), "a refused lock is not held");
        // The trusted catalog decides: a corrupted in-region catalog
        // changes no lock outcome.
        db.flip_bit(0, 0).unwrap();
        assert_eq!(api.lock(&db, RecordRef::new(t, slots - 1), pid, at), Ok(()));
        assert!(api.lock(&db, RecordRef::new(t, slots), pid, at).is_err());
    }

    #[test]
    fn lock_table_reentrancy_and_stale() {
        let mut locks = LockTable::new();
        let rec = RecordRef::new(TableId(1), 3);
        locks.acquire(rec, Pid(1), SimTime::ZERO).unwrap();
        locks.acquire(rec, Pid(1), SimTime::ZERO).unwrap(); // re-entrant
        assert!(matches!(locks.acquire(rec, Pid(2), SimTime::ZERO), Err(DbError::LockHeld { .. })));
        assert!(locks.stale(SimTime::from_millis(50), SimDuration::from_millis(100)).is_empty());
        assert_eq!(locks.stale(SimTime::from_millis(150), SimDuration::from_millis(100)).len(), 1);
        assert!(!locks.release(rec, Pid(2)));
        assert!(locks.release(rec, Pid(1)));
        assert!(locks.is_empty());
    }

    #[test]
    fn held_by_reports_only_the_given_owner() {
        let mut locks = LockTable::new();
        locks.acquire(RecordRef::new(TableId(1), 2), Pid(1), SimTime::ZERO).unwrap();
        locks.acquire(RecordRef::new(TableId(1), 0), Pid(1), SimTime::ZERO).unwrap();
        locks.acquire(RecordRef::new(TableId(2), 5), Pid(2), SimTime::ZERO).unwrap();
        assert_eq!(
            locks.held_by(Pid(1)),
            vec![RecordRef::new(TableId(1), 0), RecordRef::new(TableId(1), 2)]
        );
        assert_eq!(locks.held_by(Pid(2)), vec![RecordRef::new(TableId(2), 5)]);
        assert!(locks.held_by(Pid(3)).is_empty());
    }
}
