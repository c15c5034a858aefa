//! Events the database API sends to the audit process.
//!
//! "The database API is modified to send a message to the audit process
//! whenever any API function is called. The message contains the client
//! process ID information and the database location being accessed."
//! (§4.2)

use wtnc_sim::{Pid, SimTime};

use crate::catalog::TableId;

/// Which API primitive produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbOp {
    /// `DBinit`
    Init,
    /// `DBclose`
    Close,
    /// `DBread_rec`
    ReadRec,
    /// `DBread_fld`
    ReadFld,
    /// `DBwrite_rec`
    WriteRec,
    /// `DBwrite_fld`
    WriteFld,
    /// `DBmove`
    Move,
    /// Record allocation (a write-class internal operation).
    Alloc,
    /// Record free (a write-class internal operation).
    Free,
}

impl DbOp {
    /// True for operations that mutate the database — the event class
    /// the paper uses to trigger event-driven audits ("database write
    /// in the current implementation").
    pub fn is_write(self) -> bool {
        matches!(self, DbOp::WriteRec | DbOp::WriteFld | DbOp::Move | DbOp::Alloc | DbOp::Free)
    }
}

/// A message on the IPC queue between the DB API and the audit process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbEvent {
    /// When the API call happened.
    pub at: SimTime,
    /// The calling client.
    pub pid: Pid,
    /// Which primitive was called.
    pub op: DbOp,
    /// Table accessed, when the operation names one.
    pub table: Option<TableId>,
    /// Record index accessed, when the operation names one.
    pub record: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_classification() {
        assert!(DbOp::WriteRec.is_write());
        assert!(DbOp::WriteFld.is_write());
        assert!(DbOp::Move.is_write());
        assert!(DbOp::Alloc.is_write());
        assert!(DbOp::Free.is_write());
        assert!(!DbOp::ReadRec.is_write());
        assert!(!DbOp::ReadFld.is_write());
        assert!(!DbOp::Init.is_write());
        assert!(!DbOp::Close.is_write());
    }

    #[test]
    fn event_carries_location() {
        let ev = DbEvent {
            at: SimTime::from_secs(1),
            pid: Pid(3),
            op: DbOp::WriteFld,
            table: Some(TableId(2)),
            record: Some(7),
        };
        assert_eq!(ev.table, Some(TableId(2)));
        assert_eq!(ev.record, Some(7));
    }
}
