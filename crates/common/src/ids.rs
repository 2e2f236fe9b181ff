//! Strongly-typed identifiers used across the workspace.
//!
//! Every identifier is a thin newtype over an integer so that a `PageId`
//! can never be confused with a `TxnId` at a call site. All of them have a
//! stable 8-byte (or 4-byte) binary encoding via [`crate::codec`].

use std::fmt;

/// Log sequence number: the byte offset at which a record starts in the
/// log, so LSNs order records as the log does. The log begins with a
/// header, so `Lsn(0)` never names a record and means "null / none".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The null LSN, smaller than every real LSN.
    pub const NULL: Lsn = Lsn(0);

    /// True iff this is the null LSN.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Transaction identifier. `TxnId(0)` is reserved for "no transaction"
/// (used e.g. by redo-only system actions in the log).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId(pub u64);

impl TxnId {
    /// The sentinel "no transaction" id.
    pub const NONE: TxnId = TxnId(0);

    /// True iff this is the sentinel id.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn:{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Page identifier within a single database file. `PageId(u32::MAX)` is the
/// null page (used for "no sibling" pointers in the B-tree).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Null page pointer.
    pub const NULL: PageId = PageId(u32::MAX);

    /// True iff this is the null page pointer.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == u32::MAX
    }
}

impl Default for PageId {
    fn default() -> Self {
        PageId::NULL
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "page:null")
        } else {
            write!(f, "page:{}", self.0)
        }
    }
}

/// Slot number within a slotted page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SlotId(pub u16);

/// Catalog object id: shared id space for tables and indexes and views.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ObjectId(pub u32);

/// Identifier of a physical index (a table's clustered index or a view index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct IndexId(pub u32);

/// Identifier of an indexed-view definition in the catalog.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ViewId(pub u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_ordering_and_null() {
        assert!(Lsn::NULL.is_null());
        assert!(!Lsn(1).is_null());
        assert!(Lsn(1) < Lsn(2));
        assert_eq!(Lsn::default(), Lsn::NULL);
    }

    #[test]
    fn page_id_null_sentinel() {
        assert!(PageId::NULL.is_null());
        assert!(!PageId(0).is_null());
        assert_eq!(PageId::default(), PageId::NULL);
        assert_eq!(format!("{:?}", PageId(7)), "page:7");
        assert_eq!(format!("{:?}", PageId::NULL), "page:null");
    }

    #[test]
    fn txn_id_sentinel() {
        assert!(TxnId::NONE.is_none());
        assert!(!TxnId(3).is_none());
        assert_eq!(format!("{}", TxnId(3)), "3");
    }
}
