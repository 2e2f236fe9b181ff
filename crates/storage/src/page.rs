//! The 8 KiB page and its header.
//!
//! Layout:
//!
//! ```text
//! offset  size  field
//! 0       2     magic (0x7E11)
//! 2       1     page type
//! 3       1     flags (unused, reserved)
//! 4       8     pageLSN (LSN of the last log record applied to this page)
//! 12      8     checksum (of the bytes before it ^ those after it, rotated)
//! 20      12    reserved
//! 32      8160  payload
//! ```
//!
//! The pageLSN is the linchpin of ARIES redo idempotence: redo applies a log
//! record to a page iff `pageLSN < record.lsn`.

use txview_common::frame::checksum;
use txview_common::{Error, Lsn, Result};

/// Page size in bytes. 8 KiB, like the system the paper describes.
pub const PAGE_SIZE: usize = 8192;
/// Bytes reserved for the page header.
pub const PAGE_HEADER_SIZE: usize = 32;
/// Usable payload bytes per page.
pub const PAGE_PAYLOAD_SIZE: usize = PAGE_SIZE - PAGE_HEADER_SIZE;

const MAGIC: u16 = 0x7E11;
const OFF_MAGIC: usize = 0;
const OFF_TYPE: usize = 2;
const OFF_LSN: usize = 4;
const OFF_CHECKSUM: usize = 12;

/// What a page holds. Stored in the header so recovery and debugging tools
/// can interpret raw pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageType {
    /// Unformatted / freed.
    Free,
    /// Disk-manager superblock (page 0).
    Super,
    /// B-tree leaf.
    BTreeLeaf,
    /// B-tree interior node.
    BTreeInterior,
    /// Catalog page.
    Catalog,
}

/// The one page-type table: the header byte, the `FormatPage` redo tag and
/// every decoder go through these two functions. Retired tags (5, the
/// removed hash-index page) are never reused and decode as corruption.
impl PageType {
    /// The tag stored in the header and in `FormatPage` records.
    pub fn to_u8(self) -> u8 {
        match self {
            PageType::Free => 0,
            PageType::Super => 1,
            PageType::BTreeLeaf => 2,
            PageType::BTreeInterior => 3,
            PageType::Catalog => 4,
        }
    }

    /// Decode a tag; anything outside the table is corruption.
    pub fn from_u8(v: u8) -> Result<PageType> {
        Ok(match v {
            0 => PageType::Free,
            1 => PageType::Super,
            2 => PageType::BTreeLeaf,
            3 => PageType::BTreeInterior,
            4 => PageType::Catalog,
            t => return Err(Error::corruption(format!("bad page type {t}"))),
        })
    }
}

/// An in-memory page image.
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zeroed page formatted with the given type and a null pageLSN.
    pub fn new(ty: PageType) -> Page {
        let mut p = Page { bytes: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap() };
        p.bytes[OFF_MAGIC..OFF_MAGIC + 2].copy_from_slice(&MAGIC.to_le_bytes());
        p.bytes[OFF_TYPE] = ty.to_u8();
        p
    }

    /// Wrap raw bytes read from disk, verifying magic, checksum and type.
    pub fn from_disk(bytes: [u8; PAGE_SIZE]) -> Result<Page> {
        let p = Page { bytes: Box::new(bytes) };
        let magic = u16::from_le_bytes(p.bytes[OFF_MAGIC..OFF_MAGIC + 2].try_into().unwrap());
        if magic != MAGIC {
            return Err(Error::corruption(format!("bad page magic {magic:#06x}")));
        }
        let stored = u64::from_le_bytes(p.bytes[OFF_CHECKSUM..OFF_CHECKSUM + 8].try_into().unwrap());
        let computed = p.compute_checksum();
        if stored != computed {
            return Err(Error::corruption(format!(
                "page checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            )));
        }
        p.page_type()?;
        Ok(p)
    }

    /// Seal the checksum and return the raw image for writing to disk.
    pub fn to_disk(&mut self) -> &[u8; PAGE_SIZE] {
        let sum = self.compute_checksum();
        self.bytes[OFF_CHECKSUM..OFF_CHECKSUM + 8].copy_from_slice(&sum.to_le_bytes());
        &self.bytes
    }

    fn compute_checksum(&self) -> u64 {
        // Checksum everything except the checksum field itself.
        let mut h = checksum(&self.bytes[..OFF_CHECKSUM]);
        h ^= checksum(&self.bytes[OFF_CHECKSUM + 8..]).rotate_left(1);
        h
    }

    /// Page type from the header.
    pub fn page_type(&self) -> Result<PageType> {
        PageType::from_u8(self.bytes[OFF_TYPE])
    }

    /// Overwrite the page type (used when formatting a recycled frame).
    pub fn set_page_type(&mut self, ty: PageType) {
        self.bytes[OFF_TYPE] = ty.to_u8();
    }

    /// The pageLSN.
    pub fn lsn(&self) -> Lsn {
        Lsn(u64::from_le_bytes(self.bytes[OFF_LSN..OFF_LSN + 8].try_into().unwrap()))
    }

    /// Stamp the pageLSN. Callers must only move it forward (debug-checked)
    /// — redo and normal operation both preserve monotonicity.
    pub fn set_lsn(&mut self, lsn: Lsn) {
        debug_assert!(lsn >= self.lsn(), "pageLSN must be monotone");
        self.bytes[OFF_LSN..OFF_LSN + 8].copy_from_slice(&lsn.0.to_le_bytes());
    }

    /// Immutable payload view.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[PAGE_HEADER_SIZE..]
    }

    /// Mutable payload view.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[PAGE_HEADER_SIZE..]
    }

    /// Raw page image (header + payload); used by tests and the crash
    /// simulator.
    pub fn raw(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Zero the payload and reformat as `ty` (recycling a page).
    pub fn reformat(&mut self, ty: PageType) {
        self.bytes[PAGE_HEADER_SIZE..].fill(0);
        self.set_page_type(ty);
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page { bytes: self.bytes.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_has_null_lsn_and_type() {
        let p = Page::new(PageType::BTreeLeaf);
        assert_eq!(p.lsn(), Lsn::NULL);
        assert_eq!(p.page_type().unwrap(), PageType::BTreeLeaf);
        assert_eq!(p.payload().len(), PAGE_PAYLOAD_SIZE);
    }

    #[test]
    fn disk_roundtrip_with_checksum() {
        let mut p = Page::new(PageType::Catalog);
        p.payload_mut()[0..4].copy_from_slice(b"data");
        p.set_lsn(Lsn(77));
        let img = *p.to_disk();
        let back = Page::from_disk(img).unwrap();
        assert_eq!(back.lsn(), Lsn(77));
        assert_eq!(&back.payload()[0..4], b"data");
    }

    #[test]
    fn corruption_detected() {
        let mut p = Page::new(PageType::BTreeLeaf);
        p.payload_mut()[100] = 42;
        let mut img = *p.to_disk();
        img[PAGE_HEADER_SIZE + 100] = 43; // flip a payload byte after sealing
        assert!(Page::from_disk(img).is_err());
    }

    #[test]
    fn bad_magic_detected() {
        let img = [0u8; PAGE_SIZE];
        assert!(Page::from_disk(img).is_err());
    }

    #[test]
    fn lsn_monotone_in_debug() {
        let mut p = Page::new(PageType::BTreeLeaf);
        p.set_lsn(Lsn(5));
        p.set_lsn(Lsn(5)); // equal ok
        p.set_lsn(Lsn(9));
        assert_eq!(p.lsn(), Lsn(9));
    }

    #[test]
    fn reformat_clears_payload() {
        let mut p = Page::new(PageType::BTreeLeaf);
        p.payload_mut()[10] = 9;
        p.reformat(PageType::Free);
        assert_eq!(p.payload()[10], 0);
        assert_eq!(p.page_type().unwrap(), PageType::Free);
    }

    #[test]
    fn page_type_table_round_trips_and_refuses_unknown_tags() {
        for ty in [
            PageType::Free,
            PageType::Super,
            PageType::BTreeLeaf,
            PageType::BTreeInterior,
            PageType::Catalog,
        ] {
            assert_eq!(PageType::from_u8(ty.to_u8()).unwrap(), ty);
        }
        for tag in [5u8, 6, 9, 255] {
            assert!(matches!(PageType::from_u8(tag), Err(Error::Corruption(_))), "tag {tag}");
        }
    }

    /// A correctly sealed page whose header says type 5 (the retired
    /// hash-index page) is refused by `fetch`, not handed to a caller.
    #[test]
    fn fetch_refuses_a_page_of_a_retired_type() {
        use crate::buffer::BufferPool;
        use crate::disk::{DiskManager, MemDisk};
        use std::sync::Arc;
        let disk = Arc::new(MemDisk::new());
        let pid = disk.allocate().unwrap();
        let mut p = Page::new(PageType::BTreeLeaf);
        p.bytes[OFF_TYPE] = 5;
        disk.write_page(pid, &mut p).unwrap();
        let pool = BufferPool::new(disk, 4);
        match pool.fetch(pid) {
            Err(Error::Corruption(m)) => assert!(m.contains("bad page type 5"), "{m}"),
            Err(e) => panic!("expected corruption, got {e}"),
            Ok(_) => panic!("a type-5 page was fetched"),
        }
    }
}
