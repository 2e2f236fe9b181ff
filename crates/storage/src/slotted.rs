//! Slotted record layout inside a page payload.
//!
//! The directory grows from the front of the payload, the record heap grows
//! from the back. Slots are *positional*: B-tree nodes keep them sorted by
//! key, so insertion shifts the directory. Deleted record space is tracked
//! as garbage and reclaimed by an in-place compaction when an insert would
//! otherwise fail.
//!
//! ```text
//! payload: [ nslots:u16 | heap_start:u16 | garbage:u16 | dir... ->   <- heap ]
//! slot:    [ offset:u16 | len:u16 ]   (offsets are payload-relative)
//! ```

use txview_common::{Error, Result};

const OFF_NSLOTS: usize = 0;
const OFF_HEAP_START: usize = 2;
const OFF_GARBAGE: usize = 4;
const DIR_START: usize = 6;

/// Bytes of area header before the slot directory: the least a formatted
/// slotted area can hold.
pub const AREA_HEADER_LEN: usize = DIR_START;
const SLOT_SIZE: usize = 4;

/// A view over a page payload interpreted as a slotted record area.
pub struct Slotted<'a> {
    buf: &'a mut [u8],
}

impl<'a> Slotted<'a> {
    /// Interpret an already-formatted payload.
    pub fn wrap(buf: &'a mut [u8]) -> Slotted<'a> {
        Slotted { buf }
    }

    /// Format a payload as an empty slotted area and return the view.
    pub fn format(buf: &'a mut [u8]) -> Slotted<'a> {
        let len = buf.len();
        let mut s = Slotted { buf };
        s.set_nslots(0);
        s.set_heap_start(len as u16);
        s.set_garbage(0);
        s
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.buf[off..off + 2].try_into().unwrap())
    }

    fn set_u16_at(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of live slots.
    pub fn count(&self) -> usize {
        self.u16_at(OFF_NSLOTS) as usize
    }

    fn set_nslots(&mut self, n: usize) {
        self.set_u16_at(OFF_NSLOTS, n as u16);
    }

    fn heap_start(&self) -> usize {
        self.u16_at(OFF_HEAP_START) as usize
    }

    fn set_heap_start(&mut self, v: u16) {
        self.set_u16_at(OFF_HEAP_START, v);
    }

    fn garbage(&self) -> usize {
        self.u16_at(OFF_GARBAGE) as usize
    }

    fn set_garbage(&mut self, v: u16) {
        self.set_u16_at(OFF_GARBAGE, v);
    }

    fn dir_end(&self) -> usize {
        DIR_START + self.count() * SLOT_SIZE
    }

    fn slot(&self, idx: usize) -> (usize, usize) {
        let base = DIR_START + idx * SLOT_SIZE;
        (self.u16_at(base) as usize, self.u16_at(base + 2) as usize)
    }

    fn set_slot(&mut self, idx: usize, off: usize, len: usize) {
        let base = DIR_START + idx * SLOT_SIZE;
        self.set_u16_at(base, off as u16);
        self.set_u16_at(base + 2, len as u16);
    }

    /// Bytes immediately insertable without compaction.
    pub fn contiguous_free(&self) -> usize {
        self.heap_start() - self.dir_end()
    }

    /// Bytes insertable after compaction (what callers should budget with).
    pub fn free_space(&self) -> usize {
        self.contiguous_free() + self.garbage()
    }

    /// Read the record in slot `idx`.
    pub fn get(&self, idx: usize) -> &[u8] {
        debug_assert!(idx < self.count(), "slot {idx} out of {}", self.count());
        let (off, len) = self.slot(idx);
        &self.buf[off..off + len]
    }

    /// Mutable view of the record in slot `idx` (for in-place patches such
    /// as escrow increments and ghost-bit flips; the length cannot change).
    pub fn get_mut(&mut self, idx: usize) -> &mut [u8] {
        debug_assert!(idx < self.count());
        let (off, len) = self.slot(idx);
        &mut self.buf[off..off + len]
    }

    /// [`Slotted::get_mut`] for bytes that may be damaged (log redo):
    /// `None` when `idx` is not a live slot or its directory entry points
    /// outside the payload.
    pub fn try_get_mut(&mut self, idx: usize) -> Option<&mut [u8]> {
        if idx >= self.count() || self.dir_end() > self.buf.len() {
            return None;
        }
        let (off, len) = self.slot(idx);
        self.buf.get_mut(off..off + len)
    }

    /// Insert `data` as a new slot at position `idx`, shifting the directory.
    pub fn insert_at(&mut self, idx: usize, data: &[u8]) -> Result<()> {
        let n = self.count();
        assert!(idx <= n, "insert position {idx} out of {n}");
        let need = data.len() + SLOT_SIZE;
        if self.contiguous_free() < need {
            if self.free_space() < need {
                return Err(Error::RecordTooLarge {
                    size: data.len(),
                    max: self.free_space().saturating_sub(SLOT_SIZE),
                });
            }
            self.compact();
        }
        // Claim heap space.
        let off = self.heap_start() - data.len();
        self.buf[off..off + data.len()].copy_from_slice(data);
        self.set_heap_start(off as u16);
        // Shift directory entries [idx..n) right by one slot.
        let src = DIR_START + idx * SLOT_SIZE;
        let end = DIR_START + n * SLOT_SIZE;
        self.buf.copy_within(src..end, src + SLOT_SIZE);
        self.set_nslots(n + 1);
        self.set_slot(idx, off, data.len());
        Ok(())
    }

    /// Remove slot `idx`, shifting the directory left; the record bytes
    /// become garbage.
    pub fn remove_at(&mut self, idx: usize) {
        let n = self.count();
        assert!(idx < n);
        let (_, len) = self.slot(idx);
        let src = DIR_START + (idx + 1) * SLOT_SIZE;
        let end = DIR_START + n * SLOT_SIZE;
        self.buf.copy_within(src..end, src - SLOT_SIZE);
        self.set_nslots(n - 1);
        self.set_garbage((self.garbage() + len) as u16);
    }

    /// Replace the record in slot `idx`. Shrinks in place; growth re-inserts
    /// into the heap (possibly after compaction).
    pub fn update_at(&mut self, idx: usize, data: &[u8]) -> Result<()> {
        let (off, len) = self.slot(idx);
        if data.len() <= len {
            self.buf[off..off + data.len()].copy_from_slice(data);
            self.set_slot(idx, off, data.len());
            self.set_garbage((self.garbage() + len - data.len()) as u16);
            return Ok(());
        }
        // Grow: need heap space for the new copy; old bytes become garbage.
        if self.contiguous_free() < data.len() {
            if self.free_space() + len < data.len() {
                return Err(Error::RecordTooLarge { size: data.len(), max: self.free_space() + len });
            }
            // Temporarily drop the old record so compaction reclaims it.
            self.set_slot(idx, 0, 0);
            self.set_garbage((self.garbage() + len) as u16);
            self.compact();
            if self.contiguous_free() < data.len() {
                return Err(Error::RecordTooLarge { size: data.len(), max: self.contiguous_free() });
            }
        } else {
            self.set_garbage((self.garbage() + len) as u16);
        }
        let off = self.heap_start() - data.len();
        self.buf[off..off + data.len()].copy_from_slice(data);
        self.set_heap_start(off as u16);
        self.set_slot(idx, off, data.len());
        Ok(())
    }

    /// Rewrite the heap, squeezing out garbage. Slot order is preserved.
    pub fn compact(&mut self) {
        let n = self.count();
        let mut records: Vec<(usize, Vec<u8>)> = Vec::with_capacity(n);
        for i in 0..n {
            let (off, len) = self.slot(i);
            records.push((i, self.buf[off..off + len].to_vec()));
        }
        let mut heap = self.buf.len();
        for (i, data) in records {
            heap -= data.len();
            self.buf[heap..heap + data.len()].copy_from_slice(&data);
            self.set_slot(i, heap, data.len());
        }
        self.set_heap_start(heap as u16);
        self.set_garbage(0);
    }
}

/// Read-only view over a slotted payload (for shared page latches).
pub struct SlottedRef<'a> {
    buf: &'a [u8],
}

impl<'a> SlottedRef<'a> {
    /// Interpret an already-formatted payload read-only.
    pub fn wrap(buf: &'a [u8]) -> SlottedRef<'a> {
        SlottedRef { buf }
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.buf[off..off + 2].try_into().unwrap())
    }

    /// Number of live slots.
    pub fn count(&self) -> usize {
        self.u16_at(OFF_NSLOTS) as usize
    }

    /// Bytes insertable after compaction.
    pub fn free_space(&self) -> usize {
        let heap_start = self.u16_at(OFF_HEAP_START) as usize;
        let garbage = self.u16_at(OFF_GARBAGE) as usize;
        let dir_end = DIR_START + self.count() * SLOT_SIZE;
        heap_start - dir_end + garbage
    }

    /// Read the record in slot `idx`.
    pub fn get(&self, idx: usize) -> &'a [u8] {
        debug_assert!(idx < self.count());
        let base = DIR_START + idx * SLOT_SIZE;
        let off = self.u16_at(base) as usize;
        let len = self.u16_at(base + 2) as usize;
        &self.buf[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fresh(buf: &mut [u8]) -> Slotted<'_> {
        Slotted::format(buf)
    }

    #[test]
    fn insert_get_in_order() {
        let mut buf = vec![0u8; 256];
        let mut s = fresh(&mut buf);
        s.insert_at(0, b"bb").unwrap();
        s.insert_at(0, b"aa").unwrap();
        s.insert_at(2, b"cc").unwrap();
        assert_eq!(s.count(), 3);
        assert_eq!(s.get(0), b"aa");
        assert_eq!(s.get(1), b"bb");
        assert_eq!(s.get(2), b"cc");
    }

    #[test]
    fn remove_shifts_directory() {
        let mut buf = vec![0u8; 256];
        let mut s = fresh(&mut buf);
        for (i, r) in [b"r0", b"r1", b"r2"].iter().enumerate() {
            s.insert_at(i, *r).unwrap();
        }
        s.remove_at(1);
        assert_eq!(s.count(), 2);
        assert_eq!(s.get(0), b"r0");
        assert_eq!(s.get(1), b"r2");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut buf = vec![0u8; 128];
        let mut s = fresh(&mut buf);
        s.insert_at(0, b"hello").unwrap();
        s.update_at(0, b"hi").unwrap(); // shrink
        assert_eq!(s.get(0), b"hi");
        s.update_at(0, b"a-much-longer-record").unwrap(); // grow
        assert_eq!(s.get(0), b"a-much-longer-record");
    }

    #[test]
    fn full_page_rejected_cleanly() {
        let mut buf = vec![0u8; 64];
        let mut s = fresh(&mut buf);
        s.insert_at(0, &[7u8; 40]).unwrap();
        let err = s.insert_at(1, &[8u8; 40]).unwrap_err();
        assert!(matches!(err, Error::RecordTooLarge { .. }));
        // Original record intact.
        assert_eq!(s.get(0), &[7u8; 40][..]);
    }

    #[test]
    fn compaction_reclaims_garbage() {
        let mut buf = vec![0u8; 128];
        let mut s = fresh(&mut buf);
        s.insert_at(0, &[1u8; 30]).unwrap();
        s.insert_at(1, &[2u8; 30]).unwrap();
        s.insert_at(2, &[3u8; 30]).unwrap();
        s.remove_at(1);
        // Contiguous space is small, but garbage makes this fit.
        s.insert_at(2, &[4u8; 40]).unwrap();
        assert_eq!(s.get(0), &[1u8; 30][..]);
        assert_eq!(s.get(1), &[3u8; 30][..]);
        assert_eq!(s.get(2), &[4u8; 40][..]);
    }

    #[test]
    fn get_mut_patches_in_place() {
        let mut buf = vec![0u8; 128];
        let mut s = fresh(&mut buf);
        s.insert_at(0, b"abcd").unwrap();
        s.get_mut(0)[1] = b'X';
        assert_eq!(s.get(0), b"aXcd");
    }

    proptest! {
        /// Random interleavings of inserts/removes/updates behave like a
        /// reference Vec<Vec<u8>> model.
        #[test]
        fn model_based(ops in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(any::<u8>(), 0..40), 0usize..8),
            1..60
        )) {
            let mut buf = vec![0u8; 1024];
            let mut s = Slotted::format(&mut buf);
            let mut model: Vec<Vec<u8>> = Vec::new();
            for (op, data, pos) in ops {
                match op {
                    0 => { // insert
                        let idx = pos.min(model.len());
                        if s.insert_at(idx, &data).is_ok() {
                            model.insert(idx, data);
                        }
                    }
                    1 => { // remove
                        if !model.is_empty() {
                            let idx = pos % model.len();
                            s.remove_at(idx);
                            model.remove(idx);
                        }
                    }
                    2 => { // update
                        if !model.is_empty() {
                            let idx = pos % model.len();
                            if s.update_at(idx, &data).is_ok() {
                                model[idx] = data;
                            }
                        }
                    }
                    _ => { s.compact(); }
                }
                prop_assert_eq!(s.count(), model.len());
                for (i, rec) in model.iter().enumerate() {
                    prop_assert_eq!(s.get(i), &rec[..]);
                }
            }
        }
    }
}
