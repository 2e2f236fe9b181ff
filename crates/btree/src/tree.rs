//! The B+ tree proper: descent, single-record operations, range scans, and
//! structure modifications run as system transactions.
//!
//! See the crate docs for the latching protocol. All mutating operations
//! take a [`LogCtx`] (whose transaction owns the change) and an [`OpLog`]
//! describing how to log it (forward op with logical undo, CLR, system op).

use crate::logctx::{LogCtx, OpLog};
use crate::node;
use parking_lot::RwLock;
use std::sync::Arc;
use txview_common::{Error, IndexId, Key, Lsn, PageId, Result};
use txview_storage::buffer::{BufferPool, PageWriteGuard, PinnedPage};
use txview_storage::page::{Page, PageType};
use txview_wal::log::PAYLOAD_HEADER_LEN;
use txview_wal::record::{RecordBody, RedoOp, UndoOp, ValueDelta};
use txview_wal::LogManager;

/// Maximum encoded key size accepted by the tree. Interior nodes reserve
/// room for one worst-case separator, bounding preemptive splits.
pub const MAX_KEY_BYTES: usize = 512;
const SEP_RESERVE: usize = MAX_KEY_BYTES + 6 + 4;

/// One item returned by a range scan.
#[derive(Clone, PartialEq, Debug)]
pub struct ScanItem {
    /// Encoded key bytes.
    pub key: Vec<u8>,
    /// Value bytes.
    pub value: Vec<u8>,
    /// Ghost flag (logically deleted).
    pub ghost: bool,
}

/// A B+ tree over a buffer pool. The root page id is fixed for the life of
/// the index.
pub struct Tree {
    index_id: IndexId,
    root: PageId,
    pool: Arc<BufferPool>,
    latch: RwLock<()>,
}

impl Tree {
    /// Create a new empty tree: allocates the root leaf and logs its format
    /// under a system transaction (flushed, so DDL survives any crash).
    pub fn create(pool: &Arc<BufferPool>, log: &LogManager, index_id: IndexId) -> Result<Tree> {
        let (root, page) = pool.new_page(PageType::BTreeLeaf)?;
        let sys = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log, txn: sys, last_lsn: &mut last };
        {
            let mut g = page.write();
            let fmt = RedoOp::FormatPage {
                ty: PageType::BTreeLeaf.to_u8(),
                header_len: PAYLOAD_HEADER_LEN as u16,
            };
            fmt.apply(g.payload_mut(), PAYLOAD_HEADER_LEN)?;
            node::init_header(&mut g, 0, PageId::NULL);
            let lsn = ctx.append(RecordBody::Update { page: root, redo: fmt, undo: UndoOp::None });
            // The header init is part of the format for logging purposes:
            // log it as a patch so redo rebuilds the same header.
            let hdr = RedoOp::Patch { off: 0, bytes: g.payload()[..PAYLOAD_HEADER_LEN].to_vec() };
            let lsn2 = ctx.append(RecordBody::Update { page: root, redo: hdr, undo: UndoOp::None });
            let _ = lsn;
            g.set_lsn(lsn2);
        }
        let commit = ctx.commit();
        log.flush_to(commit)?;
        Ok(Tree { index_id, root, pool: Arc::clone(pool), latch: RwLock::new(()) })
    }

    /// Open an existing tree rooted at `root`.
    pub fn open(pool: &Arc<BufferPool>, index_id: IndexId, root: PageId) -> Tree {
        Tree { index_id, root, pool: Arc::clone(pool), latch: RwLock::new(()) }
    }

    /// The index id this tree serves.
    pub fn index_id(&self) -> IndexId {
        self.index_id
    }

    /// The (fixed) root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Descend to the leaf that owns `key`. Caller holds the tree latch.
    fn find_leaf(&self, key: &[u8]) -> Result<PinnedPage> {
        let mut page = self.pool.fetch(self.root)?;
        loop {
            let child = {
                let g = page.read();
                if node::level(&g) == 0 {
                    None
                } else {
                    Some(node::interior_route(&g, key)?.1)
                }
            };
            match child {
                None => return Ok(page),
                Some(c) => page = self.pool.fetch(c)?,
            }
        }
    }

    /// Point lookup: `(ghost, value bytes)` if the key exists physically.
    pub fn get(&self, key: &Key) -> Result<Option<(bool, Vec<u8>)>> {
        let _t = self.latch.read();
        let leaf = self.find_leaf(key.as_bytes())?;
        let g = leaf.read();
        match node::leaf_search(&g, key.as_bytes()) {
            Ok(idx) => {
                let rec = node::decode_leaf(node::slots(&g).get(idx))?;
                Ok(Some((rec.ghost, rec.value.to_vec())))
            }
            Err(_) => Ok(None),
        }
    }

    /// Whether `key` has a record, ghost or live, as [`Tree::get`] would
    /// find it — without copying the value.
    pub fn contains(&self, key: &Key) -> Result<bool> {
        let _t = self.latch.read();
        let leaf = self.find_leaf(key.as_bytes())?;
        let g = leaf.read();
        Ok(node::leaf_search(&g, key.as_bytes()).is_ok())
    }

    /// Apply a slotted redo op to a latched page and log it. `inverse`
    /// builds the op's physical inverse from the page before the change;
    /// only a system operation logs one, so only it calls `inverse`.
    fn apply_logged(
        page: &PinnedPage,
        guard: &mut PageWriteGuard<'_>,
        redo: RedoOp,
        inverse: impl FnOnce(&Page) -> RedoOp,
        ctx: &mut LogCtx<'_>,
        how: &OpLog,
    ) -> Result<()> {
        let inverse = matches!(how, OpLog::System).then(|| inverse(guard));
        redo.apply(guard.payload_mut(), PAYLOAD_HEADER_LEN)?;
        let lsn = ctx.log_op(page.id(), redo, inverse, how);
        if !lsn.is_null() {
            guard.set_lsn(lsn);
        }
        Ok(())
    }

    /// The locate-for-write step of every mutator of an existing record:
    /// under the shared tree latch, descend to `key`'s leaf, latch it for
    /// write and find `key`'s slot (`NotFound` when it has no record), then
    /// run `write` on the leaf and the slot.
    fn with_record<R>(
        &self,
        key: &Key,
        write: impl FnOnce(&PinnedPage, &mut PageWriteGuard<'_>, usize) -> Result<R>,
    ) -> Result<R> {
        let _t = self.latch.read();
        let leaf = self.find_leaf(key.as_bytes())?;
        let mut g = leaf.write();
        let idx = node::leaf_search(&g, key.as_bytes())
            .map_err(|_| Error::NotFound(format!("{key:?} in index {}", self.index_id.0)))?;
        write(&leaf, &mut g, idx)
    }

    /// Insert `key → value`. Fails with [`Error::DuplicateKey`] if a live
    /// record exists; a ghost with the same key is revived in place.
    pub fn insert(&self, key: &Key, value: &[u8], ctx: &mut LogCtx<'_>, how: &OpLog) -> Result<()> {
        let rec = node::encode_leaf(false, key, value);
        if rec.len() > node::MAX_RECORD_BYTES || key.len() > MAX_KEY_BYTES {
            return Err(Error::RecordTooLarge { size: rec.len(), max: node::MAX_RECORD_BYTES });
        }
        loop {
            {
                let _t = self.latch.read();
                let leaf = self.find_leaf(key.as_bytes())?;
                let mut g = leaf.write();
                match node::leaf_search(&g, key.as_bytes()) {
                    Ok(idx) => {
                        let old = node::slots(&g).get(idx);
                        if !node::decode_leaf(old)?.ghost {
                            return Err(Error::DuplicateKey(format!("{key:?}")));
                        }
                        // Revive the ghost with the new value, unless it
                        // grows past the leaf's free space.
                        if node::slots(&g).free_space() >= rec.len().saturating_sub(old.len()) {
                            let redo = RedoOp::SlotUpdate { idx: idx as u16, bytes: rec };
                            return Self::apply_logged(&leaf, &mut g, redo, restore(idx), ctx, how);
                        }
                    }
                    Err(pos) => {
                        if node::slots(&g).free_space() >= rec.len() + 8 {
                            return Self::insert_slot(&leaf, &mut g, pos, rec, ctx, how);
                        }
                    }
                }
            }
            // Leaf needs room: run a split SMO and retry.
            self.split_for(key.as_bytes(), rec.len() + 8, ctx.log)?;
        }
    }

    /// Set or clear the ghost flag of an existing record.
    pub fn set_ghost(&self, key: &Key, ghost: bool, ctx: &mut LogCtx<'_>, how: &OpLog) -> Result<()> {
        self.with_record(key, |leaf, g, idx| {
            if node::decode_leaf(node::slots(g).get(idx))?.ghost == ghost {
                return Ok(());
            }
            let flag = move |on: bool| RedoOp::SlotPatch {
                idx: idx as u16,
                off: node::GHOST_FLAG_OFFSET as u16,
                bytes: vec![on as u8],
            };
            Self::apply_logged(leaf, g, flag(ghost), move |_| flag(!ghost), ctx, how)
        })
    }

    /// Replace the value of an existing record (live or ghost).
    pub fn update_value(&self, key: &Key, new_value: &[u8], ctx: &mut LogCtx<'_>, how: &OpLog) -> Result<()> {
        loop {
            let updated = self.with_record(key, |leaf, g, idx| {
                let old = node::slots(g).get(idx);
                let new_rec = node::encode_leaf(node::decode_leaf(old)?.ghost, key, new_value);
                if new_rec.len() > node::MAX_RECORD_BYTES {
                    return Err(Error::RecordTooLarge { size: new_rec.len(), max: node::MAX_RECORD_BYTES });
                }
                if node::slots(g).free_space() < new_rec.len().saturating_sub(old.len()) {
                    return Ok(false);
                }
                let redo = RedoOp::SlotUpdate { idx: idx as u16, bytes: new_rec };
                Self::apply_logged(leaf, g, redo, restore(idx), ctx, how).map(|()| true)
            })?;
            if updated {
                return Ok(());
            }
            self.split_for(key.as_bytes(), new_value.len() + key.len() + 16, ctx.log)?;
        }
    }

    /// Overwrite `bytes.len()` bytes of `key`'s value at value offset
    /// `off` (a same-length update's changed range, or its undo). The
    /// record keeps its length, so this never splits.
    pub fn patch_value(
        &self,
        key: &Key,
        off: usize,
        bytes: &[u8],
        ctx: &mut LogCtx<'_>,
        how: &OpLog,
    ) -> Result<()> {
        self.with_record(key, |leaf, g, idx| {
            let start = node::leaf_value_offset(key.len()) + off;
            let end = start + bytes.len();
            if node::slots(g).get(idx).len() < end {
                return Err(Error::corruption("value patch beyond record"));
            }
            let (idx16, off16) = (idx as u16, start as u16);
            let patch = move |bytes: &[u8]| RedoOp::SlotPatch { idx: idx16, off: off16, bytes: bytes.to_vec() };
            let inverse = move |p: &Page| patch(&node::slots(p).get(idx)[start..end]);
            Self::apply_logged(leaf, g, patch(bytes), inverse, ctx, how)
        })
    }

    /// Add `(position, delta)` pairs to the fixed-width values of the
    /// region that is the last `region_len` bytes of `key`'s value (escrow
    /// apply and its undo; see [`txview_wal::record::add_deltas`]), and
    /// return what `read` makes of the region after the add. The change is
    /// logged as the deltas themselves, under one leaf latch, so concurrent
    /// escrow transactions serialize physically while remaining concurrent
    /// logically. A mistyped or out-of-range pair fails before any byte
    /// changes or anything is logged.
    pub fn add_to_value<R>(
        &self,
        key: &Key,
        region_len: usize,
        deltas: &[(u16, ValueDelta)],
        ctx: &mut LogCtx<'_>,
        how: &OpLog,
        read: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<R> {
        self.with_record(key, |leaf, g, idx| {
            let rec_off = (node::slots(g).get(idx).len().checked_sub(region_len))
                .filter(|&off| off >= node::leaf_value_offset(key.len()))
                .ok_or_else(|| Error::corruption("value shorter than its region"))?;
            let add = move |deltas| RedoOp::SlotAdd { idx: idx as u16, off: rec_off as u16, deltas };
            let inverse = move |_: &Page| add(deltas.iter().map(|&(p, d)| (p, d.inverse())).collect());
            Self::apply_logged(leaf, g, add(deltas.to_vec()), inverse, ctx, how)?;
            read(&node::slots(g).get(idx)[rec_off..])
        })
    }

    /// Physically remove a record (ghost cleanup; caller holds the
    /// appropriate transaction locks and runs inside a system transaction).
    pub fn remove_record(&self, key: &Key, ctx: &mut LogCtx<'_>, how: &OpLog) -> Result<()> {
        self.with_record(key, |leaf, g, idx| Self::remove_slot(leaf, g, idx, ctx, how))
    }

    /// Insert `bytes` as slot `idx` of a latched page, logged.
    fn insert_slot(
        page: &PinnedPage,
        guard: &mut PageWriteGuard<'_>,
        idx: usize,
        bytes: Vec<u8>,
        ctx: &mut LogCtx<'_>,
        how: &OpLog,
    ) -> Result<()> {
        let (idx, inverse) = (idx as u16, move |_: &Page| RedoOp::SlotRemove { idx: idx as u16 });
        Self::apply_logged(page, guard, RedoOp::SlotInsert { idx, bytes }, inverse, ctx, how)
    }

    /// Remove slot `idx` of a latched page, logged.
    fn remove_slot(
        page: &PinnedPage,
        guard: &mut PageWriteGuard<'_>,
        idx: usize,
        ctx: &mut LogCtx<'_>,
        how: &OpLog,
    ) -> Result<()> {
        let bytes = move |p: &Page| node::slots(p).get(idx).to_vec();
        let inverse = move |p: &Page| RedoOp::SlotInsert { idx: idx as u16, bytes: bytes(p) };
        Self::apply_logged(page, guard, RedoOp::SlotRemove { idx: idx as u16 }, inverse, ctx, how)
    }

    /// Range scan over `[lo, hi_exclusive)` (whole tree if `None`).
    /// Returns the matching items (ghosts included iff `include_ghosts`)
    /// plus the first key at-or-beyond the upper bound — the engine locks
    /// that key's gap (or the index end) to keep the range phantom-free.
    pub fn scan(
        &self,
        lo: Option<&Key>,
        hi_exclusive: Option<&Key>,
        include_ghosts: bool,
    ) -> Result<(Vec<ScanItem>, Option<Vec<u8>>)> {
        let _t = self.latch.read();
        let start = lo.map_or(&[][..], |k| k.as_bytes());
        let mut out = Vec::new();
        let mut first_leaf = true;
        let mut leaf = self.find_leaf(start)?;
        loop {
            let next_pid = {
                let g = leaf.read();
                let s = node::slots(&g);
                // Only the first leaf needs a search; later leaves start at 0.
                let begin = if first_leaf {
                    match node::leaf_search(&g, start) {
                        Ok(i) => i,
                        Err(i) => i,
                    }
                } else {
                    0
                };
                for i in begin..s.count() {
                    let rec = node::decode_leaf(s.get(i))?;
                    if let Some(hi) = hi_exclusive {
                        if rec.key >= hi.as_bytes() {
                            return Ok((out, Some(rec.key.to_vec())));
                        }
                    }
                    if rec.ghost && !include_ghosts {
                        continue;
                    }
                    out.push(ScanItem {
                        key: rec.key.to_vec(),
                        value: rec.value.to_vec(),
                        ghost: rec.ghost,
                    });
                }
                node::right_sibling(&g)
            };
            if next_pid.is_null() {
                return Ok((out, None));
            }
            first_leaf = false;
            leaf = self.pool.fetch(next_pid)?;
        }
    }

    /// First physical record with key `>= key` (for next-key locking on
    /// inserts). Returns `(key bytes, ghost)`.
    pub fn next_geq(&self, key: &Key) -> Result<Option<(Vec<u8>, bool)>> {
        let _t = self.latch.read();
        let mut leaf = self.find_leaf(key.as_bytes())?;
        loop {
            let next_pid = {
                let g = leaf.read();
                let s = node::slots(&g);
                let from = match node::leaf_search(&g, key.as_bytes()) {
                    Ok(i) => i,
                    Err(i) => i,
                };
                if from < s.count() {
                    let rec = node::decode_leaf(s.get(from))?;
                    return Ok(Some((rec.key.to_vec(), rec.ghost)));
                }
                node::right_sibling(&g)
            };
            if next_pid.is_null() {
                return Ok(None);
            }
            leaf = self.pool.fetch(next_pid)?;
        }
    }

    /// Scan backwards: all items in `[lo, hi_exclusive)` in DESCENDING key
    /// order. Leaves have no left-sibling pointers, so this collects the
    /// forward scan and reverses — acceptable for the report-style queries
    /// that want "top groups last" semantics.
    pub fn scan_desc(
        &self,
        lo: Option<&Key>,
        hi_exclusive: Option<&Key>,
        include_ghosts: bool,
    ) -> Result<Vec<ScanItem>> {
        let (mut items, _) = self.scan(lo, hi_exclusive, include_ghosts)?;
        items.reverse();
        Ok(items)
    }

    /// Structural invariant checker (tests, crash-recovery audits):
    ///
    /// * every node's keys are strictly sorted;
    /// * interior separators bound their subtrees;
    /// * all leaves are at level 0 and reachable via the sibling chain in
    ///   the same order as by tree descent;
    /// * record encodings decode.
    ///
    /// Returns the number of physical records seen (ghosts included).
    pub fn validate(&self) -> Result<usize> {
        let _t = self.latch.read();
        let mut leaves_by_descent: Vec<PageId> = Vec::new();
        let mut total = 0usize;
        self.validate_node(self.root, None, None, &mut leaves_by_descent, &mut total)?;
        // Sibling chain must visit the same leaves in the same order.
        let mut chain = Vec::new();
        let mut pid = *leaves_by_descent.first().expect("at least the root leaf");
        loop {
            chain.push(pid);
            let page = self.pool.fetch(pid)?;
            let next = node::right_sibling(&page.read());
            if next.is_null() {
                break;
            }
            pid = next;
        }
        if chain != leaves_by_descent {
            return Err(Error::corruption(format!(
                "sibling chain {chain:?} != descent order {leaves_by_descent:?}"
            )));
        }
        Ok(total)
    }

    fn validate_node(
        &self,
        pid: PageId,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        leaves: &mut Vec<PageId>,
        total: &mut usize,
    ) -> Result<()> {
        let page = self.pool.fetch(pid)?;
        let g = page.read();
        let s = node::slots(&g);
        let lvl = node::level(&g);
        let mut prev_key: Option<Vec<u8>> = None;
        if lvl == 0 {
            leaves.push(pid);
            for i in 0..s.count() {
                let rec = node::decode_leaf(s.get(i))?;
                if let Some(p) = &prev_key {
                    if rec.key <= p.as_slice() {
                        return Err(Error::corruption(format!("unsorted leaf {pid:?} slot {i}")));
                    }
                }
                if let Some(lo) = lo {
                    if rec.key < lo {
                        return Err(Error::corruption(format!("leaf {pid:?} underflows low fence")));
                    }
                }
                if let Some(hi) = hi {
                    if rec.key >= hi {
                        return Err(Error::corruption(format!("leaf {pid:?} overflows high fence")));
                    }
                }
                prev_key = Some(rec.key.to_vec());
                *total += 1;
            }
            return Ok(());
        }
        // Interior: separators strictly sorted; child i bounded by
        // [sep_i, sep_{i+1}).
        let mut entries = Vec::with_capacity(s.count());
        for i in 0..s.count() {
            let (sep, child) = node::decode_interior(s.get(i))?;
            if let Some(p) = &prev_key {
                if sep <= p.as_slice() {
                    return Err(Error::corruption(format!("unsorted interior {pid:?} slot {i}")));
                }
            }
            prev_key = Some(sep.to_vec());
            entries.push((sep.to_vec(), child));
        }
        drop(g);
        for (i, (sep, child)) in entries.iter().enumerate() {
            let child_lo: Option<&[u8]> = if i == 0 { lo } else { Some(sep.as_slice()) };
            let next_sep = entries.get(i + 1).map(|(s, _)| s.as_slice());
            let child_hi = next_sep.or(hi);
            // Verify the child level decreases by exactly one.
            let cp = self.pool.fetch(*child)?;
            let child_level = node::level(&cp.read());
            drop(cp);
            if child_level + 1 != lvl {
                return Err(Error::corruption(format!(
                    "level skew: node {pid:?} level {lvl}, child {child:?} level {child_level}"
                )));
            }
            self.validate_node(*child, child_lo, child_hi, leaves, total)?;
        }
        Ok(())
    }

    /// Tree height (1 = root is a leaf).
    pub fn depth(&self) -> Result<usize> {
        let _t = self.latch.read();
        let g = self.pool.fetch(self.root)?;
        let lvl = node::level(&g.read());
        Ok(lvl as usize + 1)
    }

    // ---- structure modifications (system transactions) ------------------

    /// Ensure the leaf owning `key` has at least `needed` free bytes,
    /// splitting nodes top-down as required. Runs as a system transaction
    /// under the exclusive tree latch.
    fn split_for(&self, key: &[u8], needed: usize, log: &LogManager) -> Result<()> {
        let _t = self.latch.write();
        let sys = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log, txn: sys, last_lsn: &mut last };

        // Top-down: split any node on the path that might not have room.
        let mut parent: Option<(PinnedPage, usize)> = None;
        let mut page = self.pool.fetch(self.root)?;
        loop {
            let (lvl, free) = {
                let g = page.read();
                (node::level(&g), node::slots(&g).free_space())
            };
            let reserve = if lvl == 0 { needed } else { SEP_RESERVE };
            if free < reserve {
                if page.id() == self.root {
                    self.pushdown_root(&page, &mut ctx)?;
                    // Restart descent from the (now interior) root.
                    parent = None;
                    page = self.pool.fetch(self.root)?;
                    continue;
                } else {
                    let (ppage, pidx) = parent.as_ref().expect("non-root has a parent");
                    self.split_node(&page, ppage, *pidx, &mut ctx)?;
                    // Restart descent: the key may now route differently.
                    parent = None;
                    page = self.pool.fetch(self.root)?;
                    continue;
                }
            }
            if lvl == 0 {
                break;
            }
            let (idx, child) = {
                let g = page.read();
                node::interior_route(&g, key)?
            };
            parent = Some((page, idx));
            page = self.pool.fetch(child)?;
        }

        // Nothing split (another thread got here first): nothing was
        // logged, so nothing is committed either.
        ctx.commit();
        Ok(())
    }

    /// Root push-down: move the root's records into two fresh children and
    /// turn the root into a 2-entry interior node one level up.
    fn pushdown_root(&self, root: &PinnedPage, ctx: &mut LogCtx<'_>) -> Result<()> {
        let (lvl, records) = {
            let g = root.read();
            let s = node::slots(&g);
            let recs: Vec<Vec<u8>> = (0..s.count()).map(|i| s.get(i).to_vec()).collect();
            (node::level(&g), recs)
        };
        let n = records.len();
        let split = n / 2;
        let (left_pid, left) = self.new_node(lvl, ctx)?;
        let (right_pid, right) = self.new_node(lvl, ctx)?;

        {
            let mut lg = left.write();
            for (i, rec) in records[..split].iter().enumerate() {
                Self::insert_slot(&left, &mut lg, i, rec.clone(), ctx, &OpLog::System)?;
            }
            if lvl == 0 {
                let (redo, inverse) = node::right_sibling_patch(&lg, right_pid);
                Self::apply_logged(&left, &mut lg, redo, |_| inverse, ctx, &OpLog::System)?;
            }
        }
        {
            let mut rg = right.write();
            for (i, rec) in records[split..].iter().enumerate() {
                Self::insert_slot(&right, &mut rg, i, rec.clone(), ctx, &OpLog::System)?;
            }
            // Root had no right sibling; the new right child inherits NULL.
        }

        // Separator = key of the first record moving right.
        let sep = if lvl == 0 {
            node::decode_leaf(&records[split])?.key.to_vec()
        } else {
            node::decode_interior(&records[split])?.0.to_vec()
        };

        // Empty the root (reverse order keeps inverse ops exact).
        {
            let mut g = root.write();
            for i in (0..n).rev() {
                Self::remove_slot(root, &mut g, i, ctx, &OpLog::System)?;
            }
            let (redo, inverse) = node::level_patch(&g, lvl + 1);
            Self::apply_logged(root, &mut g, redo, |_| inverse, ctx, &OpLog::System)?;
            Self::insert_slot(root, &mut g, 0, node::encode_interior(&[], left_pid), ctx, &OpLog::System)?;
            Self::insert_slot(root, &mut g, 1, node::encode_interior(&sep, right_pid), ctx, &OpLog::System)?;
        }
        Ok(())
    }

    /// Split a non-root node, inserting the new separator into its parent
    /// (which is guaranteed to have room by the top-down policy).
    fn split_node(&self, page: &PinnedPage, parent: &PinnedPage, pidx: usize, ctx: &mut LogCtx<'_>) -> Result<()> {
        let (lvl, records, old_right) = {
            let g = page.read();
            let s = node::slots(&g);
            let recs: Vec<Vec<u8>> = (0..s.count()).map(|i| s.get(i).to_vec()).collect();
            (node::level(&g), recs, node::right_sibling(&g))
        };
        let n = records.len();
        let split = n / 2;
        let (new_pid, new_page) = self.new_node(lvl, ctx)?;

        // Copy the upper half into the new node.
        {
            let mut ng = new_page.write();
            for (i, rec) in records[split..].iter().enumerate() {
                Self::insert_slot(&new_page, &mut ng, i, rec.clone(), ctx, &OpLog::System)?;
            }
            if lvl == 0 {
                let (redo, inverse) = node::right_sibling_patch(&ng, old_right);
                Self::apply_logged(&new_page, &mut ng, redo, |_| inverse, ctx, &OpLog::System)?;
            }
        }
        // Remove the upper half from the old node; relink siblings.
        {
            let mut g = page.write();
            for i in (split..n).rev() {
                Self::remove_slot(page, &mut g, i, ctx, &OpLog::System)?;
            }
            if lvl == 0 {
                let (redo, inverse) = node::right_sibling_patch(&g, new_pid);
                Self::apply_logged(page, &mut g, redo, |_| inverse, ctx, &OpLog::System)?;
            }
        }
        // Insert the separator into the parent after the old child's entry.
        let sep = if lvl == 0 {
            node::decode_leaf(&records[split])?.key.to_vec()
        } else {
            node::decode_interior(&records[split])?.0.to_vec()
        };
        {
            let mut pg = parent.write();
            let sep = node::encode_interior(&sep, new_pid);
            Self::insert_slot(parent, &mut pg, pidx + 1, sep, ctx, &OpLog::System)?;
        }
        Ok(())
    }

    /// Allocate and format a new node inside the current system txn.
    fn new_node(&self, lvl: u8, ctx: &mut LogCtx<'_>) -> Result<(PageId, PinnedPage)> {
        let ty = if lvl == 0 { PageType::BTreeLeaf } else { PageType::BTreeInterior };
        let (pid, page) = self.pool.new_page(ty)?;
        let mut g = page.write();
        let fmt = RedoOp::FormatPage { ty: ty.to_u8(), header_len: PAYLOAD_HEADER_LEN as u16 };
        fmt.apply(g.payload_mut(), PAYLOAD_HEADER_LEN)?;
        node::init_header(&mut g, lvl, PageId::NULL);
        let free = RedoOp::FormatPage { ty: PageType::Free.to_u8(), header_len: PAYLOAD_HEADER_LEN as u16 };
        ctx.log_op(pid, fmt, Some(free), &OpLog::System);
        let hdr = RedoOp::Patch { off: 0, bytes: g.payload()[..PAYLOAD_HEADER_LEN].to_vec() };
        let lsn = ctx.log_op(pid, hdr.clone(), Some(hdr), &OpLog::System);
        g.set_lsn(lsn);
        drop(g);
        Ok((pid, page))
    }
}

/// The inverse that rewrites slot `idx` as it is before a change.
fn restore(idx: usize) -> impl FnOnce(&Page) -> RedoOp {
    move |p| RedoOp::SlotUpdate { idx: idx as u16, bytes: node::slots(p).get(idx).to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txview_common::rng::Rng;
    use txview_common::Value;
    use txview_storage::disk::MemDisk;

    fn setup() -> (Arc<LogManager>, Arc<BufferPool>, Tree) {
        let log = Arc::new(LogManager::in_memory());
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 256);
        let l2 = Arc::clone(&log);
        pool.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
        let tree = Tree::create(&pool, &log, IndexId(1)).unwrap();
        (log, pool, tree)
    }

    fn k(v: i64) -> Key {
        Key::from_values(&[Value::Int(v)])
    }

    fn user_insert(tree: &Tree, log: &LogManager, key: &Key, val: &[u8]) {
        let txn = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log, txn, last_lsn: &mut last };
        tree.insert(key, val, &mut ctx, &OpLog::Update { undo: UndoOp::None }).unwrap();
    }

    #[test]
    fn insert_get_small() {
        let (log, _pool, tree) = setup();
        for i in [5i64, 1, 9, 3] {
            user_insert(&tree, &log, &k(i), format!("v{i}").as_bytes());
        }
        assert_eq!(tree.get(&k(3)).unwrap(), Some((false, b"v3".to_vec())));
        assert_eq!(tree.get(&k(4)).unwrap(), None);
        assert_eq!(tree.scan(None, None, false).unwrap().0.len(), 4);
        assert_eq!(tree.depth().unwrap(), 1);
    }

    #[test]
    fn duplicate_rejected_ghost_revived() {
        let (log, _pool, tree) = setup();
        let txn = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn, last_lsn: &mut last };
        let how = OpLog::Update { undo: UndoOp::None };
        tree.insert(&k(1), b"a", &mut ctx, &how).unwrap();
        assert!(matches!(
            tree.insert(&k(1), b"b", &mut ctx, &how),
            Err(Error::DuplicateKey(_))
        ));
        // Ghost it, then re-insert revives with the new value.
        tree.set_ghost(&k(1), true, &mut ctx, &how).unwrap();
        assert_eq!(tree.get(&k(1)).unwrap(), Some((true, b"a".to_vec())));
        tree.insert(&k(1), b"b", &mut ctx, &how).unwrap();
        assert_eq!(tree.get(&k(1)).unwrap(), Some((false, b"b".to_vec())));
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let (log, _pool, tree) = setup();
        let mut rng = Rng::new(42);
        let mut keys: Vec<i64> = (0..2000).collect();
        rng.shuffle(&mut keys);
        for i in &keys {
            user_insert(&tree, &log, &k(*i), format!("value-{i:05}").as_bytes());
        }
        assert!(tree.depth().unwrap() >= 2, "tree must have split");
        let (items, next) = tree.scan(None, None, false).unwrap();
        assert_eq!(items.len(), 2000);
        assert!(next.is_none());
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.key, k(i as i64).as_bytes());
            assert_eq!(item.value, format!("value-{i:05}").as_bytes());
        }
    }

    #[test]
    fn range_scan_bounds_and_next_key() {
        let (log, _pool, tree) = setup();
        for i in 0..100 {
            user_insert(&tree, &log, &k(i * 2), b"v"); // even keys 0..198
        }
        let (items, next) = tree.scan(Some(&k(10)), Some(&k(20)), false).unwrap();
        let got: Vec<Vec<u8>> = items.iter().map(|i| i.key.clone()).collect();
        assert_eq!(
            got,
            vec![k(10).as_bytes().to_vec(), k(12).as_bytes().to_vec(),
                 k(14).as_bytes().to_vec(), k(16).as_bytes().to_vec(),
                 k(18).as_bytes().to_vec()]
        );
        assert_eq!(next, Some(k(20).as_bytes().to_vec()));
        // Open-ended scan reaches the end of the index.
        let (_, next) = tree.scan(Some(&k(190)), None, false).unwrap();
        assert_eq!(next, None);
    }

    #[test]
    fn next_geq_walks_across_leaves() {
        let (log, _pool, tree) = setup();
        for i in 0..500 {
            user_insert(&tree, &log, &k(i * 10), b"0123456789abcdef");
        }
        assert_eq!(tree.next_geq(&k(55)).unwrap().unwrap().0, k(60).as_bytes());
        assert_eq!(tree.next_geq(&k(0)).unwrap().unwrap().0, k(0).as_bytes());
        assert_eq!(tree.next_geq(&k(4991)).unwrap(), None);
    }

    #[test]
    fn patch_value_overwrites_a_range_in_place() {
        let (log, _pool, tree) = setup();
        user_insert(&tree, &log, &k(7), b"AAAABBBB");
        let txn = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn, last_lsn: &mut last };
        let how = OpLog::Update { undo: UndoOp::None };
        tree.patch_value(&k(7), 4, b"CC", &mut ctx, &how).unwrap();
        assert_eq!(tree.get(&k(7)).unwrap(), Some((false, b"AAAACCBB".to_vec())));
        // A range past the record is refused, and nothing is logged.
        let before = *ctx.last_lsn;
        assert!(tree.patch_value(&k(7), 7, b"DD", &mut ctx, &how).is_err());
        assert_eq!(*ctx.last_lsn, before);
    }

    #[test]
    fn add_to_value_adds_typed_deltas_in_place() {
        use txview_common::codec::Writer;
        use txview_common::Value;
        let fixed = |vals: &[Value]| {
            let mut w = Writer::new();
            vals.iter().for_each(|v| v.encode(&mut w));
            w.into_bytes()
        };
        let (log, _pool, tree) = setup();
        let value = [b"G".to_vec(), fixed(&[Value::Int(2), Value::Int(40)])].concat();
        user_insert(&tree, &log, &k(7), &value);
        let txn = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn, last_lsn: &mut last };
        let how = OpLog::Update { undo: UndoOp::None };
        let deltas = [(0, ValueDelta::Int(1)), (1, ValueDelta::Int(-5))];
        let region = tree.add_to_value(&k(7), 18, &deltas, &mut ctx, &how, |r| Ok(r.to_vec())).unwrap();
        assert_eq!(region, fixed(&[Value::Int(3), Value::Int(35)]));
        let want = [b"G".to_vec(), region].concat();
        assert_eq!(tree.get(&k(7)).unwrap(), Some((false, want.clone())));
        // A mistyped delta changes nothing and logs nothing.
        let before = *ctx.last_lsn;
        let mistyped = [(1, ValueDelta::Float(1.0))];
        assert!(tree.add_to_value(&k(7), 18, &mistyped, &mut ctx, &how, |_| Ok(())).is_err());
        let past = tree.add_to_value(&k(7), 20, &deltas, &mut ctx, &how, |_| Ok(()));
        assert!(past.is_err(), "region past the value");
        assert_eq!(*ctx.last_lsn, before);
        assert_eq!(tree.get(&k(7)).unwrap(), Some((false, want)));
    }

    /// A split that finds room already (another thread split first) is a
    /// system transaction that logged nothing: it appends nothing.
    #[test]
    fn split_with_room_appends_nothing() {
        let (log, _pool, tree) = setup();
        user_insert(&tree, &log, &k(1), b"x");
        let before = (log.appended_records(), log.appended_bytes());
        tree.split_for(k(2).as_bytes(), 16, &log).unwrap();
        assert_eq!((log.appended_records(), log.appended_bytes()), before);
    }

    #[test]
    fn remove_record_physically_deletes() {
        let (log, _pool, tree) = setup();
        user_insert(&tree, &log, &k(1), b"x");
        user_insert(&tree, &log, &k(2), b"y");
        let txn = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn, last_lsn: &mut last };
        tree.set_ghost(&k(1), true, &mut ctx, &OpLog::None).unwrap();
        assert_eq!(tree.scan(None, None, true).unwrap().0.iter().filter(|i| i.ghost).count(), 1);
        tree.remove_record(&k(1), &mut ctx, &OpLog::None).unwrap();
        assert_eq!(tree.get(&k(1)).unwrap(), None);
        assert_eq!(tree.scan(None, None, true).unwrap().0.iter().filter(|i| i.ghost).count(), 0);
        assert_eq!(tree.scan(None, None, false).unwrap().0.len(), 1);
    }

    #[test]
    fn ghosts_visible_only_when_requested() {
        let (log, _pool, tree) = setup();
        for i in 0..10 {
            user_insert(&tree, &log, &k(i), b"v");
        }
        let txn = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn, last_lsn: &mut last };
        tree.set_ghost(&k(4), true, &mut ctx, &OpLog::None).unwrap();
        let (live, _) = tree.scan(None, None, false).unwrap();
        assert_eq!(live.len(), 9);
        let (all, _) = tree.scan(None, None, true).unwrap();
        assert_eq!(all.len(), 10);
        assert!(all[4].ghost);
    }

    #[test]
    fn concurrent_inserts_disjoint_keys() {
        let (log, pool, tree) = setup();
        let tree = Arc::new(tree);
        let _ = pool;
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let key = k((t * 10_000 + i) as i64);
                        let txn = log.alloc_txn_id();
                        let mut last = Lsn::NULL;
                        let mut ctx = LogCtx { log: &log, txn, last_lsn: &mut last };
                        tree.insert(&key, b"concurrent-value", &mut ctx, &OpLog::Update { undo: UndoOp::None })
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tree.scan(None, None, false).unwrap().0.len(), 2000);
        // All keys present and ordered.
        let (items, _) = tree.scan(None, None, false).unwrap();
        for w in items.windows(2) {
            assert!(w[0].key < w[1].key);
        }
    }

    #[test]
    fn big_records_rejected() {
        let (log, _pool, tree) = setup();
        let txn = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn, last_lsn: &mut last };
        let huge = vec![0u8; 4000];
        assert!(matches!(
            tree.insert(&k(1), &huge, &mut ctx, &OpLog::None),
            Err(Error::RecordTooLarge { .. })
        ));
    }
}
