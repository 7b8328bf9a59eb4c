//! The client (and server) block cache.
//!
//! File data is cached on a block-by-block basis in 4-Kbyte blocks
//! (Section 5). The cache itself is mechanism only: it tracks which
//! blocks are present, their reference and dirty times, and
//! least-recently-used order. *Policy* — when to grow, when to shrink,
//! what eviction means — lives with the caller (the client trades pages
//! with the VM system; the server has a fixed capacity).
//!
//! Entries live in a slab, and three structures keep the hot paths
//! cheap:
//!
//! * Blocks are found through 64-block *groups*: one hash table keyed
//!   by `(file, index / 64)` whose value holds the slab slots of those
//!   64 blocks and a presence mask. Consecutive blocks of a sequential
//!   run share one small table entry, and each file keeps its group
//!   numbers sorted, so per-file block lists come out in index order
//!   with no sort. A group exists only while it holds a block, so memory
//!   grows with the number of cached blocks, never with the largest
//!   block index.
//! * LRU order is an intrusive doubly-linked list threaded through the
//!   slab, so a touch is one group probe plus O(1) pointer surgery.
//!   Simulated time never decreases, so list order is exactly the old
//!   `(last_ref, seq)` order.
//! * Dirty blocks sit on a second intrusive list, appended when they
//!   first become dirty. That time is `dirty_since`, which never
//!   decreases either, so the list is in `dirty_since` order and the
//!   write-back daemon's 5-second scan walks only the expired prefix
//!   instead of sweeping the whole dirty set.

use std::collections::hash_map::Entry;

use sdfs_simkit::{FastMap, SimDuration, SimTime};
use sdfs_trace::FileId;

/// Identity of one cached block: a file and a block index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockKey {
    /// The file.
    pub file: FileId,
    /// Block index (byte offset / block size).
    pub index: u64,
}

/// Per-block cache state.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    /// Last reference time (LRU key).
    pub last_ref: SimTime,
    /// Whether the block holds data not yet written to the server.
    pub dirty: bool,
    /// When the block first became dirty in its current dirty episode.
    pub dirty_since: SimTime,
    /// When the block was last written by an application.
    pub last_write: SimTime,
    /// Application bytes accumulated in the block since it last became
    /// dirty: what cancelling the block, or losing it in a crash,
    /// destroys.
    pub dirty_app_bytes: u64,
}

impl BlockEntry {
    /// Time since the last application write — the write-back queue
    /// dwell the observability layer records when the block is cleaned.
    pub fn dwell(&self, now: SimTime) -> SimDuration {
        now.since(self.last_write)
    }
}

/// Sentinel for "no slab slot".
const NIL: u32 = u32::MAX;

/// log2 of the blocks per group.
const GROUP_SHIFT: u32 = 6;
/// Blocks per group: one bit each in [`Group::present`].
const GROUP_BLOCKS: usize = 1 << GROUP_SHIFT;

/// The slab slots of 64 consecutive blocks of one file.
#[derive(Debug, Clone)]
struct Group {
    /// Slot of block `group * 64 + b` at position `b`; `NIL` if absent.
    slots: [u32; GROUP_BLOCKS],
    /// Bit `b` set ⇔ block `group * 64 + b` is cached.
    present: u64,
}

impl Group {
    const EMPTY: Group = Group {
        slots: [NIL; GROUP_BLOCKS],
        present: 0,
    };
}

/// Splits a key into its group's table key and its position in the group.
#[inline]
fn locate(key: BlockKey) -> ((FileId, u64), usize) {
    (
        (key.file, key.index >> GROUP_SHIFT),
        (key.index & (GROUP_BLOCKS as u64 - 1)) as usize,
    )
}

/// One list's links in a slot.
#[derive(Debug, Clone, Copy)]
struct Links {
    prev: u32,
    next: u32,
}

/// The LRU list, threading every cached block, least recently used
/// first: an index into [`Slot::links`] and [`BlockCache::ends`].
const LRU: usize = 0;
/// The dirty list, threading the dirty blocks, earliest `dirty_since`
/// first.
const DIRTY: usize = 1;

/// One slab slot: the entry plus its links on both lists.
#[derive(Debug, Clone)]
struct Slot {
    key: BlockKey,
    entry: BlockEntry,
    /// Links on the LRU list, and (only while dirty) the dirty list.
    links: [Links; 2],
}

/// Head and tail of one intrusive list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

impl Default for Ends {
    fn default() -> Self {
        Ends {
            head: NIL,
            tail: NIL,
        }
    }
}

/// An LRU block cache.
#[derive(Debug, Default)]
pub struct BlockCache {
    /// `(file, index / 64)` → the slots of that group's cached blocks.
    groups: FastMap<(FileId, u64), Group>,
    /// Each file's group numbers present in `groups`, ascending.
    files: FastMap<FileId, Vec<u64>>,
    /// Slot storage.
    slots: Vec<Slot>,
    /// Freed slots, reused last-freed first.
    free: Vec<u32>,
    /// Ends of the LRU and dirty lists.
    ends: [Ends; 2],
    /// Number of cached blocks.
    len: usize,
    /// Number of dirty blocks.
    dirty_len: usize,
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BlockCache::default()
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of dirty blocks.
    pub fn dirty_len(&self) -> usize {
        self.dirty_len
    }

    /// Slab slot holding `key`, if cached.
    #[inline]
    fn slot_of(&self, key: BlockKey) -> Option<u32> {
        let (g, b) = locate(key);
        let i = self.groups.get(&g)?.slots[b];
        (i != NIL).then_some(i)
    }

    /// Returns `true` if `key` is cached.
    pub fn contains(&self, key: BlockKey) -> bool {
        self.slot_of(key).is_some()
    }

    /// Returns the entry for `key`, if cached.
    pub fn get(&self, key: BlockKey) -> Option<&BlockEntry> {
        self.slot_of(key).map(|i| &self.slots[i as usize].entry)
    }

    /// Unlinks slot `i` from `list` ([`LRU`] or [`DIRTY`]).
    #[inline]
    fn unlink(&mut self, list: usize, i: u32) {
        let Links { prev, next } = self.slots[i as usize].links[list];
        if prev != NIL {
            self.slots[prev as usize].links[list].next = next;
        } else {
            self.ends[list].head = next;
        }
        if next != NIL {
            self.slots[next as usize].links[list].prev = prev;
        } else {
            self.ends[list].tail = prev;
        }
    }

    /// Links slot `i` at the tail of `list` ([`LRU`] or [`DIRTY`]).
    #[inline]
    fn push_back(&mut self, list: usize, i: u32) {
        let tail = self.ends[list].tail;
        self.slots[i as usize].links[list] = Links {
            prev: tail,
            next: NIL,
        };
        if tail != NIL {
            self.slots[tail as usize].links[list].next = i;
        } else {
            self.ends[list].head = i;
        }
        self.ends[list].tail = i;
    }

    /// Marks `key` referenced at `now`, refreshing its LRU position.
    /// Returns `true` if the block was present.
    pub fn touch(&mut self, key: BlockKey, now: SimTime) -> bool {
        self.touch_slot(key, now).is_some()
    }

    /// Touch that also returns the slot index, so callers needing the
    /// entry afterwards skip a second lookup.
    fn touch_slot(&mut self, key: BlockKey, now: SimTime) -> Option<u32> {
        let i = self.slot_of(key)?;
        self.touch_at(i, now);
        Some(i)
    }

    fn touch_at(&mut self, i: u32, now: SimTime) {
        self.slots[i as usize].entry.last_ref = now;
        if self.ends[LRU].tail != i {
            self.unlink(LRU, i);
            self.push_back(LRU, i);
        }
    }

    /// Inserts a clean block referenced at `now`. The caller must have
    /// arranged capacity (this structure never evicts on its own).
    ///
    /// Inserting an already-present block just touches it.
    pub fn insert(&mut self, key: BlockKey, now: SimTime) {
        self.insert_slot(key, now);
    }

    /// Inserts `key` and marks it dirty at `now` with `app_bytes` of new
    /// application data: [`Self::insert`] then [`Self::mark_dirty`] in
    /// one lookup.
    pub(crate) fn insert_dirty(&mut self, key: BlockKey, now: SimTime, app_bytes: u64) {
        let i = self.insert_slot(key, now);
        self.dirty_at(i, now, app_bytes);
    }

    /// [`Self::insert`], returning the block's slot.
    fn insert_slot(&mut self, key: BlockKey, now: SimTime) -> u32 {
        let (g, b) = locate(key);
        let group = match self.groups.entry(g) {
            Entry::Occupied(occ) => occ.into_mut(),
            Entry::Vacant(vac) => {
                let list = self.files.entry(key.file).or_default();
                let at = list.partition_point(|&n| n < g.1);
                list.insert(at, g.1);
                vac.insert(Group::EMPTY)
            }
        };
        let i = group.slots[b];
        if i != NIL {
            // Already present: insert degrades to a touch.
            self.touch_at(i, now);
            return i;
        }
        let slot = Slot {
            key,
            entry: BlockEntry {
                last_ref: now,
                dirty: false,
                dirty_since: SimTime::ZERO,
                last_write: SimTime::ZERO,
                dirty_app_bytes: 0,
            },
            links: [Links {
                prev: NIL,
                next: NIL,
            }; 2],
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        group.slots[b] = i;
        group.present |= 1 << b;
        self.len += 1;
        self.push_back(LRU, i);
        i
    }

    /// Marks `key` dirty at `now` with `app_bytes` of new application
    /// data. The block must already be cached.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block is absent.
    pub fn mark_dirty(&mut self, key: BlockKey, now: SimTime, app_bytes: u64) {
        let present = self.mark_dirty_if_present(key, now, app_bytes);
        debug_assert!(present, "mark_dirty on absent block");
    }

    /// [`Self::mark_dirty`], but absent blocks are a no-op returning
    /// `false`. Lets the write path probe and dirty in one lookup.
    pub fn mark_dirty_if_present(&mut self, key: BlockKey, now: SimTime, app_bytes: u64) -> bool {
        let Some(i) = self.touch_slot(key, now) else {
            return false;
        };
        self.dirty_at(i, now, app_bytes);
        true
    }

    /// Records a write of `app_bytes` at `now` to slot `i`, starting a
    /// dirty episode (and joining the dirty list) if it was clean.
    fn dirty_at(&mut self, i: u32, now: SimTime, app_bytes: u64) {
        let entry = &mut self.slots[i as usize].entry;
        if !entry.dirty {
            entry.dirty = true;
            entry.dirty_since = now;
            entry.dirty_app_bytes = 0;
            let tail = self.ends[DIRTY].tail;
            debug_assert!(
                tail == NIL || self.slots[tail as usize].entry.dirty_since <= now,
                "dirty times must not decrease"
            );
            self.push_back(DIRTY, i);
            self.dirty_len += 1;
        }
        let entry = &mut self.slots[i as usize].entry;
        entry.last_write = now;
        entry.dirty_app_bytes += app_bytes;
    }

    /// Clears the dirty flag (the block was written to the server),
    /// returning the entry state just before cleaning.
    pub fn clean(&mut self, key: BlockKey) -> Option<BlockEntry> {
        let i = self.slot_of(key)?;
        let entry = &mut self.slots[i as usize].entry;
        if !entry.dirty {
            return None;
        }
        let snapshot = entry.clone();
        entry.dirty = false;
        entry.dirty_app_bytes = 0;
        self.unlink(DIRTY, i);
        self.dirty_len -= 1;
        Some(snapshot)
    }

    /// Removes `key` outright, returning its final state.
    pub fn remove(&mut self, key: BlockKey) -> Option<BlockEntry> {
        let (g, b) = locate(key);
        let group = self.groups.get_mut(&g)?;
        let i = group.slots[b];
        if i == NIL {
            return None;
        }
        group.slots[b] = NIL;
        group.present &= !(1 << b);
        if group.present == 0 {
            self.groups.remove(&g);
            let list = self
                .files
                .get_mut(&key.file)
                .expect("a live group is listed under its file");
            let at = list
                .binary_search(&g.1)
                .expect("a live group is listed under its file");
            list.remove(at);
            if list.is_empty() {
                self.files.remove(&key.file);
            }
        }
        self.len -= 1;
        self.unlink(LRU, i);
        let entry = self.slots[i as usize].entry.clone();
        if entry.dirty {
            self.unlink(DIRTY, i);
            self.dirty_len -= 1;
        }
        self.free.push(i);
        Some(entry)
    }

    /// Returns (without removing) the least-recently-used block.
    pub fn peek_lru(&self) -> Option<(BlockKey, &BlockEntry)> {
        let head = self.ends[LRU].head;
        if head == NIL {
            return None;
        }
        let s = &self.slots[head as usize];
        Some((s.key, &s.entry))
    }

    /// Removes and returns the least-recently-used block.
    pub fn pop_lru(&mut self) -> Option<(BlockKey, BlockEntry)> {
        let head = self.ends[LRU].head;
        if head == NIL {
            return None;
        }
        let key = self.slots[head as usize].key;
        let entry = self.remove(key).expect("LRU entry must exist");
        Some((key, entry))
    }

    /// The files with at least one cached block, sorted.
    pub(crate) fn files(&self) -> Vec<FileId> {
        let mut files: Vec<FileId> = self.files.keys().copied().collect();
        files.sort_unstable();
        files
    }

    /// Application bytes held dirty across the cache: what a crash
    /// right now would destroy. Walks only the dirty list.
    pub(crate) fn dirty_app_bytes(&self) -> u64 {
        let mut bytes = 0;
        let mut i = self.ends[DIRTY].head;
        while i != NIL {
            let s = &self.slots[i as usize];
            bytes += s.entry.dirty_app_bytes;
            i = s.links[DIRTY].next;
        }
        bytes
    }

    /// All cached block indices of `file`, sorted.
    pub fn blocks_of(&self, file: FileId) -> Vec<u64> {
        self.file_blocks(file, false)
    }

    /// All dirty block indices of `file`, sorted.
    pub fn dirty_blocks_of(&self, file: FileId) -> Vec<u64> {
        self.file_blocks(file, true)
    }

    /// Walks `file`'s groups in order, collecting its cached (or only
    /// its dirty) block indices.
    fn file_blocks(&self, file: FileId, dirty_only: bool) -> Vec<u64> {
        let mut out = Vec::new();
        let Some(list) = self.files.get(&file) else {
            return out;
        };
        for &g in list {
            let group = &self.groups[&(file, g)];
            let mut mask = group.present;
            while mask != 0 {
                let b = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if !dirty_only || self.slots[group.slots[b] as usize].entry.dirty {
                    out.push((g << GROUP_SHIFT) | b as u64);
                }
            }
        }
        out
    }

    /// Files that have at least one block dirty since `cutoff` or
    /// earlier, sorted and deduplicated — the write-back daemon's scan
    /// ("all dirty blocks for a file are written if any block of the
    /// file has been dirty for 30 seconds"). Walks only the expired
    /// prefix of the dirty list, so an idle tick is O(1).
    pub fn files_with_dirty_before(&self, cutoff: SimTime) -> Vec<FileId> {
        let mut out = Vec::new();
        let mut i = self.ends[DIRTY].head;
        while i != NIL {
            let s = &self.slots[i as usize];
            if s.entry.dirty_since > cutoff {
                break;
            }
            out.push(s.key.file);
            i = s.links[DIRTY].next;
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The block that has been dirty longest, with the start of its
    /// dirty episode; among blocks dirtied at that same time, the
    /// smallest key. Walks only that head cohort of the dirty list; used
    /// by the sanitizer's write-back window check after each daemon tick.
    pub fn oldest_dirty(&self) -> Option<(SimTime, BlockKey)> {
        let head = self.ends[DIRTY].head;
        if head == NIL {
            return None;
        }
        let head = &self.slots[head as usize];
        let since = head.entry.dirty_since;
        let mut oldest = head.key;
        let mut i = head.links[DIRTY].next;
        while i != NIL {
            let s = &self.slots[i as usize];
            if s.entry.dirty_since != since {
                break;
            }
            oldest = oldest.min(s.key);
            i = s.links[DIRTY].next;
        }
        Some((since, oldest))
    }

    /// Cross-checks every internal index: each group's slots must hold
    /// the keys they are filed under, each file's group list must be
    /// sorted and name exactly its live groups, the LRU list must thread
    /// exactly the cached slots in non-decreasing `last_ref` order, and
    /// the dirty list exactly the dirty ones in non-decreasing
    /// `dirty_since` order. Returns the first inconsistency found. O(n);
    /// used by the sanitizer's deep audit.
    pub fn audit(&self) -> Result<(), String> {
        // Groups ⇔ slots: `mapped[i]` once a group position names slot i.
        let mut mapped = vec![false; self.slots.len()];
        let mut dirty_blocks = 0usize;
        for (&(file, g), group) in &self.groups {
            if group.present == 0 {
                return Err(format!("empty group {g} of {file:?} kept"));
            }
            for (b, &i) in group.slots.iter().enumerate() {
                if (i != NIL) != (group.present & (1 << b) != 0) {
                    return Err(format!("group {g} of {file:?}: mask disagrees at {b}"));
                }
                if i == NIL {
                    continue;
                }
                let key = BlockKey {
                    file,
                    index: (g << GROUP_SHIFT) | b as u64,
                };
                match self.slots.get(i as usize) {
                    Some(slot) if slot.key == key && !mapped[i as usize] => {
                        mapped[i as usize] = true;
                        dirty_blocks += usize::from(slot.entry.dirty);
                    }
                    _ => return Err(format!("{key:?} maps to slot {i}, not its own")),
                }
            }
            if !self
                .files
                .get(&file)
                .is_some_and(|l| l.binary_search(&g).is_ok())
            {
                return Err(format!("group {g} of {file:?} missing from its file list"));
            }
        }
        let blocks = mapped.iter().filter(|&&m| m).count();
        if blocks != self.len {
            return Err(format!(
                "groups hold {blocks} blocks, cache holds {}",
                self.len
            ));
        }
        let listed: usize = self.files.values().map(Vec::len).sum();
        if listed != self.groups.len() {
            return Err(format!(
                "file lists name {listed} groups, table holds {}",
                self.groups.len()
            ));
        }
        if let Some((file, _)) = self
            .files
            .iter()
            .find(|(_, l)| l.is_empty() || l.windows(2).any(|w| w[0] >= w[1]))
        {
            return Err(format!("group list of {file:?} is empty or unsorted"));
        }
        // Lists ⇔ mapped slots.
        let lru = self.audit_list(LRU, &mapped, |e| e.last_ref)?;
        if lru != self.len {
            return Err(format!(
                "LRU list threads {lru} slots, cache holds {}",
                self.len
            ));
        }
        let dirty = self.audit_list(DIRTY, &mapped, |e| e.dirty_since)?;
        if dirty != self.dirty_len || dirty != dirty_blocks {
            return Err(format!(
                "dirty list threads {dirty} slots, cache counts {}, {dirty_blocks} are dirty",
                self.dirty_len
            ));
        }
        Ok(())
    }

    /// Walks `list` from head to tail, checking back-links, that each
    /// threaded slot is `mapped` (and dirty, on the dirty list), and
    /// that `time` never decreases. Returns the length.
    fn audit_list(
        &self,
        list: usize,
        mapped: &[bool],
        time: fn(&BlockEntry) -> SimTime,
    ) -> Result<usize, String> {
        let name = if list == LRU { "LRU" } else { "dirty" };
        let ends = self.ends[list];
        let mut walked = 0usize;
        let mut prev = NIL;
        let mut prev_time: Option<SimTime> = None;
        let mut i = ends.head;
        while i != NIL {
            if !mapped.get(i as usize).is_some_and(|&m| m) {
                return Err(format!("{name} list threads unmapped slot {i}"));
            }
            let slot = &self.slots[i as usize];
            let links = slot.links[list];
            if links.prev != prev {
                return Err(format!("{name} back-link broken at slot {i}"));
            }
            if list == DIRTY && !slot.entry.dirty {
                return Err(format!("clean block {:?} on the dirty list", slot.key));
            }
            let t = time(&slot.entry);
            if prev_time.is_some_and(|p| t < p) {
                return Err(format!("{name} order violated at slot {i}"));
            }
            prev_time = Some(t);
            prev = i;
            i = links.next;
            walked += 1;
            if walked > self.slots.len() {
                return Err(format!("{name} list cycles"));
            }
        }
        if ends.tail != prev {
            return Err(format!("{name} tail does not end the list"));
        }
        Ok(walked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: u64, index: u64) -> BlockKey {
        BlockKey {
            file: FileId(file),
            index,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn insert_touch_lru_order() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.insert(key(1, 1), t(2));
        c.insert(key(2, 0), t(3));
        assert_eq!(c.len(), 3);
        // Touch the oldest; LRU should now be (1,1).
        assert!(c.touch(key(1, 0), t(4)));
        let (lru, _) = c.peek_lru().expect("non-empty");
        assert_eq!(lru, key(1, 1));
        let (popped, _) = c.pop_lru().expect("non-empty");
        assert_eq!(popped, key(1, 1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_ties_break_by_insertion_order() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(5));
        c.insert(key(2, 0), t(5));
        let (first, _) = c.pop_lru().expect("non-empty");
        assert_eq!(first, key(1, 0));
    }

    #[test]
    fn dirty_lifecycle() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.mark_dirty(key(1, 0), t(2), 100);
        c.mark_dirty(key(1, 0), t(3), 50);
        assert_eq!(c.dirty_len(), 1);
        let entry = c.get(key(1, 0)).expect("cached");
        assert_eq!(entry.dirty_since, t(2), "first dirtying sets the clock");
        assert_eq!(entry.dirty_app_bytes, 150);
        assert_eq!(entry.last_write, t(3));

        let before = c.clean(key(1, 0)).expect("was dirty");
        assert!(before.dirty);
        assert_eq!(c.dirty_len(), 0);
        assert!(c.clean(key(1, 0)).is_none(), "already clean");
        // Dirtying again restarts the episode.
        c.mark_dirty(key(1, 0), t(10), 7);
        assert_eq!(c.get(key(1, 0)).expect("cached").dirty_since, t(10));
        assert_eq!(c.get(key(1, 0)).expect("cached").dirty_app_bytes, 7);
    }

    #[test]
    fn daemon_scan_finds_old_dirty_files() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(0));
        c.insert(key(2, 0), t(0));
        c.insert(key(3, 0), t(0));
        c.mark_dirty(key(1, 0), t(10), 1);
        c.mark_dirty(key(2, 0), t(50), 1);
        // Cutoff 20: only file 1 has been dirty since before t=20.
        assert_eq!(c.files_with_dirty_before(t(20)), vec![FileId(1)]);
        // Cutoff 60: both dirty files.
        assert_eq!(c.files_with_dirty_before(t(60)), vec![FileId(1), FileId(2)]);
    }

    #[test]
    fn per_file_views() {
        let mut c = BlockCache::new();
        c.insert(key(7, 3), t(1));
        c.insert(key(7, 1), t(1));
        c.insert(key(8, 0), t(1));
        c.mark_dirty(key(7, 1), t(2), 1);
        assert_eq!(c.blocks_of(FileId(7)), vec![1, 3]);
        assert_eq!(c.dirty_blocks_of(FileId(7)), vec![1]);
        assert!(c.blocks_of(FileId(9)).is_empty());
        c.remove(key(7, 1));
        c.remove(key(7, 3));
        assert!(c.blocks_of(FileId(7)).is_empty());
        assert_eq!(c.dirty_len(), 0);
    }

    #[test]
    fn remove_returns_state() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.mark_dirty(key(1, 0), t(2), 42);
        let e = c.remove(key(1, 0)).expect("present");
        assert!(e.dirty);
        assert_eq!(e.dirty_app_bytes, 42);
        assert!(c.remove(key(1, 0)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_touches() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.insert(key(2, 0), t(2));
        c.insert(key(1, 0), t(3)); // re-insert acts as touch
        assert_eq!(c.len(), 2);
        let (lru, _) = c.peek_lru().expect("non-empty");
        assert_eq!(lru, key(2, 0));
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut c = BlockCache::new();
        for round in 0..4u64 {
            for i in 0..8u64 {
                c.insert(key(1, i), t(round * 10 + i));
            }
            for i in 0..8u64 {
                c.remove(key(1, i));
            }
        }
        assert!(c.is_empty());
        assert!(c.slots.len() <= 8, "slots reused, got {}", c.slots.len());
    }

    #[test]
    fn audit_catches_corrupted_indexes() {
        let build = || {
            let mut c = BlockCache::new();
            for i in 0..3u64 {
                c.insert(key(1, i * 64), t(i));
                c.mark_dirty(key(1, i * 64), t(i), 1);
            }
            assert_eq!(c.audit(), Ok(()));
            c
        };
        fn g(c: &mut BlockCache, n: u64) -> &mut Group {
            c.groups.get_mut(&(FileId(1), n)).expect("group")
        }
        let mut c = build();
        g(&mut c, 0).slots[0] = 2; // a position naming another block's slot
        assert!(c.audit().is_err());
        let mut c = build();
        g(&mut c, 1).present |= 2; // a mask bit without a slot
        assert!(c.audit().is_err());
        let mut c = build();
        c.files.get_mut(&FileId(1)).expect("listed").swap(0, 1);
        assert!(c.audit().is_err(), "unsorted group list");
        let mut c = build();
        c.slots[1].entry.dirty = false; // dirty list threads a clean block
        assert!(c.audit().is_err());
        let mut c = build();
        c.ends[DIRTY].tail = 1; // dirty list ends early
        assert!(c.audit().is_err());
    }

    #[test]
    fn oldest_dirty_breaks_time_ties_by_key() {
        let mut c = BlockCache::new();
        for k in [key(2, 5), key(1, 9), key(1, 3)] {
            c.insert(k, t(1));
            c.mark_dirty(k, t(1), 1);
        }
        c.insert(key(0, 0), t(2));
        c.mark_dirty(key(0, 0), t(2), 1);
        assert_eq!(c.oldest_dirty(), Some((t(1), key(1, 3))));
        c.clean(key(1, 3));
        assert_eq!(c.oldest_dirty(), Some((t(1), key(1, 9))));
    }

    #[test]
    fn interleaved_touch_keeps_list_consistent() {
        let mut c = BlockCache::new();
        for i in 0..16u64 {
            c.insert(key(i % 3, i), t(i));
        }
        for i in (0..16u64).rev() {
            c.touch(key(i % 3, i), t(100 + (16 - i)));
        }
        // Pop everything; order must be the reverse-touch order.
        let mut popped = Vec::new();
        while let Some((k, _)) = c.pop_lru() {
            popped.push(k.index);
        }
        assert_eq!(popped, (0..16u64).rev().collect::<Vec<_>>());
    }
}
