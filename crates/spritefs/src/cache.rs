//! The client (and server) block cache.
//!
//! File data is cached on a block-by-block basis in 4-Kbyte blocks
//! (Section 5). The cache itself is mechanism only: it tracks which
//! blocks are present, their reference and dirty times, and
//! least-recently-used order. *Policy* — when to grow, when to shrink,
//! what eviction means — lives with the caller (the client trades pages
//! with the VM system; the server has a fixed capacity).
//!
//! # Layout
//!
//! A paper-scale cluster caches about a quarter of a million blocks
//! across its client and server caches, so the bytes a block costs are
//! most of the cluster's size. Three slabs, each with a free list, hold
//! the cache:
//!
//! * **Slots**, one per cached block, 24 bytes: the last reference
//!   time, the LRU links, the block's group and position in it (`group
//!   slab index << 6 | position`), and the index of its dirty record
//!   (`NIL` while clean). A slot holds no key; the key is read from its
//!   group.
//! * **Groups**, one per 64 consecutive blocks of a file with any of
//!   them cached: the group's file and number, its 64 slot numbers, a
//!   present mask and a dirty mask. A hash index maps `(file, index /
//!   64)` to a group's slab index, so consecutive blocks of a sequential
//!   run share one small index entry, and each file keeps its groups in
//!   index order, so per-file work ([`BlockCache::clean_file`],
//!   [`BlockCache::remove_file`]) walks the masks with one probe and no
//!   sort. A group exists only while it holds a block, so memory grows
//!   with the number of cached blocks, never with the largest block
//!   index.
//! * **Dirty records**, one per dirty block: when the dirty episode
//!   began, the last write, the application bytes, the dirty-list links
//!   and the owning slot. Dirty state lives apart because few blocks are
//!   dirty at once (the write-back daemon cleans them within about 30
//!   seconds) while every cached block would pay for it inline; a clean
//!   block keeps nothing of its last dirty episode.
//!
//! Two intrusive lists keep the hot paths cheap:
//!
//! * LRU order threads the slots, so a touch is one probe plus O(1)
//!   pointer surgery. Simulated time never decreases, so list order is
//!   exactly `(last_ref, insertion sequence)` order.
//! * The dirty list threads the dirty records, each appended when its
//!   block first becomes dirty. That time is `dirty_since`, which never
//!   decreases either, so the list is in `dirty_since` order and the
//!   write-back daemon's 5-second scan walks only the expired prefix
//!   instead of sweeping the whole dirty set.

use std::collections::hash_map::Entry;
use std::ops::{Index, IndexMut};

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

/// A dirty block's state: what writing it back sends and what losing
/// it destroys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyState {
    /// When the block became dirty: the start of its dirty episode.
    pub dirty_since: SimTime,
    /// When the block was last written by an application.
    pub last_write: SimTime,
    /// Application bytes accumulated in the block since it became
    /// dirty: what cancelling the block, or losing it in a crash,
    /// destroys.
    pub dirty_app_bytes: u64,
}

impl DirtyState {
    /// Time since the last application write — the write-back queue
    /// dwell the observability layer records when the block is cleaned.
    pub fn dwell(&self, now: SimTime) -> SimDuration {
        now.since(self.last_write)
    }
}

/// Per-block cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Last reference time (LRU key).
    pub last_ref: SimTime,
    /// The current dirty episode, while the block holds data not yet
    /// written to the server.
    pub dirty: Option<DirtyState>,
}

/// Sentinel for "no slab entry".
const NIL: u32 = u32::MAX;

/// log2 of the blocks per group.
const GROUP_SHIFT: u32 = 6;
/// Blocks per group: one bit each in [`Group::present`].
const GROUP_BLOCKS: usize = 1 << GROUP_SHIFT;
/// A slot's position within its group, in [`Slot::home`].
const POSITION: u32 = GROUP_BLOCKS as u32 - 1;

/// Block `index`'s position within its group.
#[inline]
fn position(index: u64) -> usize {
    (index & u64::from(POSITION)) as usize
}

/// A slot's [`Slot::home`]: group slab index `g`, position `b`.
#[inline]
fn home(g: u32, b: usize) -> u32 {
    u32::try_from((u64::from(g) << GROUP_SHIFT) | b as u64)
        .expect("group slab index fits in 26 bits")
}

/// Links of one intrusive list.
#[derive(Debug, Clone, Copy)]
struct Links {
    prev: u32,
    next: u32,
}

impl Links {
    const NONE: Links = Links {
        prev: NIL,
        next: NIL,
    };
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

/// A slab entry threaded on an intrusive list.
trait Linked {
    fn links(&self) -> Links;
    fn links_mut(&mut self) -> &mut Links;
}

/// Unlinks entry `i` from the list ending at `ends`.
#[inline]
fn unlink<T: Linked>(slab: &mut Slab<T>, ends: &mut Ends, i: u32) {
    let Links { prev, next } = slab[i].links();
    if prev != NIL {
        slab[prev].links_mut().next = next;
    } else {
        ends.head = next;
    }
    if next != NIL {
        slab[next].links_mut().prev = prev;
    } else {
        ends.tail = prev;
    }
}

/// Links entry `i` at the tail of the list ending at `ends`.
#[inline]
fn push_back<T: Linked>(slab: &mut Slab<T>, ends: &mut Ends, i: u32) {
    let tail = ends.tail;
    *slab[i].links_mut() = Links {
        prev: tail,
        next: NIL,
    };
    if tail != NIL {
        slab[tail].links_mut().next = i;
    } else {
        ends.head = i;
    }
    ends.tail = i;
}

/// Unlinks dirty record `r` from the dirty list ending at `list` and
/// frees it, returning its state. The caller clears the slot's link and
/// the group's dirty bit.
#[inline]
fn drop_dirty(dirty: &mut Slab<DirtyRec>, list: &mut Ends, r: u32) -> DirtyState {
    unlink(dirty, list, r);
    dirty.release(r);
    dirty[r].state
}

/// Entries addressed by `u32`, with freed entries reused last-freed
/// first.
#[derive(Debug)]
struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `item`, returning its index.
    fn alloc(&mut self, item: T) -> u32 {
        if let Some(i) = self.free.pop() {
            self.items[i as usize] = item;
            return i;
        }
        let i = u32::try_from(self.items.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("slab index fits in u32");
        self.items.push(item);
        i
    }

    /// Frees entry `i` for reuse; its contents stay until then.
    fn release(&mut self, i: u32) {
        self.free.push(i);
    }

    /// Number of entries in use.
    fn live(&self) -> usize {
        self.items.len() - self.free.len()
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: u32) -> &T {
        &self.items[i as usize]
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, i: u32) -> &mut T {
        &mut self.items[i as usize]
    }
}

/// One cached block.
#[derive(Debug, Clone, Copy)]
struct Slot {
    last_ref: SimTime,
    /// Links on the LRU list.
    lru: Links,
    /// Group slab index << 6 | position in the group.
    home: u32,
    /// The block's [`DirtyRec`]; `NIL` while clean.
    dirty: u32,
}

impl Linked for Slot {
    fn links(&self) -> Links {
        self.lru
    }
    fn links_mut(&mut self) -> &mut Links {
        &mut self.lru
    }
}

/// The slots of 64 consecutive blocks of one file.
#[derive(Debug, Clone)]
struct Group {
    file: FileId,
    /// Block index / 64.
    number: u64,
    /// Slot of block `number * 64 + b` at position `b`; `NIL` if absent.
    slots: [u32; GROUP_BLOCKS],
    /// Bit `b` set ⇔ block `number * 64 + b` is cached.
    present: u64,
    /// Bit `b` set ⇔ block `number * 64 + b` is dirty.
    dirty: u64,
}

impl Group {
    /// Block index of position `b`.
    #[inline]
    fn index(&self, b: usize) -> u64 {
        (self.number << GROUP_SHIFT) | b as u64
    }
}

/// One dirty block's state and its place on the dirty list.
#[derive(Debug, Clone)]
struct DirtyRec {
    state: DirtyState,
    links: Links,
    /// The dirty block's slot.
    slot: u32,
}

impl Linked for DirtyRec {
    fn links(&self) -> Links {
        self.links
    }
    fn links_mut(&mut self) -> &mut Links {
        &mut self.links
    }
}

/// An LRU block cache.
#[derive(Debug, Default)]
pub struct BlockCache {
    /// `(file, index / 64)` → the group's slab index.
    index: FastMap<(FileId, u64), u32>,
    /// Each file's groups, by ascending group number.
    files: FastMap<FileId, Vec<u32>>,
    groups: Slab<Group>,
    slots: Slab<Slot>,
    dirty: Slab<DirtyRec>,
    /// Ends of the LRU list (slots, least recently used first).
    lru: Ends,
    /// Ends of the dirty list (dirty records, earliest `dirty_since`
    /// first).
    dirty_list: Ends,
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        BlockCache::default()
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.slots.live()
    }

    /// Returns `true` when no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dirty blocks.
    pub fn dirty_len(&self) -> usize {
        self.dirty.live()
    }

    /// Slot holding `key`, if cached.
    #[inline]
    fn slot_of(&self, key: BlockKey) -> Option<u32> {
        let g = *self.index.get(&(key.file, key.index >> GROUP_SHIFT))?;
        let i = self.groups[g].slots[position(key.index)];
        (i != NIL).then_some(i)
    }

    /// The key of the block in slot `i`.
    fn key_of(&self, i: u32) -> BlockKey {
        let home = self.slots[i].home;
        let group = &self.groups[home >> GROUP_SHIFT];
        BlockKey {
            file: group.file,
            index: group.index((home & POSITION) as usize),
        }
    }

    /// Returns `true` if `key` is cached.
    pub fn contains(&self, key: BlockKey) -> bool {
        self.slot_of(key).is_some()
    }

    /// Returns the state of `key`, if cached.
    pub fn get(&self, key: BlockKey) -> Option<BlockEntry> {
        let slot = self.slots[self.slot_of(key)?];
        Some(BlockEntry {
            last_ref: slot.last_ref,
            dirty: (slot.dirty != NIL).then(|| self.dirty[slot.dirty].state),
        })
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
        self.slots[i].last_ref = now;
        if self.lru.tail != i {
            unlink(&mut self.slots, &mut self.lru, i);
            push_back(&mut self.slots, &mut self.lru, i);
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
        let number = key.index >> GROUP_SHIFT;
        let b = position(key.index);
        let g = match self.index.entry((key.file, number)) {
            Entry::Occupied(occ) => *occ.get(),
            Entry::Vacant(vac) => {
                let g = self.groups.alloc(Group {
                    file: key.file,
                    number,
                    slots: [NIL; GROUP_BLOCKS],
                    present: 0,
                    dirty: 0,
                });
                vac.insert(g);
                let groups = &self.groups;
                let list = self.files.entry(key.file).or_default();
                let at = list.partition_point(|&n| groups[n].number < number);
                list.insert(at, g);
                g
            }
        };
        let i = self.groups[g].slots[b];
        if i != NIL {
            // Already present: insert degrades to a touch.
            self.touch_at(i, now);
            return i;
        }
        let i = self.slots.alloc(Slot {
            last_ref: now,
            lru: Links::NONE,
            home: home(g, b),
            dirty: NIL,
        });
        let group = &mut self.groups[g];
        group.slots[b] = i;
        group.present |= 1 << b;
        push_back(&mut self.slots, &mut self.lru, i);
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
    /// dirty episode (a record on the dirty list) if it was clean.
    fn dirty_at(&mut self, i: u32, now: SimTime, app_bytes: u64) {
        let mut r = self.slots[i].dirty;
        if r == NIL {
            let tail = self.dirty_list.tail;
            debug_assert!(
                tail == NIL || self.dirty[tail].state.dirty_since <= now,
                "dirty times must not decrease"
            );
            r = self.dirty.alloc(DirtyRec {
                state: DirtyState {
                    dirty_since: now,
                    last_write: now,
                    dirty_app_bytes: 0,
                },
                links: Links::NONE,
                slot: i,
            });
            push_back(&mut self.dirty, &mut self.dirty_list, r);
            let slot = &mut self.slots[i];
            slot.dirty = r;
            self.groups[slot.home >> GROUP_SHIFT].dirty |= 1 << (slot.home & POSITION);
        }
        let state = &mut self.dirty[r].state;
        state.last_write = now;
        state.dirty_app_bytes += app_bytes;
    }

    /// Cleans `key` (its data reached the server), returning its dirty
    /// state just before cleaning; `None` if it is absent or clean.
    pub fn clean(&mut self, key: BlockKey) -> Option<DirtyState> {
        let i = self.slot_of(key)?;
        let slot = &mut self.slots[i];
        if slot.dirty == NIL {
            return None;
        }
        let r = std::mem::replace(&mut slot.dirty, NIL);
        self.groups[slot.home >> GROUP_SHIFT].dirty &= !(1 << (slot.home & POSITION));
        Some(drop_dirty(&mut self.dirty, &mut self.dirty_list, r))
    }

    /// Cleans every dirty block of `file`, returning each one's index
    /// and its dirty state just before cleaning, in index order.
    pub fn clean_file(&mut self, file: FileId) -> Vec<(u64, DirtyState)> {
        let mut out = Vec::new();
        let Some(list) = self.files.get(&file) else {
            return out;
        };
        for &g in list {
            let group = &mut self.groups[g];
            let mut mask = std::mem::take(&mut group.dirty);
            while mask != 0 {
                let b = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let r = std::mem::replace(&mut self.slots[group.slots[b]].dirty, NIL);
                let state = drop_dirty(&mut self.dirty, &mut self.dirty_list, r);
                out.push((group.index(b), state));
            }
        }
        out
    }

    /// Removes every cached block of `file`, returning each one's index
    /// and final state, in index order.
    pub fn remove_file(&mut self, file: FileId) -> Vec<(u64, BlockEntry)> {
        let Some(list) = self.files.remove(&file) else {
            return Vec::new();
        };
        let blocks: u32 = list
            .iter()
            .map(|&g| self.groups[g].present.count_ones())
            .sum();
        let mut out = Vec::with_capacity(blocks as usize);
        for g in list {
            let group = &mut self.groups[g];
            self.index.remove(&(file, group.number));
            let mut mask = std::mem::take(&mut group.present);
            group.dirty = 0;
            while mask != 0 {
                let b = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let i = std::mem::replace(&mut group.slots[b], NIL);
                let Slot {
                    last_ref, dirty, ..
                } = self.slots[i];
                unlink(&mut self.slots, &mut self.lru, i);
                self.slots.release(i);
                let dirty = (dirty != NIL)
                    .then(|| drop_dirty(&mut self.dirty, &mut self.dirty_list, dirty));
                out.push((group.index(b), BlockEntry { last_ref, dirty }));
            }
            self.groups.release(g);
        }
        out
    }

    /// Removes and returns the least-recently-used block.
    pub fn pop_lru(&mut self) -> Option<(BlockKey, BlockEntry)> {
        let i = self.lru.head;
        if i == NIL {
            return None;
        }
        let Slot {
            last_ref,
            home,
            dirty,
            ..
        } = self.slots[i];
        unlink(&mut self.slots, &mut self.lru, i);
        self.slots.release(i);
        let dirty =
            (dirty != NIL).then(|| drop_dirty(&mut self.dirty, &mut self.dirty_list, dirty));
        let (g, b) = (home >> GROUP_SHIFT, (home & POSITION) as usize);
        let group = &mut self.groups[g];
        let key = BlockKey {
            file: group.file,
            index: group.index(b),
        };
        group.slots[b] = NIL;
        group.present &= !(1 << b);
        group.dirty &= !(1 << b);
        if group.present == 0 {
            self.drop_group(g);
        }
        Some((key, BlockEntry { last_ref, dirty }))
    }

    /// Frees empty group `g`, unfiling it from the index and from its
    /// file's list.
    fn drop_group(&mut self, g: u32) {
        let (file, number) = (self.groups[g].file, self.groups[g].number);
        self.index.remove(&(file, number));
        let groups = &self.groups;
        let list = self
            .files
            .get_mut(&file)
            .expect("a live group is listed under its file");
        let at = list
            .binary_search_by_key(&number, |&n| groups[n].number)
            .expect("a live group is listed under its file");
        list.remove(at);
        if list.is_empty() {
            self.files.remove(&file);
        }
        self.groups.release(g);
    }

    /// The files with at least one cached block, sorted.
    pub(crate) fn files(&self) -> Vec<FileId> {
        let mut files: Vec<FileId> = self.files.keys().copied().collect();
        files.sort_unstable();
        files
    }

    /// Whether `file` has a dirty block: a test of its groups' dirty
    /// masks.
    pub(crate) fn has_dirty(&self, file: FileId) -> bool {
        self.files
            .get(&file)
            .is_some_and(|list| list.iter().any(|&g| self.groups[g].dirty != 0))
    }

    /// Application bytes held dirty across the cache: what a crash
    /// right now would destroy. Walks only the dirty list.
    pub(crate) fn dirty_app_bytes(&self) -> u64 {
        let mut bytes = 0;
        let mut r = self.dirty_list.head;
        while r != NIL {
            let rec = &self.dirty[r];
            bytes += rec.state.dirty_app_bytes;
            r = rec.links.next;
        }
        bytes
    }

    /// Files that have at least one block dirty since `cutoff` or
    /// earlier, sorted and deduplicated — the write-back daemon's scan
    /// ("all dirty blocks for a file are written if any block of the
    /// file has been dirty for 30 seconds"). Walks only the expired
    /// prefix of the dirty list, so an idle tick is O(1).
    pub fn files_with_dirty_before(&self, cutoff: SimTime) -> Vec<FileId> {
        let mut out = Vec::new();
        let mut r = self.dirty_list.head;
        while r != NIL {
            let rec = &self.dirty[r];
            if rec.state.dirty_since > cutoff {
                break;
            }
            out.push(self.groups[self.slots[rec.slot].home >> GROUP_SHIFT].file);
            r = rec.links.next;
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
        let head = self.dirty_list.head;
        if head == NIL {
            return None;
        }
        let since = self.dirty[head].state.dirty_since;
        let mut oldest = self.key_of(self.dirty[head].slot);
        let mut r = self.dirty[head].links.next;
        while r != NIL {
            let rec = &self.dirty[r];
            if rec.state.dirty_since != since {
                break;
            }
            oldest = oldest.min(self.key_of(rec.slot));
            r = rec.links.next;
        }
        Some((since, oldest))
    }

    /// Cross-checks every internal index and returns the first
    /// inconsistency found:
    ///
    /// * the index names exactly the live groups, each under its own
    ///   `(file, number)`, and each file's list names exactly its live
    ///   groups, in ascending order;
    /// * each live group's present mask matches its slot numbers, and
    ///   each slot names the group position that names it;
    /// * each dirty slot's record names that slot, and each group's
    ///   dirty mask marks exactly its blocks with a record;
    /// * every free list names distinct entries that nothing live uses,
    ///   and live plus free entries fill each slab;
    /// * the LRU list threads exactly the cached slots in non-decreasing
    ///   `last_ref` order, and the dirty list exactly the dirty records
    ///   in non-decreasing `dirty_since` order.
    ///
    /// O(n); used by the sanitizer's deep audit.
    pub fn audit(&self) -> Result<(), String> {
        // Index ⇔ group slab.
        let mut live_groups = vec![false; self.groups.items.len()];
        for (&(file, number), &g) in &self.index {
            match self.groups.items.get(g as usize) {
                Some(group)
                    if group.file == file
                        && group.number == number
                        && !std::mem::replace(&mut live_groups[g as usize], true) => {}
                _ => {
                    return Err(format!(
                        "index maps group {number} of {file:?} to slab entry {g}, not its own"
                    ))
                }
            }
        }
        // Groups ⇔ slots ⇔ dirty records.
        let mut live_slots = vec![false; self.slots.items.len()];
        let mut live_recs = vec![false; self.dirty.items.len()];
        for (g, group) in self.groups.items.iter().enumerate() {
            if !live_groups[g] {
                continue;
            }
            let (file, number) = (group.file, group.number);
            if group.present == 0 {
                return Err(format!("empty group {number} of {file:?} kept"));
            }
            for (b, &i) in group.slots.iter().enumerate() {
                let bit = 1u64 << b;
                if (i != NIL) != (group.present & bit != 0) {
                    return Err(format!("group {number} of {file:?}: mask disagrees at {b}"));
                }
                if i == NIL {
                    if group.dirty & bit != 0 {
                        return Err(format!(
                            "group {number} of {file:?}: absent {b} marked dirty"
                        ));
                    }
                    continue;
                }
                let key = BlockKey {
                    file,
                    index: group.index(b),
                };
                let slot = match self.slots.items.get(i as usize) {
                    Some(slot)
                        if u64::from(slot.home) == ((g as u64) << GROUP_SHIFT) | b as u64
                            && !std::mem::replace(&mut live_slots[i as usize], true) =>
                    {
                        slot
                    }
                    _ => return Err(format!("{key:?} maps to slot {i}, not its own")),
                };
                let r = slot.dirty;
                if (r != NIL) != (group.dirty & bit != 0) {
                    return Err(format!("dirty mask disagrees with the record of {key:?}"));
                }
                if r == NIL {
                    continue;
                }
                match self.dirty.items.get(r as usize) {
                    Some(rec)
                        if rec.slot == i
                            && !std::mem::replace(&mut live_recs[r as usize], true) => {}
                    _ => return Err(format!("{key:?} names dirty record {r}, not its own")),
                }
            }
        }
        // Per-file group lists ⇔ live groups.
        for (file, list) in &self.files {
            let numbers: Option<Vec<u64>> = list
                .iter()
                .map(|&g| {
                    let group = self.groups.items.get(g as usize)?;
                    (live_groups[g as usize] && group.file == *file).then_some(group.number)
                })
                .collect();
            match numbers {
                Some(n) if !n.is_empty() && n.windows(2).all(|w| w[0] < w[1]) => {}
                _ => {
                    return Err(format!(
                        "group list of {file:?} is empty, unsorted or names another file's group"
                    ))
                }
            }
        }
        let listed: usize = self.files.values().map(Vec::len).sum();
        if listed != self.index.len() {
            return Err(format!(
                "file lists name {listed} groups, index holds {}",
                self.index.len()
            ));
        }
        // Free lists ⇔ live entries.
        audit_free("group", &self.groups.free, &live_groups)?;
        audit_free("slot", &self.slots.free, &live_slots)?;
        audit_free("dirty record", &self.dirty.free, &live_recs)?;
        // Lists ⇔ live entries.
        let lru = audit_list("LRU", &self.slots, self.lru, &live_slots, |s| s.last_ref)?;
        if lru != self.len() {
            return Err(format!(
                "LRU list threads {lru} slots, cache holds {}",
                self.len()
            ));
        }
        let dirty = audit_list("dirty", &self.dirty, self.dirty_list, &live_recs, |r| {
            r.state.dirty_since
        })?;
        if dirty != self.dirty_len() {
            return Err(format!(
                "dirty list threads {dirty} records, cache holds {}",
                self.dirty_len()
            ));
        }
        Ok(())
    }
}

/// Checks that `free` names distinct in-range entries that are not
/// `live`, and that live and free entries together fill the slab.
fn audit_free(name: &str, free: &[u32], live: &[bool]) -> Result<(), String> {
    let mut listed = vec![false; live.len()];
    for &i in free {
        match live.get(i as usize) {
            Some(false) if !std::mem::replace(&mut listed[i as usize], true) => {}
            _ => {
                return Err(format!(
                    "free {name} {i} is live, listed twice or out of range"
                ))
            }
        }
    }
    let live_n = live.iter().filter(|&&l| l).count();
    if live_n + free.len() != live.len() {
        return Err(format!(
            "{name} slab leaks: {live_n} live and {} free of {}",
            free.len(),
            live.len()
        ));
    }
    Ok(())
}

/// Walks the list ending at `ends` from head to tail, checking
/// back-links, that each threaded entry is `live`, and that `time`
/// never decreases. Returns the length.
fn audit_list<T: Linked>(
    name: &str,
    slab: &Slab<T>,
    ends: Ends,
    live: &[bool],
    time: fn(&T) -> SimTime,
) -> Result<usize, String> {
    let mut walked = 0usize;
    let mut prev = NIL;
    let mut prev_time: Option<SimTime> = None;
    let mut i = ends.head;
    while i != NIL {
        if !live.get(i as usize).is_some_and(|&l| l) {
            return Err(format!("{name} list threads dead entry {i}"));
        }
        let item = &slab[i];
        let links = item.links();
        if links.prev != prev {
            return Err(format!("{name} back-link broken at entry {i}"));
        }
        let t = time(item);
        if prev_time.is_some_and(|p| t < p) {
            return Err(format!("{name} order violated at entry {i}"));
        }
        prev_time = Some(t);
        prev = i;
        i = links.next;
        walked += 1;
        if walked > live.len() {
            return Err(format!("{name} list cycles"));
        }
    }
    if ends.tail != prev {
        return Err(format!("{name} tail does not end the list"));
    }
    Ok(walked)
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

    fn dirty(since: u64, last_write: u64, bytes: u64) -> DirtyState {
        DirtyState {
            dirty_since: t(since),
            last_write: t(last_write),
            dirty_app_bytes: bytes,
        }
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
        let (popped, entry) = c.pop_lru().expect("non-empty");
        assert_eq!(popped, key(1, 1));
        assert_eq!(entry.last_ref, t(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.pop_lru().map(|(k, _)| k), Some(key(2, 0)));
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
        // The first dirtying sets the clock.
        assert_eq!(entry.dirty, Some(dirty(2, 3, 150)));

        let before = c.clean(key(1, 0)).expect("was dirty");
        assert_eq!(before, dirty(2, 3, 150));
        assert_eq!(c.dirty_len(), 0);
        assert_eq!(c.get(key(1, 0)).expect("cached").dirty, None);
        assert!(c.clean(key(1, 0)).is_none(), "already clean");
        // Dirtying again restarts the episode.
        c.mark_dirty(key(1, 0), t(10), 7);
        assert_eq!(
            c.get(key(1, 0)).expect("cached").dirty,
            Some(dirty(10, 10, 7))
        );
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
        c.insert(key(7, 100), t(1));
        c.insert(key(7, 1), t(1));
        c.insert(key(8, 0), t(1));
        c.mark_dirty(key(7, 100), t(2), 5);
        c.mark_dirty(key(7, 1), t(3), 1);
        c.mark_dirty(key(8, 0), t(3), 9);
        assert!(c.has_dirty(FileId(7)));
        assert_eq!(
            c.clean_file(FileId(7)),
            vec![(1, dirty(3, 3, 1)), (100, dirty(2, 2, 5))],
            "index order, not dirty order"
        );
        assert!(!c.has_dirty(FileId(7)));
        assert!(c.clean_file(FileId(7)).is_empty(), "already clean");
        assert_eq!(c.dirty_len(), 1);
        assert_eq!(c.len(), 4);
        let clean = |last_ref| BlockEntry {
            last_ref: t(last_ref),
            dirty: None,
        };
        assert_eq!(
            c.remove_file(FileId(7)),
            vec![(1, clean(3)), (3, clean(1)), (100, clean(2))]
        );
        assert!(c.remove_file(FileId(7)).is_empty());
        assert!(c.remove_file(FileId(9)).is_empty());
        assert_eq!(c.files(), vec![FileId(8)]);
        assert_eq!(c.audit(), Ok(()));
    }

    #[test]
    fn remove_returns_state() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.mark_dirty(key(1, 0), t(2), 42);
        c.insert(key(1, 64), t(3));
        let removed = c.remove_file(FileId(1));
        assert_eq!(
            removed,
            vec![
                (
                    0,
                    BlockEntry {
                        last_ref: t(2),
                        dirty: Some(dirty(2, 2, 42)),
                    }
                ),
                (
                    64,
                    BlockEntry {
                        last_ref: t(3),
                        dirty: None,
                    }
                ),
            ]
        );
        assert!(c.is_empty());
        assert_eq!(c.dirty_len(), 0);
        assert_eq!(c.audit(), Ok(()));
    }

    #[test]
    fn reinsert_touches() {
        let mut c = BlockCache::new();
        c.insert(key(1, 0), t(1));
        c.insert(key(2, 0), t(2));
        c.insert(key(1, 0), t(3)); // re-insert acts as touch
        assert_eq!(c.len(), 2);
        let (lru, _) = c.pop_lru().expect("non-empty");
        assert_eq!(lru, key(2, 0));
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut c = BlockCache::new();
        for round in 0..4u64 {
            for i in 0..8u64 {
                c.insert(key(1, i), t(round * 10 + i));
                c.mark_dirty(key(1, i), t(round * 10 + i), 1);
            }
            if round % 2 == 0 {
                c.remove_file(FileId(1));
            } else {
                while c.pop_lru().is_some() {}
            }
        }
        assert!(c.is_empty());
        assert!(
            c.slots.items.len() <= 8,
            "slots reused, got {}",
            c.slots.items.len()
        );
        assert!(
            c.dirty.items.len() <= 8,
            "records reused, got {}",
            c.dirty.items.len()
        );
        assert_eq!(c.groups.items.len(), 1, "the group's entry reused");
        assert_eq!(c.audit(), Ok(()));
    }

    /// A cached block costs one 24-byte slot; only a dirty block owns a
    /// dirty record, and cleaning it gives the record back.
    #[test]
    fn slot_is_24_bytes_and_clean_blocks_own_no_dirty_record() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
        let mut c = BlockCache::new();
        for i in 0..4 {
            c.insert(key(1, i), t(1));
        }
        assert_eq!(c.dirty.live(), 0, "clean blocks own no dirty record");
        c.mark_dirty(key(1, 2), t(2), 10);
        assert_eq!(c.dirty.live(), 1);
        c.clean(key(1, 2));
        assert_eq!(c.dirty.live(), 0);
        assert!(c.slots.items.iter().all(|s| s.dirty == NIL));
    }

    #[test]
    fn audit_catches_corrupted_indexes() {
        let build = || {
            let mut c = BlockCache::new();
            for i in 0..3u64 {
                c.insert(key(1, i * 64), t(i));
                c.mark_dirty(key(1, i * 64), t(i), 1);
            }
            c.insert(key(1, 1), t(4)); // a clean block in group 0
            c.insert(key(3, 0), t(5));
            c.mark_dirty(key(3, 0), t(5), 1);
            c.clean(key(3, 0)); // a freed dirty record
            c.insert(key(2, 0), t(6));
            c.insert(key(2, 1), t(7));
            c.remove_file(FileId(2)); // a freed group, two freed slots
            assert_eq!(c.audit(), Ok(()));
            c
        };
        fn group_of(c: &BlockCache, n: u64) -> u32 {
            c.index[&(FileId(1), n)]
        }
        fn slot_of(c: &BlockCache, k: BlockKey) -> u32 {
            c.slot_of(k).expect("cached")
        }
        type Corruption = (&'static str, fn(&mut BlockCache));
        let corruptions: [Corruption; 16] = [
            // The index agrees with the group slab.
            ("index names another group", |c| {
                let g = group_of(c, 1);
                *c.index.get_mut(&(FileId(1), 0)).expect("indexed") = g;
            }),
            ("group entry renumbered", |c| {
                let g = group_of(c, 2);
                c.groups[g].number = 7;
            }),
            ("index names a freed group", |c| {
                let g = c.groups.free[0];
                c.index.insert((FileId(1), 9), g);
            }),
            // Each slot agrees with its group position.
            ("position names another block's slot", |c| {
                let g = group_of(c, 0);
                c.groups[g].slots[0] = c.groups[g].slots[1];
            }),
            ("mask bit without a slot", |c| {
                let g = group_of(c, 1);
                c.groups[g].present |= 2;
            }),
            ("slot's home moved", |c| {
                let i = slot_of(c, key(1, 64));
                c.slots[i].home += 1;
            }),
            // Each dirty record agrees with its slot.
            ("record names another slot", |c| {
                let r = c.slots[slot_of(c, key(1, 0))].dirty;
                c.dirty[r].slot = slot_of(c, key(1, 1));
            }),
            ("two slots share a record", |c| {
                let r = c.slots[slot_of(c, key(1, 0))].dirty;
                let i = slot_of(c, key(1, 64));
                c.slots[i].dirty = r;
            }),
            // The dirty masks agree with the records.
            ("dirty bit without a record", |c| {
                let g = group_of(c, 0);
                c.groups[g].dirty |= 2;
            }),
            ("record without a dirty bit", |c| {
                let g = group_of(c, 2);
                c.groups[g].dirty = 0;
            }),
            // The free lists are disjoint from live entries.
            ("live slot on the free list", |c| {
                let i = slot_of(c, key(1, 1));
                c.slots.free.push(i);
            }),
            ("live record on the free list", |c| {
                let r = c.slots[slot_of(c, key(1, 0))].dirty;
                c.dirty.free.push(r);
            }),
            ("live group on the free list", |c| {
                let g = group_of(c, 0);
                c.groups.free.push(g);
            }),
            // The file lists and the two intrusive lists.
            ("unsorted group list", |c| {
                c.files.get_mut(&FileId(1)).expect("listed").swap(0, 1);
            }),
            ("dirty list ends early", |c| {
                c.dirty_list.tail = c.dirty_list.head;
            }),
            ("LRU back-link broken", |c| {
                let tail = c.lru.tail;
                c.slots[tail].lru.prev = NIL;
            }),
        ];
        for (what, corrupt) in corruptions {
            let mut c = build();
            corrupt(&mut c);
            assert!(c.audit().is_err(), "audit missed: {what}");
        }
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
