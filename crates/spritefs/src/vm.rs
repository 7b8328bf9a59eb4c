//! Per-client physical memory management: the file cache ↔ virtual
//! memory page trade.
//!
//! Sprite's file caches "vary in size depending on the needs of the file
//! system and the virtual memory system", with VM receiving preference: a
//! page used for virtual memory cannot be converted to a file cache page
//! unless it has been unreferenced for at least 20 minutes (Section 5).
//! [`MemoryManager`] implements that accounting:
//!
//! * The file cache grows one page at a time, first from free memory,
//!   then from VM pages idle past the preference window; otherwise it
//!   must evict one of its own blocks.
//! * The VM system grows by reusing its own idle pages, then free
//!   memory, and finally by taking pages from the file cache (LRU blocks,
//!   evicted immediately — no waiting period in that direction).
//! * Code pages of exited programs are *retained* among the idle VM pages
//!   and re-used by new invocations of the same program, until the pages
//!   are reclaimed or the retention window passes.

use std::collections::VecDeque;

use sdfs_simkit::FastMap;

use sdfs_simkit::SimTime;
use sdfs_trace::FileId;

use crate::config::{BLOCK_SIZE, CODE_RETENTION, VM_PREFERENCE_WINDOW};

/// How a file-cache page request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FcGrant {
    /// A free physical page was available.
    FromFree,
    /// A VM page idle past the preference window was converted.
    FromIdleVm,
    /// No page available: the cache must evict one of its own blocks.
    MustEvict,
}

/// Physical-page accounting for one client workstation.
#[derive(Debug)]
pub struct MemoryManager {
    total_pages: u64,
    reserved_pages: u64,
    /// Pages currently owned by the VM system (active + idle).
    vm_pages: u64,
    /// Pages owned by the file cache (mirrors the block cache size).
    fc_pages: u64,
    /// Idle VM pages in release order: (released_at, count).
    idle: VecDeque<(SimTime, u64)>,
    idle_total: u64,
    /// Retained code pages by executable: (pages, last_exit).
    retained: FastMap<FileId, (u64, SimTime)>,
    retained_total: u64,
}

impl MemoryManager {
    /// Creates a manager for a machine with `total_bytes` of memory, of
    /// which `reserved_bytes` is kernel/fixed, in [`BLOCK_SIZE`] pages.
    pub fn new(total_bytes: u64, reserved_bytes: u64) -> Self {
        assert!(reserved_bytes < total_bytes, "reservation exceeds memory");
        MemoryManager {
            total_pages: total_bytes / BLOCK_SIZE,
            reserved_pages: reserved_bytes / BLOCK_SIZE,
            vm_pages: 0,
            fc_pages: 0,
            idle: VecDeque::new(),
            idle_total: 0,
            retained: FastMap::default(),
            retained_total: 0,
        }
    }

    /// Pages not owned by anyone.
    pub fn free_pages(&self) -> u64 {
        self.total_pages
            .saturating_sub(self.reserved_pages)
            .saturating_sub(self.vm_pages)
            .saturating_sub(self.fc_pages)
    }

    /// Current file-cache size in pages.
    pub fn fc_pages(&self) -> u64 {
        self.fc_pages
    }

    /// Current VM holding in pages (active plus idle).
    pub fn vm_pages(&self) -> u64 {
        self.vm_pages
    }

    /// Idle VM pages awaiting reuse or reclamation.
    pub fn idle_vm_pages(&self) -> u64 {
        self.idle_total
    }

    /// The file cache asks for one page (to cache a new block).
    pub fn fc_acquire(&mut self, now: SimTime) -> FcGrant {
        if self.free_pages() > 0 {
            self.fc_pages += 1;
            return FcGrant::FromFree;
        }
        // VM preference: only idle-past-window pages may be converted.
        if let Some(&(since, _)) = self.idle.front() {
            if now.since(since) >= VM_PREFERENCE_WINDOW {
                self.consume_idle_oldest(1);
                self.vm_pages -= 1;
                self.fc_pages += 1;
                return FcGrant::FromIdleVm;
            }
        }
        FcGrant::MustEvict
    }

    /// The file cache dropped `n` blocks (invalidate, delete, or eviction
    /// where the page returns to the free pool).
    pub fn fc_release(&mut self, n: u64) {
        debug_assert!(self.fc_pages >= n, "releasing more FC pages than held");
        self.fc_pages = self.fc_pages.saturating_sub(n);
    }

    /// The VM system needs `n` pages for processes. Reuses idle VM pages
    /// and free memory first; returns the number of pages the caller must
    /// evict from the file cache (which should then call
    /// [`MemoryManager::steal_from_fc`] for each).
    pub fn vm_acquire(&mut self, n: u64) -> u64 {
        let mut need = n;
        // Reuse idle VM pages (newest first — most likely still warm).
        let reuse = need.min(self.idle_total);
        if reuse > 0 {
            self.consume_idle_newest(reuse);
            need -= reuse;
        }
        // Then free memory.
        let free = self.free_pages().min(need);
        self.vm_pages += free;
        need -= free;
        // The remainder must come from the file cache.
        need
    }

    /// Transfers one page from the file cache to VM (after the caller
    /// evicted an LRU block).
    pub fn steal_from_fc(&mut self) {
        debug_assert!(self.fc_pages > 0, "stealing from empty file cache");
        self.fc_pages = self.fc_pages.saturating_sub(1);
        self.vm_pages += 1;
    }

    /// Grows the VM holding without a physical page (overcommit): used
    /// when demand exceeds physical memory and the file cache has
    /// nothing left to give. Real Sprite would be paging hard here; the
    /// workload models that traffic explicitly through backing files.
    pub fn force_grow(&mut self, n: u64) {
        self.vm_pages += n;
    }

    /// The VM system released `n` pages (process exit); they become idle
    /// but remain VM-owned until reclaimed.
    pub fn vm_release(&mut self, now: SimTime, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(
            self.vm_pages >= self.idle_total + n,
            "releasing more VM pages than active"
        );
        self.idle.push_back((now, n));
        self.idle_total += n;
    }

    /// Records that `pages` of code for `exec` remain in (idle) memory
    /// after exit, reusable by a future invocation.
    pub fn retain_code(&mut self, exec: FileId, pages: u64, now: SimTime) {
        if pages == 0 {
            return;
        }
        let entry = self.retained.entry(exec).or_insert((0, now));
        // Keep the larger footprint; refresh the timestamp.
        entry.0 = entry.0.max(pages);
        entry.1 = now;
        self.recompute_retained_total();
        self.trim_retained();
    }

    /// Checks whether a new invocation of `exec` can reuse retained code
    /// pages. On a hit the pages move back to active VM use and the
    /// retained entry is consumed; returns the number of pages reused.
    pub fn code_hit(&mut self, exec: FileId, now: SimTime) -> u64 {
        let Some(&(pages, last_exit)) = self.retained.get(&exec) else {
            return 0;
        };
        if now.since(last_exit) > CODE_RETENTION {
            self.retained.remove(&exec);
            self.recompute_retained_total();
            return 0;
        }
        // The pages were idle; pull them back into active use.
        let reclaim = pages.min(self.idle_total);
        self.consume_idle_newest(reclaim);
        self.retained.remove(&exec);
        self.recompute_retained_total();
        reclaim
    }

    fn consume_idle_oldest(&mut self, mut n: u64) {
        while n > 0 {
            let Some(front) = self.idle.front_mut() else {
                break;
            };
            let take = front.1.min(n);
            front.1 -= take;
            self.idle_total -= take;
            n -= take;
            if front.1 == 0 {
                self.idle.pop_front();
            }
        }
        self.trim_retained();
    }

    fn consume_idle_newest(&mut self, mut n: u64) {
        while n > 0 {
            let Some(back) = self.idle.back_mut() else {
                break;
            };
            let take = back.1.min(n);
            back.1 -= take;
            self.idle_total -= take;
            n -= take;
            if back.1 == 0 {
                self.idle.pop_back();
            }
        }
        self.trim_retained();
    }

    fn recompute_retained_total(&mut self) {
        self.retained_total = self.retained.values().map(|&(p, _)| p).sum();
    }

    /// Retained code can only live in idle pages; if idle shrank below
    /// the retained total, drop the oldest-retained programs.
    fn trim_retained(&mut self) {
        while self.retained_total > self.idle_total {
            let Some((&exec, _)) = self
                .retained
                .iter()
                .min_by_key(|(id, &(_, at))| (at, id.raw()))
            else {
                break;
            };
            self.retained.remove(&exec);
            self.recompute_retained_total();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfs_simkit::SimDuration;

    fn mm(total_pages: u64) -> MemoryManager {
        MemoryManager::new(total_pages * BLOCK_SIZE, 0)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn fc_grows_from_free() {
        let mut m = mm(10);
        for _ in 0..10 {
            assert_eq!(m.fc_acquire(t(0)), FcGrant::FromFree);
        }
        assert_eq!(m.fc_pages(), 10);
        assert_eq!(m.free_pages(), 0);
        assert_eq!(m.fc_acquire(t(1)), FcGrant::MustEvict);
    }

    #[test]
    fn vm_preference_window_blocks_young_idle_pages() {
        let mut m = mm(10);
        // VM takes everything, then releases half at t=0.
        assert_eq!(m.vm_acquire(10), 0);
        m.vm_release(t(0), 5);
        // At t=60 s the idle pages are too young for the file cache.
        assert_eq!(m.fc_acquire(t(60)), FcGrant::MustEvict);
        // After 20 minutes they are fair game.
        assert_eq!(m.fc_acquire(t(1300)), FcGrant::FromIdleVm);
        assert_eq!(m.fc_pages(), 1);
        assert_eq!(m.vm_pages(), 9);
    }

    #[test]
    fn vm_steals_from_file_cache_immediately() {
        let mut m = mm(10);
        for _ in 0..10 {
            m.fc_acquire(t(0));
        }
        // VM wants 3 pages; no free, no idle — must come from the cache.
        let steal = m.vm_acquire(3);
        assert_eq!(steal, 3);
        for _ in 0..steal {
            m.steal_from_fc();
        }
        assert_eq!(m.fc_pages(), 7);
        assert_eq!(m.vm_pages(), 3);
    }

    #[test]
    fn vm_reuses_own_idle_first() {
        let mut m = mm(10);
        assert_eq!(m.vm_acquire(6), 0);
        m.vm_release(t(0), 4);
        assert_eq!(m.idle_vm_pages(), 4);
        // New demand of 3 comes entirely from idle; vm total unchanged.
        assert_eq!(m.vm_acquire(3), 0);
        assert_eq!(m.idle_vm_pages(), 1);
        assert_eq!(m.vm_pages(), 6);
    }

    #[test]
    fn code_retention_hit_and_expiry() {
        let mut m = mm(100);
        assert_eq!(m.vm_acquire(20), 0);
        m.vm_release(t(100), 20);
        m.retain_code(FileId(7), 8, t(100));
        // Within the window: hit, pages move back to active.
        let hit = m.code_hit(FileId(7), t(200));
        assert_eq!(hit, 8);
        assert_eq!(m.idle_vm_pages(), 12);
        // Second lookup misses (consumed).
        assert_eq!(m.code_hit(FileId(7), t(201)), 0);

        // Expired retention.
        m.retain_code(FileId(9), 4, t(300));
        let expired = t(300) + CODE_RETENTION + SimDuration::from_secs(1);
        assert_eq!(m.code_hit(FileId(9), expired), 0);
    }

    #[test]
    fn reclaiming_idle_drops_retained_code() {
        let mut m = mm(10);
        assert_eq!(m.vm_acquire(10), 0);
        m.vm_release(t(0), 6);
        m.retain_code(FileId(1), 6, t(0));
        // The file cache reclaims 4 idle pages after the window.
        for _ in 0..4 {
            assert_eq!(m.fc_acquire(t(2000)), FcGrant::FromIdleVm);
        }
        // Only 2 idle pages remain; the 6-page retention is gone.
        assert_eq!(m.idle_vm_pages(), 2);
        assert_eq!(m.code_hit(FileId(1), t(2001)), 0);
    }

    #[test]
    fn fc_release_returns_pages() {
        let mut m = mm(4);
        for _ in 0..4 {
            m.fc_acquire(t(0));
        }
        m.fc_release(2);
        assert_eq!(m.free_pages(), 2);
        assert_eq!(m.fc_acquire(t(1)), FcGrant::FromFree);
    }

    #[test]
    fn reserved_memory_is_untouchable() {
        let m = MemoryManager::new(10 * BLOCK_SIZE, 4 * BLOCK_SIZE);
        assert_eq!(m.free_pages(), 6);
    }
}
