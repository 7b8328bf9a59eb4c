//! The generator's view of the file namespace.
//!
//! The workload generator owns identity allocation: file ids, open
//! handles, and process ids are all handed out here so they are unique
//! across a whole trace. The namespace also tracks the generator's belief
//! about file sizes (which matches the simulator's truth, since only the
//! generator issues writes) — application models need sizes to plan
//! whole-file reads.

use sdfs_trace::{FileId, Handle, Pid};

/// An executable image: the file plus its text/data split and typical
/// heap growth, used for `ProcStart` operations.
#[derive(Debug, Clone, Copy)]
pub struct ExecImage {
    /// The executable file.
    pub file: FileId,
    /// Bytes of program text.
    pub code_bytes: u64,
    /// Bytes of initialized data (faulted from the file at startup).
    pub data_bytes: u64,
    /// Bytes of heap/stack the process typically grows to (memory
    /// pressure only; never read from the file).
    pub heap_bytes: u64,
}

/// Identity allocator and size tracker.
#[derive(Debug, Default)]
pub struct Namespace {
    sizes: Vec<u64>,
    exists: Vec<bool>,
    is_dir: Vec<bool>,
    next_handle: u64,
    next_pid: u32,
    preload: Vec<(FileId, u64, bool)>,
}

impl Namespace {
    /// Creates an empty namespace.
    pub fn new() -> Self {
        Namespace::default()
    }

    /// Allocates a new file id with the given initial size.
    ///
    /// If `preloaded` is set the file is recorded as existing before the
    /// trace starts (it will be installed in the cluster without trace
    /// records); otherwise the caller must emit a `Create` operation.
    pub fn alloc(&mut self, size: u64, is_dir: bool, preloaded: bool) -> FileId {
        let id = FileId(self.sizes.len() as u64);
        self.sizes.push(size);
        self.exists.push(true);
        self.is_dir.push(is_dir);
        if preloaded {
            self.preload.push((id, size, is_dir));
        }
        id
    }

    /// Allocates a trace-unique open handle.
    pub fn alloc_handle(&mut self) -> Handle {
        let h = Handle(self.next_handle);
        self.next_handle += 1;
        h
    }

    /// Allocates a trace-unique process id.
    pub fn alloc_pid(&mut self) -> Pid {
        let p = Pid(self.next_pid);
        self.next_pid += 1;
        p
    }

    /// The believed size of `file`.
    pub fn size(&self, file: FileId) -> u64 {
        self.sizes.get(file.raw() as usize).copied().unwrap_or(0)
    }

    /// Overwrites the believed size (whole-file rewrite).
    pub fn set_size(&mut self, file: FileId, size: u64) {
        if let Some(s) = self.sizes.get_mut(file.raw() as usize) {
            *s = size;
        }
    }

    /// Grows the believed size by `by` bytes (append).
    pub fn grow(&mut self, file: FileId, by: u64) {
        if let Some(s) = self.sizes.get_mut(file.raw() as usize) {
            *s += by;
        }
    }

    /// Whether `file` currently exists in the generator's view.
    pub fn exists(&self, file: FileId) -> bool {
        self.exists
            .get(file.raw() as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Marks `file` deleted.
    pub fn mark_deleted(&mut self, file: FileId) {
        if let Some(e) = self.exists.get_mut(file.raw() as usize) {
            *e = false;
        }
        self.set_size(file, 0);
    }

    /// The files that exist before the trace begins, for
    /// `Cluster::preload`.
    pub fn preload_list(&self) -> &[(FileId, u64, bool)] {
        &self.preload
    }

    /// Number of file ids allocated.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Returns `true` if no ids have been allocated.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_sequential() {
        let mut ns = Namespace::new();
        let a = ns.alloc(100, false, true);
        let b = ns.alloc(0, true, false);
        assert_eq!(a, FileId(0));
        assert_eq!(b, FileId(1));
        assert_eq!(ns.size(a), 100);
        assert_eq!(ns.preload_list(), &[(a, 100, false)]);
        assert_eq!(ns.len(), 2);
    }

    #[test]
    fn handles_and_pids_unique() {
        let mut ns = Namespace::new();
        let h1 = ns.alloc_handle();
        let h2 = ns.alloc_handle();
        assert_ne!(h1, h2);
        let p1 = ns.alloc_pid();
        let p2 = ns.alloc_pid();
        assert_ne!(p1, p2);
    }

    #[test]
    fn size_tracking() {
        let mut ns = Namespace::new();
        let f = ns.alloc(0, false, false);
        ns.grow(f, 500);
        ns.grow(f, 500);
        assert_eq!(ns.size(f), 1000);
        ns.set_size(f, 10);
        assert_eq!(ns.size(f), 10);
    }

    #[test]
    fn delete_clears_existence_and_size() {
        let mut ns = Namespace::new();
        let f = ns.alloc(42, false, false);
        assert!(ns.exists(f));
        ns.mark_deleted(f);
        assert!(!ns.exists(f));
        assert_eq!(ns.size(f), 0);
    }

    #[test]
    fn unknown_ids_are_safe() {
        let ns = Namespace::new();
        assert_eq!(ns.size(FileId(99)), 0);
        assert!(!ns.exists(FileId(99)));
    }
}
