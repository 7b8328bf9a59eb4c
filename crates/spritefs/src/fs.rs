//! The shared file hierarchy: global per-file metadata.
//!
//! Sprite presents a single system image — one file tree served by a few
//! servers, no local disks. [`FileTable`] holds the authoritative
//! metadata for every file: existence, size, owning server, a version
//! stamp used by the consistency machinery, and the write times used to
//! estimate byte ages for the lifetime analysis (Figure 4).

use sdfs_simkit::{SimDuration, SimTime};
use sdfs_trace::{FileId, ServerId};

/// Authoritative metadata for one file or directory.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Whether the file currently exists.
    pub exists: bool,
    /// Whether it is a directory.
    pub is_dir: bool,
    /// Current size in bytes.
    pub size: u64,
    /// The server that stores it.
    pub server: ServerId,
    /// Version stamp; bumped on each open-for-write so clients can detect
    /// stale cached data at open time.
    pub version: u64,
    /// When the file was created (trace time).
    pub created_at: SimTime,
    /// When the oldest byte of the *current* content was written. Reset
    /// by truncation. For files that predate the simulation this is the
    /// trace start, the same estimation limit the paper had.
    pub oldest_write: SimTime,
    /// When the newest byte was written.
    pub newest_write: SimTime,
}

impl FileMeta {
    fn new(server: ServerId, is_dir: bool, now: SimTime) -> Self {
        FileMeta {
            exists: true,
            is_dir,
            size: 0,
            server,
            version: 1,
            created_at: now,
            oldest_write: now,
            newest_write: now,
        }
    }

    /// Records a write of the byte range ending now.
    pub fn note_write(&mut self, now: SimTime, was_empty: bool) {
        if was_empty {
            self.oldest_write = now;
        }
        self.newest_write = now;
    }

    /// Age of the oldest byte at `now`.
    pub fn oldest_age(&self, now: SimTime) -> SimDuration {
        now.since(self.oldest_write)
    }

    /// Age of the newest byte at `now`.
    pub fn newest_age(&self, now: SimTime) -> SimDuration {
        now.since(self.newest_write)
    }
}

/// The global file table, indexed densely by [`FileId`].
///
/// The workload generator allocates `FileId`s sequentially from zero, so
/// a plain vector suffices.
#[derive(Debug, Default)]
pub struct FileTable {
    files: Vec<Option<FileMeta>>,
}

impl FileTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FileTable::default()
    }

    /// Creates (or re-creates) a file.
    pub fn create(&mut self, id: FileId, server: ServerId, is_dir: bool, now: SimTime) {
        let idx = id.raw() as usize;
        if idx >= self.files.len() {
            self.files.resize(idx + 1, None);
        }
        self.files[idx] = Some(FileMeta::new(server, is_dir, now));
    }

    /// Installs a pre-existing file without touching trace history: used
    /// to seed the namespace before the trace starts. Pre-existing
    /// content is dated at trace start.
    pub fn preload(&mut self, id: FileId, server: ServerId, is_dir: bool, size: u64) {
        self.create(id, server, is_dir, SimTime::ZERO);
        if let Some(meta) = self.get_mut(id) {
            meta.size = size;
        }
    }

    /// Returns the metadata for `id` if the file exists.
    pub fn get(&self, id: FileId) -> Option<&FileMeta> {
        self.files
            .get(id.raw() as usize)
            .and_then(|m| m.as_ref())
            .filter(|m| m.exists)
    }

    /// Mutable access to the metadata for `id` if the file exists.
    pub fn get_mut(&mut self, id: FileId) -> Option<&mut FileMeta> {
        self.files
            .get_mut(id.raw() as usize)
            .and_then(|m| m.as_mut())
            .filter(|m| m.exists)
    }

    /// Marks `id` deleted, returning its final metadata.
    pub fn delete(&mut self, id: FileId) -> Option<FileMeta> {
        let slot = self.files.get_mut(id.raw() as usize)?.as_mut()?;
        if !slot.exists {
            return None;
        }
        slot.exists = false;
        Some(slot.clone())
    }

    /// Number of slots (existing or deleted).
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Returns `true` when the table has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterates over existing files.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &FileMeta)> + '_ {
        self.files
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (FileId(i as u64), m)))
            .filter(|(_, m)| m.exists)
    }
}

/// Deterministically assigns a file to a server with the measured skew:
/// most traffic went to a single Sun 4 server, the rest spread over the
/// other three.
pub fn assign_server(id: FileId, num_servers: u16) -> ServerId {
    if num_servers <= 1 {
        return ServerId(0);
    }
    // SplitMix-style hash of the id for a deterministic, well-mixed pick.
    let mut z = id.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 70% of files live on server 0; the rest spread evenly.
    let r = z % 100;
    if r < 70 {
        ServerId(0)
    } else {
        ServerId(1 + (z / 100 % (num_servers as u64 - 1)) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_delete() {
        let mut t = FileTable::new();
        t.create(FileId(3), ServerId(0), false, SimTime::from_secs(5));
        assert!(t.get(FileId(3)).is_some());
        assert!(t.get(FileId(0)).is_none());
        assert!(t.get(FileId(99)).is_none());
        let meta = t.delete(FileId(3)).expect("delete");
        assert_eq!(meta.created_at, SimTime::from_secs(5));
        assert!(t.get(FileId(3)).is_none());
        assert!(t.delete(FileId(3)).is_none(), "double delete");
    }

    #[test]
    fn recreate_after_delete() {
        let mut t = FileTable::new();
        t.create(FileId(1), ServerId(0), false, SimTime::from_secs(1));
        t.delete(FileId(1));
        t.create(FileId(1), ServerId(0), false, SimTime::from_secs(9));
        let m = t.get(FileId(1)).expect("recreated");
        assert_eq!(m.created_at, SimTime::from_secs(9));
        assert_eq!(m.size, 0);
    }

    #[test]
    fn preload_sets_size_and_epoch() {
        let mut t = FileTable::new();
        t.preload(FileId(0), ServerId(1), false, 12345);
        let m = t.get(FileId(0)).expect("preloaded");
        assert_eq!(m.size, 12345);
        assert_eq!(m.created_at, SimTime::ZERO);
        assert_eq!(m.oldest_write, SimTime::ZERO);
    }

    #[test]
    fn byte_ages() {
        let mut t = FileTable::new();
        t.create(FileId(0), ServerId(0), false, SimTime::from_secs(10));
        let m = t.get_mut(FileId(0)).expect("file");
        m.note_write(SimTime::from_secs(10), true);
        m.size = 100;
        m.note_write(SimTime::from_secs(40), false);
        let now = SimTime::from_secs(100);
        assert_eq!(m.oldest_age(now), SimDuration::from_secs(90));
        assert_eq!(m.newest_age(now), SimDuration::from_secs(60));
    }

    #[test]
    fn iter_skips_deleted() {
        let mut t = FileTable::new();
        t.create(FileId(0), ServerId(0), false, SimTime::ZERO);
        t.create(FileId(1), ServerId(0), false, SimTime::ZERO);
        t.delete(FileId(0));
        let ids: Vec<FileId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![FileId(1)]);
    }

    #[test]
    fn server_assignment_is_skewed_and_total() {
        let n = 10_000u64;
        let mut counts = [0u32; 4];
        for i in 0..n {
            let s = assign_server(FileId(i), 4);
            assert!(s.raw() < 4);
            counts[s.raw() as usize] += 1;
        }
        let main_frac = counts[0] as f64 / n as f64;
        assert!(
            (0.65..0.75).contains(&main_frac),
            "main server fraction {main_frac}"
        );
        for &c in &counts[1..] {
            assert!(c > 0, "every server gets some files");
        }
        assert_eq!(assign_server(FileId(5), 1), ServerId(0));
    }
}
