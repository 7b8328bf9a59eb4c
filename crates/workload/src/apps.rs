//! Application behaviour models.
//!
//! Each function emits the operation stream of one application *burst* —
//! an editor save, a `pmake` compile, a mail session, a simulation run.
//! The bursts are where the paper's distributions come from:
//!
//! * whole-file sequential access dominates (editors, compilers, `cat`),
//! * a sprinkling of partial-sequential (grep/head) and random access
//!   (mailboxes, the shared database, linker patching),
//! * compiler temporaries live only seconds (Figure 4's short lifetimes),
//! * multi-megabyte binaries and simulation files supply the byte-heavy
//!   tail (Figures 1–2),
//! * `pmake` fans compile jobs out to idle hosts under process migration,
//!   whose `.o` files are then read back on the home machine within
//!   seconds (server recalls, Table 10),
//! * the shared group database produces concurrent write-sharing
//!   (Tables 10–12).

use sdfs_simkit::dist::Zipf;
use sdfs_simkit::{SimDuration, SimRng, SimTime};
use sdfs_spritefs::ops::{AppOp, OpKind};
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, UserId};

use crate::config::{WorkloadConfig, OPEN_OVERHEAD_SECS, PMAKE_FANOUT, PROC_RATE};
use crate::namespace::{ExecImage, Namespace};
use crate::user::{sample_small_size, UserFiles};

/// Shared system files: executables, headers, fonts, and per-client
/// backing files.
#[derive(Debug)]
pub struct SystemFiles {
    /// The text editor.
    pub editor: ExecImage,
    /// The C compiler.
    pub cc: ExecImage,
    /// The linker.
    pub ld: ExecImage,
    /// The mail reader.
    pub mailer: ExecImage,
    /// The document formatter.
    pub latex: ExecImage,
    /// The simulator used by the architecture/VLSI groups.
    pub simulator: ExecImage,
    /// The window system, running for a whole session (the main source
    /// of steady VM pressure on a workstation).
    pub winsys: ExecImage,
    /// The login shell, also session-long.
    pub shell: ExecImage,
    /// Small shell commands (ls, cat, grep, cp, rm, ...).
    pub shell_cmds: Vec<ExecImage>,
    /// Shared include files.
    pub headers: Vec<FileId>,
    /// Popularity of the shared headers (a few headers — think
    /// `stdio.h` — absorb most includes).
    pub header_pop: Zipf,
    /// Shared libraries the linker reads.
    pub libraries: Vec<FileId>,
    /// Font files for document production.
    pub fonts: Vec<FileId>,
    /// Popularity of the fonts.
    pub font_pop: Zipf,
    /// The shared temporary directory.
    pub tmp_dir: FileId,
    /// Per-client VM backing files (never client-cached).
    pub backing: Vec<FileId>,
}

/// Per-group shared files.
#[derive(Debug)]
pub struct GroupFiles {
    /// The group's project directory.
    pub project_dir: FileId,
    /// A status/database file several group members read and write,
    /// sometimes concurrently (the write-sharing driver).
    pub shared_db: FileId,
    /// Shared running notes that collaborators re-read and append to in
    /// quick cycles (the stale-data driver of Table 11).
    pub notes: FileId,
}

/// Emission context for one user's activity.
pub struct Ctx<'a> {
    /// Output operation buffer (sorted by the generator afterwards).
    pub ops: &'a mut Vec<AppOp>,
    /// Identity allocator and size belief.
    pub ns: &'a mut Namespace,
    /// This user's randomness stream.
    pub rng: &'a mut SimRng,
    /// Calibration knobs.
    pub cfg: &'a WorkloadConfig,
    /// Local time cursor.
    pub now: SimTime,
    /// The user being simulated.
    pub user: UserId,
    /// The workstation ops run on (changes under migration).
    pub client: ClientId,
    /// Current process.
    pub pid: Pid,
    /// Whether the current process is migrated.
    pub migrated: bool,
    /// Scales per-byte and per-call processing time (1.0 = normal; the
    /// parallel simulation sweeps stream warm cached data much faster).
    pub io_scale: f64,
}

impl Ctx<'_> {
    /// Appends one operation at the current cursor.
    pub fn emit(&mut self, kind: OpKind) {
        self.ops.push(AppOp {
            time: self.now,
            client: self.client,
            user: self.user,
            pid: self.pid,
            migrated: self.migrated,
            kind,
        });
    }

    /// Moves the cursor forward.
    pub fn advance(&mut self, secs: f64) {
        self.now += SimDuration::from_secs_f64(secs);
    }

    /// Moves the cursor forward by `base + U[0, spread)` seconds.
    pub fn pause(&mut self, base: f64, spread: f64) {
        let jitter = spread * self.rng.f64();
        self.advance(base + jitter);
    }

    /// Time for the application to process `bytes` of file data.
    pub fn io_secs(&self, bytes: u64) -> f64 {
        bytes as f64 / PROC_RATE * self.io_scale
    }

    /// Per-call application processing delay: heavy-tailed (log-normal),
    /// capped so large streaming transfers are not penalized. This is
    /// what gives Figure 3 its shape — most opens finish in well under a
    /// quarter second, but a tail of slow processing stretches out.
    fn call_delay(&mut self) -> f64 {
        let z = self.rng.normal();
        ((0.03_f64.ln() + 2.0 * z).exp()).min(2.0) * self.io_scale
    }

    /// Opens `file`, advancing by the network open overhead.
    pub fn open(&mut self, file: FileId, mode: OpenMode) -> Handle {
        let fd = self.ns.alloc_handle();
        self.emit(OpKind::Open { fd, file, mode });
        self.pause(OPEN_OVERHEAD_SECS * 0.6, OPEN_OVERHEAD_SECS * 0.8);
        fd
    }

    /// Reads `len` bytes, advancing by the processing time.
    pub fn read(&mut self, fd: Handle, len: u64) {
        if len == 0 {
            return;
        }
        self.emit(OpKind::Read { fd, len });
        let delay = self.io_secs(len) + self.call_delay();
        self.advance(delay);
    }

    /// Writes `len` bytes, advancing by the processing time.
    pub fn write(&mut self, fd: Handle, len: u64) {
        if len == 0 {
            return;
        }
        self.emit(OpKind::Write { fd, len });
        let delay = self.io_secs(len) + self.call_delay();
        self.advance(delay);
    }

    /// Seeks to an absolute offset.
    pub fn seek(&mut self, fd: Handle, to: u64) {
        self.emit(OpKind::Seek { fd, to });
        self.advance(0.0005);
    }

    /// Closes an open file.
    pub fn close(&mut self, fd: Handle) {
        self.emit(OpKind::Close { fd });
        self.advance(OPEN_OVERHEAD_SECS * 0.4);
    }

    /// Forces an open file's dirty data through to the server.
    pub fn fsync(&mut self, fd: Handle) {
        self.emit(OpKind::Fsync { fd });
        self.advance(0.02);
    }

    /// Starts a long-lived background process (window system, shell),
    /// returning its pid; the caller exits it later with
    /// [`Ctx::exit_background`].
    pub fn spawn_background(&mut self, exec: ExecImage) -> Pid {
        let pid = self.ns.alloc_pid();
        let prev = self.pid;
        self.pid = pid;
        self.emit(OpKind::ProcStart {
            exec: exec.file,
            code_bytes: exec.code_bytes,
            data_bytes: exec.data_bytes,
            heap_bytes: exec.heap_bytes,
        });
        self.pid = prev;
        self.advance(0.2);
        pid
    }

    /// Exits a background process started with [`Ctx::spawn_background`].
    pub fn exit_background(&mut self, pid: Pid) {
        let prev = self.pid;
        self.pid = pid;
        self.emit(OpKind::ProcExit);
        self.pid = prev;
    }

    /// Creates a new file of believed size zero and emits the operation.
    pub fn create_file(&mut self) -> FileId {
        let file = self.ns.alloc(0, false, false);
        self.emit(OpKind::Create {
            file,
            is_dir: false,
        });
        file
    }

    /// Deletes a file.
    pub fn delete(&mut self, file: FileId) {
        self.ns.mark_deleted(file);
        self.emit(OpKind::Delete { file });
    }

    /// Truncates a file to zero length.
    pub fn truncate(&mut self, file: FileId) {
        self.ns.set_size(file, 0);
        self.emit(OpKind::Truncate { file });
    }

    /// Lists a directory: open, read its entries, close.
    pub fn list_dir(&mut self, dir: FileId) {
        let fd = self.ns.alloc_handle();
        self.emit(OpKind::Open {
            fd,
            file: dir,
            mode: OpenMode::Read,
        });
        let bytes = self.ns.size(dir).clamp(256, 16_384);
        self.emit(OpKind::ReadDir { dir, bytes });
        self.advance(0.005);
        self.emit(OpKind::Close { fd });
    }

    /// Runs `body` inside a fresh process executing `exec`.
    pub fn with_process(&mut self, exec: ExecImage, body: impl FnOnce(&mut Ctx<'_>)) {
        let pid = self.ns.alloc_pid();
        let prev = self.pid;
        self.pid = pid;
        self.emit(OpKind::ProcStart {
            exec: exec.file,
            code_bytes: exec.code_bytes,
            data_bytes: exec.data_bytes,
            heap_bytes: exec.heap_bytes,
        });
        self.pause(0.05, 0.1);
        body(self);
        self.emit(OpKind::ProcExit);
        self.pid = prev;
    }

    // ------------------------------------------------------------------
    // File access idioms.
    // ------------------------------------------------------------------

    /// Whole-file sequential read (the dominant access pattern).
    pub fn read_whole(&mut self, file: FileId) {
        let size = self.ns.size(file);
        let fd = self.open(file, OpenMode::Read);
        self.read(fd, size);
        self.close(fd);
    }

    /// Sequential read of the first `frac` of the file ("other
    /// sequential": grep that matched early, `head`, partial scans).
    pub fn read_head(&mut self, file: FileId, frac: f64) {
        let size = self.ns.size(file);
        let len = ((size as f64 * frac) as u64).max(1).min(size);
        let fd = self.open(file, OpenMode::Read);
        self.read(fd, len);
        self.close(fd);
    }

    /// Random-access read: several short runs at seeked positions.
    pub fn read_random(&mut self, file: FileId, runs: u64, run_len: u64) {
        let size = self.ns.size(file).max(1);
        let fd = self.open(file, OpenMode::Read);
        for _ in 0..runs {
            let pos = self.rng.below(size);
            self.seek(fd, pos);
            self.read(fd, run_len.min(size - pos).max(1));
        }
        self.close(fd);
    }

    /// Replaces a file's content with `new_size` bytes, by truncation and
    /// a whole-file sequential write.
    pub fn write_replace(&mut self, file: FileId, new_size: u64) {
        self.truncate(file);
        let fd = self.open(file, OpenMode::Write);
        self.write(fd, new_size);
        self.close(fd);
        self.ns.set_size(file, new_size);
    }

    /// Writes a brand-new file of `size` bytes sequentially.
    pub fn write_new(&mut self, file: FileId, size: u64) {
        let fd = self.open(file, OpenMode::Write);
        self.write(fd, size);
        self.close(fd);
        self.ns.set_size(file, size);
    }

    /// Appends `bytes` to the end of a file (mailbox delivery, logs).
    /// Mail delivery must not lose data, so appends usually `fsync`.
    pub fn append(&mut self, file: FileId, bytes: u64) {
        let size = self.ns.size(file);
        let fd = self.open(file, OpenMode::Write);
        self.seek(fd, size);
        self.write(fd, bytes);
        if self.rng.chance(0.95) {
            self.fsync(fd);
        }
        self.close(fd);
        self.ns.grow(file, bytes);
    }

    /// Page-out then page-in activity against this client's backing file
    /// (memory pressure during a long computation).
    pub fn backing_io(&mut self, backing: FileId, bytes: u64) {
        let offset = self.rng.below(16 << 20);
        self.emit(OpKind::PageOut {
            file: backing,
            offset,
            bytes,
        });
        self.pause(0.2, 1.0);
        self.emit(OpKind::PageIn {
            file: backing,
            offset,
            bytes,
        });
    }
}

// ----------------------------------------------------------------------
// Bursts.
// ----------------------------------------------------------------------

/// An editing burst: read a source file, navigate, think, save it back.
///
/// Saves keep a backup file that is deleted at the *next* save, so
/// backups live minutes; the editor `fsync`s after most saves (vi did).
pub fn edit_burst(ctx: &mut Ctx<'_>, uf: &mut UserFiles, sys: &SystemFiles) {
    let editor = sys.editor;
    let idx = ctx.rng.below(uf.sources.len() as u64) as usize;
    let target = if ctx.rng.chance(0.8) {
        uf.sources[idx]
    } else {
        *ctx.rng.pick(&uf.docs)
    };
    let prev_backup = uf.last_backup.take();
    let mut new_backup = prev_backup;
    ctx.with_process(editor, |ctx| {
        ctx.read_whole(target);
        // Navigation: occasional seek-driven re-reads of the buffer's
        // file (tags, searches).
        if ctx.rng.chance(0.8) {
            let runs = ctx.rng.range(3, 9);
            let run_len = ctx.rng.range(512, 4_096);
            ctx.read_random(target, runs, run_len);
        }
        // Think/typing time.
        ctx.pause(3.0, 40.0);
        if ctx.rng.chance(0.6) {
            let old = ctx.ns.size(target);
            let delta = (old as f64 * 0.1 * ctx.rng.normal()) as i64;
            let new_size = (old as i64 + delta).clamp(64, 800_000) as u64;
            if ctx.rng.chance(0.25) {
                // Keep a backup of the previous content; the previous
                // backup dies now (a minutes-long lifetime).
                let backup = ctx.create_file();
                ctx.write_new(backup, old.max(64));
                if let Some(prev) = prev_backup {
                    if ctx.ns.exists(prev) {
                        ctx.delete(prev);
                    }
                }
                new_backup = Some(backup);
            }
            // In-place rewrite of the file, usually fsynced. Half the
            // editors truncate first (vi); the rest overwrite in place.
            let fd = {
                if ctx.rng.chance(0.5) {
                    ctx.truncate(target);
                } else {
                    ctx.ns.set_size(target, 0);
                }
                ctx.open(target, OpenMode::Write)
            };
            ctx.write(fd, new_size);
            if ctx.rng.chance(0.9) {
                ctx.fsync(fd);
            }
            ctx.close(fd);
            ctx.ns.set_size(target, new_size);
        }
    });
    uf.last_backup = new_backup;
}

/// One compile job: cc reads the source and headers, writes a
/// short-lived temporary, and produces the object file.
fn compile_one(ctx: &mut Ctx<'_>, uf: &mut UserFiles, sys: &SystemFiles, idx: usize) {
    let cc = sys.cc;
    let src = uf.sources[idx];
    ctx.with_process(cc, |ctx| {
        ctx.read_whole(src);
        // A few shared headers (usually warm in the cache).
        let n_hdrs = ctx.rng.range(3, 10);
        for _ in 0..n_hdrs {
            let h = sys.headers[sys.header_pop.sample_rank(ctx.rng)];
            ctx.read_whole(h);
        }
        let src_size = ctx.ns.size(src).max(1_000);
        // Compiler temporary: written, read back, deleted in seconds
        // (not every compile leaves one visible to the servers).
        {
            let tmp = ctx.create_file();
            ctx.write_new(tmp, src_size / 2 + 512);
            ctx.pause(0.5, 2.0);
            ctx.read_whole(tmp);
            ctx.delete(tmp);
        }
        if ctx.rng.chance(0.4) {
            // The assembler stage leaves a second temporary.
            let tmp2 = ctx.create_file();
            ctx.write_new(tmp2, src_size / 3 + 256);
            ctx.pause(0.3, 1.5);
            ctx.read_whole(tmp2);
            ctx.delete(tmp2);
        }
        // The object file is usually rewritten in place (a truncate
        // event); occasionally the old one is removed outright.
        match uf.objects[idx] {
            Some(old) if ctx.ns.exists(old) => {
                if ctx.rng.chance(0.08) {
                    ctx.delete(old);
                    let obj = ctx.create_file();
                    ctx.write_new(obj, src_size);
                    uf.objects[idx] = Some(obj);
                } else {
                    ctx.write_replace(old, src_size);
                }
            }
            _ => {
                let obj = ctx.create_file();
                ctx.write_new(obj, src_size);
                uf.objects[idx] = Some(obj);
            }
        }
        ctx.pause(0.5, 1.5);
    });
}

/// Link the user's objects into their program binary, with a little
/// seek-driven symbol patching, then run the result once.
fn link_and_run(ctx: &mut Ctx<'_>, uf: &mut UserFiles, sys: &SystemFiles) {
    let ld = sys.ld;
    let binary = uf.binary;
    ctx.with_process(ld, |ctx| {
        let mut total = 60_000u64;
        let objs: Vec<FileId> = uf.objects.iter().flatten().copied().collect();
        for obj in objs {
            if ctx.ns.exists(obj) {
                ctx.read_whole(obj);
                total += ctx.ns.size(obj);
            }
        }
        for _ in 0..ctx.rng.range(1, 3) {
            // Linkers only pull the needed members out of a library:
            // partial, seek-y reads.
            let lib = *ctx.rng.pick(&sys.libraries);
            if ctx.rng.chance(0.5) {
                let runs = ctx.rng.range(2, 5);
                let run_len = ctx.rng.range(4_000, 40_000);
                ctx.read_random(lib, runs, run_len);
            } else {
                let frac = 0.1 + 0.4 * ctx.rng.f64();
                ctx.read_head(lib, frac);
            }
            total += ctx.ns.size(lib) / 8;
        }
        // Write the binary mostly sequentially, then patch the symbol
        // table with a few seeks (a random-write access).
        ctx.truncate(binary);
        let fd = ctx.open(binary, OpenMode::Write);
        ctx.write(fd, total);
        for _ in 0..ctx.rng.range(1, 4) {
            let pos = ctx.rng.below(total.max(1));
            ctx.seek(fd, pos);
            let n = ctx.rng.range(16, 512);
            ctx.write(fd, n);
        }
        ctx.close(fd);
        ctx.ns.set_size(binary, total);
    });
    // Sometimes test-run the fresh binary: code faults hit the client
    // cache, which holds the blocks the linker just wrote.
    if ctx.rng.chance(0.5) {
        let exec = ExecImage {
            file: binary,
            code_bytes: (ctx.ns.size(binary) * 3 / 4).max(4096),
            data_bytes: (ctx.ns.size(binary) / 8).max(4096),
            heap_bytes: ctx.ns.size(binary) / 2,
        };
        ctx.with_process(exec, |ctx| {
            ctx.pause(1.0, 5.0);
        });
    }
}

/// A program-development burst: compile a few sources (optionally fanned
/// out to idle hosts with `pmake` under process migration) and link.
///
/// Migrated jobs run on other machines but write object files that the
/// home machine's link step reads back seconds later — the server must
/// recall the dirty data (Table 10's recall rate comes largely from
/// here).
pub fn compile_burst(
    ctx: &mut Ctx<'_>,
    uf: &mut UserFiles,
    sys: &SystemFiles,
    gf: &GroupFiles,
    idle_hosts: &[ClientId],
    uses_migration: bool,
) {
    // pmake stats the directory before deciding what to build.
    ctx.list_dir(uf.home_dir);
    let n_jobs = ctx.rng.range(1, 5) as usize;
    let mut targets: Vec<usize> = (0..uf.sources.len()).collect();
    ctx.rng.shuffle(&mut targets);
    targets.truncate(n_jobs);
    let migrate = uses_migration
        && !idle_hosts.is_empty()
        && n_jobs >= 2
        && ctx.rng.chance(ctx.cfg.migration_fraction * 2.0);
    let home = ctx.client;
    let base = ctx.now;
    let mut latest = ctx.now;
    if migrate {
        // pmake: fan jobs out across idle hosts; they run concurrently.
        for (j, &idx) in targets.iter().enumerate() {
            ctx.now = base + SimDuration::from_secs_f64(0.2 * j as f64);
            let host = idle_hosts[j % idle_hosts.len()];
            ctx.client = host;
            ctx.migrated = host != home;
            compile_one(ctx, uf, sys, idx);
            if ctx.rng.chance(0.2) {
                // pmake's remote agent checks the group status file —
                // migrated processes see exactly the consistency
                // behaviour local ones do (Section 5.5's hypothesis).
                let db = gf.shared_db;
                let dbsz = ctx.ns.size(db).max(4_096);
                let fd = ctx.open(db, OpenMode::Read);
                let pos = ctx.rng.below(dbsz);
                ctx.seek(fd, pos);
                let n = ctx.rng.range(100, 800);
                ctx.read(fd, n);
                ctx.close(fd);
            }
            latest = latest.max(ctx.now);
        }
        ctx.client = home;
        ctx.migrated = false;
        ctx.now = latest;
    } else {
        for &idx in &targets {
            compile_one(ctx, uf, sys, idx);
        }
    }
    if ctx.rng.chance(0.35) {
        link_and_run(ctx, uf, sys);
    }
}

/// A mail session: scan the mailbox with seeks (random access), read a
/// few messages, sometimes send mail — which appends to *another user's*
/// mailbox, the other recall driver.
pub fn mail_burst(
    ctx: &mut Ctx<'_>,
    uf: &mut UserFiles,
    sys: &SystemFiles,
    other_mailbox: Option<FileId>,
) {
    let mailer = sys.mailer;
    let mailbox = uf.mailbox;
    ctx.with_process(mailer, |ctx| {
        // Header scan: short runs at seeked positions.
        let runs = ctx.rng.range(8, 20);
        let run_len = ctx.rng.range(200, 2_000);
        ctx.read_random(mailbox, runs, run_len);
        ctx.pause(2.0, 20.0);
        // Read a few messages, each its own open/close a few seconds
        // apart — rapid re-opens of a file other machines append to are
        // exactly where weak consistency shows stale data (Table 11).
        let n_msgs = ctx.rng.range(1, 5);
        for _ in 0..n_msgs {
            let frac = 0.03 + 0.1 * ctx.rng.f64();
            ctx.read_head(mailbox, frac);
            ctx.pause(2.0, 12.0);
        }
        // Compose and send.
        if ctx.rng.chance(0.5) {
            let draft = ctx.create_file();
            let len = ctx.rng.range(400, 6_000);
            ctx.write_new(draft, len);
            ctx.pause(1.0, 5.0);
            if let Some(dest) = other_mailbox {
                ctx.append(dest, len + 200);
            } else {
                ctx.append(mailbox, len + 200);
            }
            ctx.delete(draft);
        }
        // Occasionally compact the mailbox (read/write whole).
        if ctx.rng.chance(0.05) {
            let size = ctx.ns.size(mailbox);
            let fd = ctx.open(mailbox, OpenMode::ReadWrite);
            ctx.read(fd, size);
            ctx.seek(fd, 0);
            ctx.write(fd, size * 3 / 4);
            ctx.close(fd);
            ctx.ns.set_size(mailbox, size * 3 / 4);
        }
    });
}

/// Document production: format a paper, reading fonts and writing the
/// output plus a short-lived log.
pub fn doc_burst(ctx: &mut Ctx<'_>, uf: &mut UserFiles, sys: &SystemFiles) {
    let latex = sys.latex;
    let doc = *ctx.rng.pick(&uf.docs);
    ctx.with_process(latex, |ctx| {
        ctx.read_whole(doc);
        for _ in 0..ctx.rng.range(2, 6) {
            let f = sys.fonts[sys.font_pop.sample_rank(ctx.rng)];
            ctx.read_whole(f);
        }
        let out = ctx.create_file();
        let out_len = ctx.ns.size(doc) * 2 / 3 + 10_000;
        let ofd = ctx.open(out, OpenMode::Write);
        ctx.write(ofd, out_len);
        if ctx.rng.chance(0.4) {
            ctx.fsync(ofd);
        }
        ctx.close(ofd);
        ctx.ns.set_size(out, out_len);
        // The .log: written and deleted within seconds.
        let log = ctx.create_file();
        let log_len = ctx.rng.range(500, 5_000);
        ctx.write_new(log, log_len);
        ctx.pause(1.0, 3.0);
        ctx.delete(log);
        // Keep the latest output only; it lingers a few minutes.
        ctx.pause(30.0, 120.0);
        ctx.delete(out);
    });
}

/// Shell activity: `ls`, `cat`, `grep`, the occasional copy or cleanup.
pub fn shell_burst(ctx: &mut Ctx<'_>, uf: &mut UserFiles, sys: &SystemFiles) {
    ctx.list_dir(uf.home_dir);
    let n_cmds = ctx.rng.range(2, 6);
    for _ in 0..n_cmds {
        let cmd = *ctx.rng.pick(&sys.shell_cmds);
        let action = ctx.rng.pick_weighted(&[0.4, 0.3, 0.15, 0.1, 0.05]);
        ctx.with_process(cmd, |ctx| match action {
            0 => {
                // cat: whole-file read of something small.
                let f = *ctx.rng.pick(&uf.sources);
                ctx.read_whole(f);
            }
            1 => {
                // Pipe through a temporary (sort/uniq): the temp lives
                // seconds.
                if ctx.rng.chance(0.3) {
                    let f = *ctx.rng.pick(&uf.sources);
                    ctx.read_whole(f);
                    let tmp = ctx.create_file();
                    let sz = ctx.ns.size(f);
                    ctx.write_new(tmp, sz);
                    ctx.pause(0.5, 3.0);
                    ctx.read_whole(tmp);
                    ctx.delete(tmp);
                }
                // grep: partial reads over a few files.
                for _ in 0..ctx.rng.range(2, 6) {
                    let f = *ctx.rng.pick(&uf.sources);
                    let frac = 0.2 + 0.6 * ctx.rng.f64();
                    ctx.read_head(f, frac);
                }
            }
            2 => {
                // man: read a shared page.
                let m = *ctx.rng.pick(&sys.fonts);
                ctx.read_whole(m);
            }
            3 => {
                // cp: read whole, write a copy that lingers.
                let f = *ctx.rng.pick(&uf.docs);
                ctx.read_whole(f);
                let copy = ctx.create_file();
                let sz = ctx.ns.size(f);
                ctx.write_new(copy, sz);
            }
            _ => {
                // Cleanup: delete an old object file (long lifetime).
                let objs: Vec<FileId> = uf.objects.iter().flatten().copied().collect();
                if let Some(&obj) = objs.first() {
                    if ctx.ns.exists(obj) {
                        ctx.delete(obj);
                        if let Some(slot) = uf.objects.iter_mut().find(|o| **o == Some(obj)) {
                            *slot = None;
                        }
                    }
                }
            }
        });
        ctx.pause(0.5, 4.0);
    }
}

/// Which simulation workload a user runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimProfile {
    /// An ordinary research simulation: megabyte-scale input, modest
    /// output.
    Normal,
    /// The class-project user of traces 3–4 whose *input* files averaged
    /// 20 Mbytes.
    HeavyReader,
    /// The class-project user whose cache simulation produced a 10-Mbyte
    /// *output*, post-processed and deleted after every run.
    HeavyWriter,
}

/// A simulation run: read a multi-megabyte input while computing (with
/// paging under memory pressure), write an output file, post-process and
/// delete it.
pub fn sim_burst(ctx: &mut Ctx<'_>, uf: &mut UserFiles, sys: &SystemFiles, profile: SimProfile) {
    if uf.sim_inputs.is_empty() {
        return;
    }
    let input = uf.sim_inputs[uf.sim_cursor % uf.sim_inputs.len()];
    uf.sim_cursor += 1;
    let simulator = sys.simulator;
    let backing = sys.backing[ctx.client.raw() as usize];
    let out = ctx.ns.alloc(0, false, false);
    ctx.with_process(simulator, |ctx| {
        let in_size = ctx.ns.size(input);
        // Read the input in chunks interleaved with computation: the
        // open lasts for the whole run (Figure 3's tail).
        let fd = ctx.open(input, OpenMode::Read);
        let chunks = 8;
        let pace = if profile == SimProfile::Normal {
            6.0
        } else {
            2.0
        };
        let take = if profile == SimProfile::Normal {
            // Many simulations stop early (convergence): a partial,
            // still-sequential scan of the input.
            ((in_size as f64) * (0.5 + 0.5 * ctx.rng.f64())) as u64
        } else {
            in_size
        };
        for _ in 0..chunks {
            ctx.read(fd, take / chunks);
            ctx.pause(0.5, pace);
            if ctx.rng.chance(0.4) {
                let pages = ctx.rng.range(16, 256);
                ctx.backing_io(backing, pages * 4096);
            }
        }
        ctx.close(fd);
        // Write the output.
        ctx.emit(OpKind::Create {
            file: out,
            is_dir: false,
        });
        let out_size = match profile {
            SimProfile::Normal => (in_size / 5).max(50_000),
            SimProfile::HeavyReader => 512 << 10,
            SimProfile::HeavyWriter => 10 << 20,
        };
        let ofd = ctx.open(out, OpenMode::Write);
        let wchunks = 4;
        for _ in 0..wchunks {
            ctx.write(ofd, out_size / wchunks);
            ctx.pause(0.5, 2.0);
        }
        if ctx.rng.chance(0.15) {
            // Some simulators checkpoint synchronously.
            ctx.fsync(ofd);
        }
        ctx.close(ofd);
        ctx.ns.set_size(out, out_size);
    });
    // Post-process the output, then delete it (minutes-old megabytes —
    // the long tail of Figure 4's byte lifetimes). The class-project
    // users turn runs around quickly; ordinary researchers linger.
    if profile == SimProfile::Normal {
        ctx.pause(30.0, 240.0);
    } else {
        ctx.pause(5.0, 30.0);
    }
    let awk = *ctx.rng.pick(&sys.shell_cmds);
    ctx.with_process(awk, |ctx| {
        ctx.read_whole(out);
        let summary = ctx.create_file();
        let sum_len = ctx.rng.range(500, 20_000);
        ctx.write_new(summary, sum_len);
    });
    if profile == SimProfile::Normal {
        ctx.pause(20.0, 180.0);
    } else {
        ctx.pause(5.0, 20.0);
    }
    ctx.delete(out);
    if profile != SimProfile::Normal {
        // The class-project users study each result before the next run.
        ctx.pause(30.0, 90.0);
    }
}

/// A parallel simulation sweep (VLSI/parallel-processing group): pmake
/// fans several simulator runs across idle hosts at once — the source of
/// the enormous 10-second migration bursts in Table 2.
pub fn parallel_sim_burst(
    ctx: &mut Ctx<'_>,
    uf: &mut UserFiles,
    sys: &SystemFiles,
    idle_hosts: &[ClientId],
) {
    if uf.sim_inputs.is_empty() || idle_hosts.is_empty() {
        return;
    }
    let input = uf.sim_inputs[uf.sim_cursor % uf.sim_inputs.len()];
    uf.sim_cursor += 1;
    let simulator = sys.simulator;
    let home = ctx.client;
    let base = ctx.now;
    let mut latest = base;
    let fanout = PMAKE_FANOUT.min(idle_hosts.len()).max(1);
    // A parameter sweep: every host runs the simulator over the same
    // input several times. After the first pass the input is warm in
    // each host's cache, so the re-reads stream at near-memory speed —
    // this is how single pmake users briefly exceeded the Ethernet's raw
    // bandwidth in Table 2.
    let passes = ctx.rng.range(2, 4);
    let mut outputs = Vec::new();
    for j in 0..fanout {
        ctx.now = base + SimDuration::from_secs_f64(0.3 * j as f64);
        let host = idle_hosts[j % idle_hosts.len()];
        ctx.client = host;
        ctx.migrated = host != home;
        let in_size = ctx.ns.size(input);
        ctx.with_process(simulator, |ctx| {
            for pass in 0..passes {
                ctx.io_scale = if pass == 0 { 1.0 } else { 0.1 };
                ctx.read_whole(input);
                ctx.pause(1.0, 4.0);
            }
            ctx.io_scale = 1.0;
            let out = ctx.create_file();
            ctx.write_new(out, (in_size / 10).max(20_000));
            outputs.push(out);
        });
        latest = latest.max(ctx.now);
    }
    // Results are collected and removed by the home machine shortly.
    ctx.now = latest + SimDuration::from_secs_f64(1.0);
    ctx.client = home;
    ctx.migrated = false;
    for out in outputs {
        ctx.read_whole(out);
        ctx.delete(out);
    }
}

/// A quick mailbox poll (`biff`-style): read the last part of the
/// mailbox to see whether new mail arrived. Frequent cross-client
/// re-reads of a file other machines append to make this the main
/// source of stale-data exposure under weak consistency (Table 11).
pub fn mail_check_burst(ctx: &mut Ctx<'_>, uf: &mut UserFiles) {
    let mailbox = uf.mailbox;
    let frac = 0.01 + 0.03 * ctx.rng.f64();
    ctx.read_head(mailbox, frac);
}

/// A shared-database session: hold the group's status file open for tens
/// of seconds, reading and writing small records at seeked positions.
/// Overlapping sessions from different machines produce concurrent
/// write-sharing; every read/write during the overlap passes through to
/// the server (the shared events behind Tables 11–12).
pub fn shared_db_burst(ctx: &mut Ctx<'_>, gf: &GroupFiles) {
    let db = gf.shared_db;
    let writer = ctx.rng.chance(0.6);
    let mode = if writer {
        OpenMode::ReadWrite
    } else {
        OpenMode::Read
    };
    let size = ctx.ns.size(db).max(4_096);
    let fd = ctx.open(db, mode);
    let n_ops = ctx.rng.range(15, 50);
    for _ in 0..n_ops {
        let pos = ctx.rng.below(size);
        ctx.seek(fd, pos);
        if writer && ctx.rng.chance(0.12) {
            let n = ctx.rng.range(40, 400);
            ctx.write(fd, n);
        } else {
            let n = ctx.rng.range(200, 2_000);
            ctx.read(fd, n);
        }
        // Poll interval: this is what makes sessions overlap.
        ctx.pause(3.0, 6.0);
    }
    // A writer updates its own entry once before closing; most write-
    // mode sessions never actually modify anything (the open *mode* is
    // what drives concurrent write-sharing, actual writes drive the
    // stale-data exposure of Table 11).
    if writer && ctx.rng.chance(0.5) {
        let pos = ctx.rng.below(size);
        ctx.seek(fd, pos);
        let n = ctx.rng.range(40, 400);
        ctx.write(fd, n);
        if ctx.rng.chance(0.8) {
            ctx.fsync(fd);
        }
    }
    ctx.close(fd);
}

/// A collaboration burst: quick read/append cycles on the group's
/// shared notes file. Re-opening a recently-modified shared file within
/// seconds is what turns weak consistency into visible stale data.
pub fn collab_burst(ctx: &mut Ctx<'_>, gf: &GroupFiles) {
    let notes = gf.notes;
    let cycles = ctx.rng.range(2, 6);
    for _ in 0..cycles {
        ctx.read_whole(notes);
        ctx.pause(4.0, 18.0);
        if ctx.rng.chance(0.4) {
            let n = ctx.rng.range(100, 1_500);
            ctx.append(notes, n);
        }
    }
    // Keep the notes from growing without bound.
    if ctx.ns.size(notes) > 200 << 10 {
        ctx.write_replace(notes, 8 << 10);
    }
}

/// Builds the shared system files (all preloaded).
pub fn build_system_files(ns: &mut Namespace, rng: &mut SimRng, num_clients: u16) -> SystemFiles {
    let mut exec = |code: u64, data: u64, heap: u64| {
        let file = ns.alloc(code + data, false, true);
        ExecImage {
            file,
            code_bytes: code,
            data_bytes: data,
            heap_bytes: heap,
        }
    };
    let editor = exec(250 << 10, 40 << 10, 600 << 10);
    let cc = exec(400 << 10, 50 << 10, 1 << 20);
    let ld = exec(200 << 10, 40 << 10, 800 << 10);
    let mailer = exec(200 << 10, 30 << 10, 400 << 10);
    let latex = exec(300 << 10, 60 << 10, 1 << 20);
    let simulator = exec(800 << 10, 200 << 10, 6 << 20);
    // The window system holds several megabytes of heap for a whole
    // session; the login shell is small but also session-long.
    let winsys = exec(500 << 10, 200 << 10, 9 << 19);
    let shell = exec(80 << 10, 20 << 10, 300 << 10);
    let shell_cmds = (0..10)
        .map(|_| {
            let code = rng.range(20 << 10, 120 << 10);
            let data = rng.range(4 << 10, 24 << 10);
            let file = ns.alloc(code + data, false, true);
            ExecImage {
                file,
                code_bytes: code,
                data_bytes: data,
                heap_bytes: data * 3,
            }
        })
        .collect();
    let headers: Vec<FileId> = (0..60)
        .map(|_| ns.alloc(sample_small_size(rng), false, true))
        .collect();
    let header_pop = Zipf::new(headers.len(), 0.9);
    let libraries = (0..8)
        .map(|_| ns.alloc(rng.range(80 << 10, 1 << 20), false, true))
        .collect();
    let fonts: Vec<FileId> = (0..30)
        .map(|_| ns.alloc(rng.range(2 << 10, 60 << 10), false, true))
        .collect();
    let font_pop = Zipf::new(fonts.len(), 0.9);
    let tmp_dir = ns.alloc(4_096, true, true);
    let backing = (0..num_clients).map(|_| ns.alloc(0, false, true)).collect();
    SystemFiles {
        editor,
        cc,
        ld,
        mailer,
        latex,
        simulator,
        winsys,
        shell,
        shell_cmds,
        headers,
        header_pop,
        libraries,
        fonts,
        font_pop,
        tmp_dir,
        backing,
    }
}

/// Builds one group's shared files (preloaded).
pub fn build_group_files(ns: &mut Namespace, rng: &mut SimRng) -> GroupFiles {
    GroupFiles {
        project_dir: ns.alloc(4_096, true, true),
        shared_db: ns.alloc(rng.range(8 << 10, 32 << 10), false, true),
        notes: ns.alloc(rng.range(4 << 10, 40 << 10), false, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::{build_user_files, Group};
    use sdfs_simkit::{FastMap, FastSet};

    fn harness() -> (Namespace, SimRng, WorkloadConfig) {
        (
            Namespace::new(),
            SimRng::seed_from_u64(0xBEEF),
            WorkloadConfig::small(),
        )
    }

    fn run_burst(
        f: impl FnOnce(&mut Ctx<'_>, &mut UserFiles, &SystemFiles, &GroupFiles),
    ) -> (Vec<AppOp>, Namespace) {
        let (mut ns, mut rng, cfg) = harness();
        let sys = build_system_files(&mut ns, &mut rng, cfg.num_clients);
        let gf = build_group_files(&mut ns, &mut rng);
        let mut uf = build_user_files(&mut ns, &mut rng, Group::Arch);
        let mut ops = Vec::new();
        let mut ctx = Ctx {
            ops: &mut ops,
            ns: &mut ns,
            rng: &mut rng,
            cfg: &cfg,
            now: SimTime::from_secs(100),
            user: UserId(1),
            client: ClientId(0),
            pid: Pid(0),
            migrated: false,
            io_scale: 1.0,
        };
        f(&mut ctx, &mut uf, &sys, &gf);
        (ops, ns)
    }

    /// Every open must be closed, every read/write/seek must reference an
    /// open handle, and per-handle times must be monotone.
    fn check_stream(ops: &[AppOp]) {
        let mut open: FastSet<Handle> = FastSet::default();
        let mut last_time: FastMap<Handle, SimTime> = FastMap::default();
        for op in ops {
            match &op.kind {
                OpKind::Open { fd, .. } => {
                    assert!(open.insert(*fd), "handle reused while open");
                    last_time.insert(*fd, op.time);
                }
                OpKind::Read { fd, .. }
                | OpKind::Write { fd, .. }
                | OpKind::Seek { fd, .. }
                | OpKind::Fsync { fd } => {
                    assert!(open.contains(fd), "I/O on closed handle");
                    let prev = last_time[fd];
                    assert!(op.time >= prev, "handle time went backwards");
                    last_time.insert(*fd, op.time);
                }
                OpKind::Close { fd } => {
                    assert!(open.remove(fd), "close of unopened handle");
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "dangling opens: {open:?}");
    }

    #[test]
    fn edit_burst_is_well_formed() {
        let (ops, _) = run_burst(|ctx, uf, sys, _gf| edit_burst(ctx, uf, sys));
        assert!(!ops.is_empty());
        check_stream(&ops);
        assert!(ops
            .iter()
            .any(|o| matches!(o.kind, OpKind::ProcStart { .. })));
    }

    #[test]
    fn compile_burst_creates_and_deletes_temps() {
        let (ops, _) =
            run_burst(|ctx, uf, sys, gf| compile_burst(ctx, uf, sys, gf, &[ClientId(1)], false));
        check_stream(&ops);
        let creates = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Create { .. }))
            .count();
        let deletes = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Delete { .. }))
            .count();
        assert!(creates > 0, "compiles create files");
        assert!(deletes > 0, "compiles delete temporaries");
    }

    #[test]
    fn migrated_compile_runs_on_other_hosts() {
        // Force migration by trying many seeds.
        let (mut ns, _, cfg) = harness();
        let mut rng = SimRng::seed_from_u64(1);
        let sys = build_system_files(&mut ns, &mut rng, cfg.num_clients);
        let gf = build_group_files(&mut ns, &mut rng);
        let mut uf = build_user_files(&mut ns, &mut rng, Group::Os);
        let mut found = false;
        for seed in 0..40 {
            let mut r = SimRng::seed_from_u64(seed);
            let mut ops = Vec::new();
            let mut ctx = Ctx {
                ops: &mut ops,
                ns: &mut ns,
                rng: &mut r,
                cfg: &cfg,
                now: SimTime::from_secs(10),
                user: UserId(2),
                client: ClientId(0),
                pid: Pid(0),
                migrated: false,
                io_scale: 1.0,
            };
            compile_burst(
                &mut ctx,
                &mut uf,
                &sys,
                &gf,
                &[ClientId(1), ClientId(2)],
                true,
            );
            if ops.iter().any(|o| o.migrated) {
                assert!(ops.iter().any(|o| o.client != ClientId(0)));
                found = true;
                break;
            }
        }
        assert!(found, "no migrated burst in 40 seeds");
    }

    #[test]
    fn mail_burst_seeks() {
        let (ops, _) = run_burst(|ctx, uf, sys, _gf| mail_burst(ctx, uf, sys, None));
        check_stream(&ops);
        assert!(
            ops.iter().any(|o| matches!(o.kind, OpKind::Seek { .. })),
            "mail scanning seeks"
        );
    }

    #[test]
    fn sim_burst_moves_megabytes_and_deletes_output() {
        let (ops, _) =
            run_burst(|ctx, uf, sys, _gf| sim_burst(ctx, uf, sys, SimProfile::HeavyWriter));
        check_stream(&ops);
        let read_bytes: u64 = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Read { len, .. } => Some(len),
                _ => None,
            })
            .sum();
        let write_bytes: u64 = ops
            .iter()
            .filter_map(|o| match o.kind {
                OpKind::Write { len, .. } => Some(len),
                _ => None,
            })
            .sum();
        assert!(read_bytes > 1 << 20, "sim reads megabytes: {read_bytes}");
        assert!(write_bytes >= 10 << 20, "heavy sim writes 10 MB");
        assert!(ops.iter().any(|o| matches!(o.kind, OpKind::Delete { .. })));
        assert!(
            ops.iter().any(|o| matches!(o.kind, OpKind::PageOut { .. })),
            "compute phases page"
        );
    }

    #[test]
    fn shared_db_burst_is_well_formed() {
        let (mut ns, mut rng, cfg) = harness();
        let gf = build_group_files(&mut ns, &mut rng);
        let mut ops = Vec::new();
        let mut ctx = Ctx {
            ops: &mut ops,
            ns: &mut ns,
            rng: &mut rng,
            cfg: &cfg,
            now: SimTime::from_secs(5),
            user: UserId(3),
            client: ClientId(2),
            pid: Pid(0),
            migrated: false,
            io_scale: 1.0,
        };
        shared_db_burst(&mut ctx, &gf);
        check_stream(&ops);
        // The session holds the file open across many seconds.
        let open_t = ops.first().expect("ops").time;
        let close_t = ops.last().expect("ops").time;
        assert!((close_t - open_t).as_secs() >= 5);
    }

    #[test]
    fn shell_and_doc_bursts_well_formed() {
        let (ops, _) = run_burst(|ctx, uf, sys, _gf| shell_burst(ctx, uf, sys));
        check_stream(&ops);
        let (ops2, _) = run_burst(|ctx, uf, sys, _gf| doc_burst(ctx, uf, sys));
        check_stream(&ops2);
    }

    #[test]
    fn parallel_sim_fans_out() {
        let hosts = [ClientId(1), ClientId(2), ClientId(3)];
        let (ops, _) = run_burst(|ctx, uf, sys, _gf| parallel_sim_burst(ctx, uf, sys, &hosts));
        check_stream(&ops);
        let clients: FastSet<ClientId> = ops.iter().map(|o| o.client).collect();
        assert!(clients.len() >= 3, "fans out to several hosts");
        assert!(ops.iter().any(|o| o.migrated));
    }

    #[test]
    fn times_never_precede_burst_start() {
        let (ops, _) = run_burst(|ctx, uf, sys, gf| compile_burst(ctx, uf, sys, gf, &[], false));
        for op in &ops {
            assert!(op.time >= SimTime::from_secs(100));
        }
    }
}
