//! The compact form a generated day waits in until the cluster takes it.
//!
//! A paper-scale day is 400K–650K operations, and an [`AppOp`] is 64
//! bytes in memory. `DayEncoder` packs each of the day's streams (a
//! user's sessions, or the daemon's housekeeping) into one shared byte
//! buffer, and [`OpStream`] decodes one stream back as the merge takes
//! it. Each operation is written against the stream's previous one:
//!
//! * the time, as a LEB128 varint of the gap since the previous
//!   operation (the first's since time zero), so each stream is sorted
//!   by time first;
//! * one tag byte: the kind in the low four bits, the open mode or
//!   `is_dir` in the next two, `migrated` above them, and in the top bit
//!   whether the client or the pid changed;
//! * the client and the pid as varints, only if they changed (on 5.5%
//!   of the eight paper traces' operations);
//! * the kind's fields in declaration order, each a LEB128 varint, but a
//!   handle as the zigzag varint of its difference from the stream's
//!   previous handle: one byte for all but 303 of the 3.47M handles in
//!   the eight paper traces, against two or three as a plain varint.
//!
//! A stream's user is stored once, with the stream: one stream is one
//! user's activity. The bytes come only from `DayEncoder`, so
//! decoding trusts them and does no checks beyond slice bounds.

use std::sync::Arc;

use sdfs_simkit::{MergeSorted, SimTime};
use sdfs_spritefs::ops::{AppOp, OpKind};
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, UserId};

/// One day's operations in time order, merged from the day's encoded
/// streams as [`Cluster::run`](sdfs_spritefs::Cluster::run) pulls them.
pub type DayOps = MergeSorted<OpStream, SimTime>;

const OPEN: u8 = 0;
const READ: u8 = 1;
const WRITE: u8 = 2;
const SEEK: u8 = 3;
const CLOSE: u8 = 4;
const FSYNC: u8 = 5;
const CREATE: u8 = 6;
const DELETE: u8 = 7;
const TRUNCATE: u8 = 8;
const READ_DIR: u8 = 9;
const PROC_START: u8 = 10;
const PROC_EXIT: u8 = 11;
const PAGE_IN: u8 = 12;
const PAGE_OUT: u8 = 13;

const KIND_BITS: u8 = 0x0f;
/// The open mode, or `is_dir`, sits above the kind.
const ARG_SHIFT: u32 = 4;
const MIGRATED: u8 = 0x40;
/// The client or the pid differs from the previous operation's.
const NEW_PROCESS: u8 = 0x80;

/// The most bytes one operation takes: a 10-byte time gap, the tag, a
/// 3-byte client, a 5-byte pid and four 10-byte fields.
const MAX_OP_BYTES: usize = 10 + 1 + 3 + 5 + 40;

/// What each operation of a stream is written against: the previous
/// operation's time, client and pid, and the previous handle.
#[derive(Debug, Clone, Copy, Default)]
struct Prev {
    /// In microseconds.
    time: u64,
    client: ClientId,
    pid: Pid,
    fd: u64,
}

/// One stream's place in the day's buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    /// Its first byte.
    start: usize,
    /// How many operations it holds.
    ops: usize,
    /// Whose they are.
    user: UserId,
}

/// The streams of one day, encoded end to end into one byte buffer.
#[derive(Debug, Default)]
pub(crate) struct DayEncoder {
    bytes: Vec<u8>,
    streams: Vec<Span>,
}

impl DayEncoder {
    /// Stably sorts `ops` by time and appends them as the day's next
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics unless every operation in `ops` has the same user.
    pub fn push_stream(&mut self, ops: &mut [AppOp]) {
        ops.sort_by_key(|op| op.time);
        let user = ops.first().map_or(UserId(0), |op| op.user);
        self.streams.push(Span {
            start: self.bytes.len(),
            ops: ops.len(),
            user,
        });
        let mut prev = Prev::default();
        let mut buf = OpBuf::default();
        for op in ops.iter() {
            assert_eq!(op.user, user, "one stream holds one user's operations");
            buf.len = 0;
            let time = op.time.as_micros();
            buf.varint(time - prev.time);
            prev.time = time;
            let new_process = (op.client, op.pid) != (prev.client, prev.pid);
            let (kind, arg) = tag(&op.kind);
            buf.byte(
                kind | (arg << ARG_SHIFT)
                    | if op.migrated { MIGRATED } else { 0 }
                    | if new_process { NEW_PROCESS } else { 0 },
            );
            if new_process {
                buf.varint(op.client.raw().into());
                buf.varint(op.pid.raw().into());
                (prev.client, prev.pid) = (op.client, op.pid);
            }
            match op.kind {
                OpKind::Open { fd, file, .. } => {
                    buf.fd(fd, &mut prev.fd);
                    buf.varint(file.raw());
                }
                OpKind::Read { fd, len } | OpKind::Write { fd, len } => {
                    buf.fd(fd, &mut prev.fd);
                    buf.varint(len);
                }
                OpKind::Seek { fd, to } => {
                    buf.fd(fd, &mut prev.fd);
                    buf.varint(to);
                }
                OpKind::Close { fd } | OpKind::Fsync { fd } => buf.fd(fd, &mut prev.fd),
                OpKind::Create { file, .. }
                | OpKind::Delete { file }
                | OpKind::Truncate { file } => buf.varint(file.raw()),
                OpKind::ReadDir { dir, bytes } => buf.fields(&[dir.raw(), bytes]),
                OpKind::ProcStart {
                    exec,
                    code_bytes,
                    data_bytes,
                    heap_bytes,
                } => buf.fields(&[exec.raw(), code_bytes, data_bytes, heap_bytes]),
                OpKind::ProcExit => {}
                OpKind::PageIn {
                    file,
                    offset,
                    bytes,
                }
                | OpKind::PageOut {
                    file,
                    offset,
                    bytes,
                } => buf.fields(&[file.raw(), offset, bytes]),
            }
            self.bytes.extend_from_slice(&buf.bytes[..buf.len]);
        }
    }

    /// Hands the buffer over, trimmed to what the streams use, with each
    /// stream's place in it.
    pub(crate) fn seal(self) -> (Arc<Vec<u8>>, Vec<Span>) {
        let mut bytes = self.bytes;
        bytes.shrink_to_fit();
        (Arc::new(bytes), self.streams)
    }

    /// A decoder per stream, in the order pushed, all sharing the buffer.
    fn into_streams(self) -> impl Iterator<Item = OpStream> {
        let (bytes, streams) = self.seal();
        streams.into_iter().map(move |span| OpStream {
            bytes: Arc::clone(&bytes),
            pos: span.start,
            left: span.ops,
            prev: Prev::default(),
            user: span.user,
        })
    }

    /// The day's operations in time order: simkit's merge over the
    /// streams' decoders. A time tie across streams goes to the stream
    /// pushed first, so the day is exactly what a stable sort by time of
    /// every stream, laid end to end in the order pushed, gives.
    pub fn finish(self) -> DayOps {
        MergeSorted::new(self.into_streams(), |op| op.time)
    }
}

/// The tag byte's kind, and the open mode or `is_dir` it carries.
fn tag(kind: &OpKind) -> (u8, u8) {
    match *kind {
        OpKind::Open { mode, .. } => (
            OPEN,
            match mode {
                OpenMode::Read => 0,
                OpenMode::Write => 1,
                OpenMode::ReadWrite => 2,
            },
        ),
        OpKind::Read { .. } => (READ, 0),
        OpKind::Write { .. } => (WRITE, 0),
        OpKind::Seek { .. } => (SEEK, 0),
        OpKind::Close { .. } => (CLOSE, 0),
        OpKind::Fsync { .. } => (FSYNC, 0),
        OpKind::Create { is_dir, .. } => (CREATE, is_dir.into()),
        OpKind::Delete { .. } => (DELETE, 0),
        OpKind::Truncate { .. } => (TRUNCATE, 0),
        OpKind::ReadDir { .. } => (READ_DIR, 0),
        OpKind::ProcStart { .. } => (PROC_START, 0),
        OpKind::ProcExit => (PROC_EXIT, 0),
        OpKind::PageIn { .. } => (PAGE_IN, 0),
        OpKind::PageOut { .. } => (PAGE_OUT, 0),
    }
}

/// One operation's bytes, gathered on the stack and appended to the
/// day's buffer at once.
struct OpBuf {
    bytes: [u8; MAX_OP_BYTES],
    len: usize,
}

impl Default for OpBuf {
    fn default() -> Self {
        OpBuf {
            bytes: [0; MAX_OP_BYTES],
            len: 0,
        }
    }
}

impl OpBuf {
    fn byte(&mut self, b: u8) {
        self.bytes[self.len] = b;
        self.len += 1;
    }

    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    fn fields(&mut self, fields: &[u64]) {
        for &v in fields {
            self.varint(v);
        }
    }

    /// `fd` as the zigzag varint of its step from `prev`, which it
    /// becomes.
    fn fd(&mut self, fd: Handle, prev: &mut u64) {
        let step = fd.raw().wrapping_sub(*prev) as i64;
        self.varint(((step << 1) ^ (step >> 63)) as u64);
        *prev = fd.raw();
    }
}

/// One encoded stream of a day, decoded an operation at a time.
///
/// Cloning shares the day's buffer and copies only the cursor, so a
/// clone resumes exactly where it was taken.
#[derive(Debug, Clone)]
pub struct OpStream {
    bytes: Arc<Vec<u8>>,
    /// The next operation's first byte.
    pos: usize,
    /// Operations not yet decoded.
    left: usize,
    prev: Prev,
    user: UserId,
}

/// A cursor over the day's bytes, for decoding one operation.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    #[inline]
    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    #[inline]
    fn varint(&mut self) -> u64 {
        let b = self.byte();
        if b < 0x80 {
            return b.into();
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    #[inline]
    fn file(&mut self) -> FileId {
        FileId(self.varint())
    }

    /// The handle `prev` steps to ([`OpBuf::fd`]), which it becomes.
    #[inline]
    fn fd(&mut self, prev: &mut u64) -> Handle {
        let zigzag = self.varint();
        let step = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        *prev = prev.wrapping_add(step as u64);
        Handle(*prev)
    }
}

impl Iterator for OpStream {
    type Item = AppOp;

    // Inlined into the merge, in the crate that runs the day.
    #[inline(always)]
    fn next(&mut self) -> Option<AppOp> {
        self.left = self.left.checked_sub(1)?;
        let mut r = Reader {
            bytes: &self.bytes,
            pos: self.pos,
        };
        let prev = &mut self.prev;
        prev.time += r.varint();
        let tag = r.byte();
        if tag & NEW_PROCESS != 0 {
            // The encoder wrote these from a `u16` and a `u32`.
            prev.client = ClientId(r.varint() as u16);
            prev.pid = Pid(r.varint() as u32);
        }
        let arg = (tag >> ARG_SHIFT) & 0x3;
        let kind = match tag & KIND_BITS {
            OPEN => OpKind::Open {
                fd: r.fd(&mut prev.fd),
                file: r.file(),
                mode: match arg {
                    0 => OpenMode::Read,
                    1 => OpenMode::Write,
                    _ => OpenMode::ReadWrite,
                },
            },
            READ => OpKind::Read {
                fd: r.fd(&mut prev.fd),
                len: r.varint(),
            },
            WRITE => OpKind::Write {
                fd: r.fd(&mut prev.fd),
                len: r.varint(),
            },
            SEEK => OpKind::Seek {
                fd: r.fd(&mut prev.fd),
                to: r.varint(),
            },
            CLOSE => OpKind::Close {
                fd: r.fd(&mut prev.fd),
            },
            FSYNC => OpKind::Fsync {
                fd: r.fd(&mut prev.fd),
            },
            CREATE => OpKind::Create {
                file: r.file(),
                is_dir: arg != 0,
            },
            DELETE => OpKind::Delete { file: r.file() },
            TRUNCATE => OpKind::Truncate { file: r.file() },
            READ_DIR => OpKind::ReadDir {
                dir: r.file(),
                bytes: r.varint(),
            },
            PROC_START => OpKind::ProcStart {
                exec: r.file(),
                code_bytes: r.varint(),
                data_bytes: r.varint(),
                heap_bytes: r.varint(),
            },
            PROC_EXIT => OpKind::ProcExit,
            PAGE_IN => OpKind::PageIn {
                file: r.file(),
                offset: r.varint(),
                bytes: r.varint(),
            },
            PAGE_OUT => OpKind::PageOut {
                file: r.file(),
                offset: r.varint(),
                bytes: r.varint(),
            },
            other => unreachable!("the encoder writes no kind {other}"),
        };
        self.pos = r.pos;
        Some(AppOp {
            time: SimTime::from_micros(prev.time),
            client: prev.client,
            user: self.user,
            pid: prev.pid,
            migrated: tag & MIGRATED != 0,
            kind,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for OpStream {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Field values at the varint's byte boundaries and the types' ends.
    const VALUES: [u64; 5] = [0, 127, 128, u32::MAX as u64, u64::MAX];

    /// Every kind with every field `v`, and every open mode.
    fn kinds(v: u64) -> Vec<OpKind> {
        let mut kinds: Vec<OpKind> = [OpenMode::Read, OpenMode::Write, OpenMode::ReadWrite]
            .into_iter()
            .map(|mode| OpKind::Open {
                fd: Handle(v),
                file: FileId(v),
                mode,
            })
            .collect();
        kinds.extend([
            OpKind::Read {
                fd: Handle(v),
                len: v,
            },
            OpKind::Write {
                fd: Handle(v),
                len: v,
            },
            OpKind::Seek {
                fd: Handle(v),
                to: v,
            },
            OpKind::Close { fd: Handle(v) },
            OpKind::Fsync { fd: Handle(v) },
            OpKind::Create {
                file: FileId(v),
                is_dir: false,
            },
            OpKind::Create {
                file: FileId(v),
                is_dir: true,
            },
            OpKind::Delete { file: FileId(v) },
            OpKind::Truncate { file: FileId(v) },
            OpKind::ReadDir {
                dir: FileId(v),
                bytes: v,
            },
            OpKind::ProcStart {
                exec: FileId(v),
                code_bytes: v,
                data_bytes: v,
                heap_bytes: v,
            },
            OpKind::ProcExit,
            OpKind::PageIn {
                file: FileId(v),
                offset: v,
                bytes: v,
            },
            OpKind::PageOut {
                file: FileId(v),
                offset: v,
                bytes: v,
            },
        ]);
        kinds
    }

    /// A stream of `user` holding every kind at every field value, the
    /// values rising and then falling (so handles step up and down),
    /// with `migrated` both ways, clients and pids up to their largest,
    /// and gaps between times of 0 (equal times), 1, 127, 128 and
    /// 2^40 µs, ending at the last representable time.
    fn every_op(user: UserId) -> Vec<AppOp> {
        let gaps = [0, 1, 127, 128, 0, 1 << 40];
        let mut time = 0;
        let mut ops = Vec::new();
        let values = VALUES.iter().chain(VALUES.iter().rev());
        for (i, kind) in values.flat_map(|&v| kinds(v)).enumerate() {
            time += gaps[i % gaps.len()];
            let v = VALUES[i % VALUES.len()];
            ops.push(AppOp {
                time: SimTime::from_micros(time),
                client: ClientId(v.min(u16::MAX.into()) as u16),
                user,
                pid: Pid(v.min(u32::MAX.into()) as u32),
                migrated: i % 2 == 1,
                kind,
            });
        }
        let mut last = ops[ops.len() - 1].clone();
        last.time = SimTime::MAX;
        ops.push(last);
        ops
    }

    /// Each stream decodes to exactly the operations pushed: an empty
    /// stream, a one-op stream and a stream of every kind and field
    /// extreme, for the largest user, client and pid.
    #[test]
    fn every_stream_decodes_to_exactly_what_was_encoded() {
        let full = every_op(UserId(u32::MAX));
        let kinds_seen: std::collections::BTreeSet<&str> =
            full.iter().map(AppOp::kind_name).collect();
        assert_eq!(kinds_seen.len(), 14, "every kind: {kinds_seen:?}");
        assert!(full.iter().any(|op| op.client == ClientId(u16::MAX)));
        assert!(full.iter().any(|op| op.pid == Pid(u32::MAX)));
        assert!(full.windows(2).any(|w| w[0].time == w[1].time));
        let one = vec![AppOp {
            time: SimTime::MAX,
            client: ClientId(u16::MAX),
            user: UserId(7),
            pid: Pid(u32::MAX),
            migrated: true,
            kind: OpKind::ProcExit,
        }];
        let streams = [Vec::new(), one, full.clone(), Vec::new(), full];
        let mut encoder = DayEncoder::default();
        for stream in &streams {
            encoder.push_stream(&mut stream.clone());
        }
        let decoders: Vec<OpStream> = encoder.into_streams().collect();
        assert_eq!(decoders.len(), streams.len());
        for (s, (decoder, want)) in decoders.into_iter().zip(&streams).enumerate() {
            assert_eq!(decoder.len(), want.len(), "stream {s}");
            let got: Vec<AppOp> = decoder.collect();
            assert!(got == *want, "stream {s} decodes differently");
        }
    }

    #[test]
    #[should_panic(expected = "one stream holds one user's operations")]
    fn a_stream_of_two_users_is_refused() {
        let mut ops = every_op(UserId(1));
        ops[3].user = UserId(2);
        DayEncoder::default().push_stream(&mut ops);
    }
}
