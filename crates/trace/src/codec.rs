//! The binary encoding of trace records, and their text rendering.
//!
//! The binary form is a deterministic little-endian layout: an 8-byte
//! stream magic (`SDFSTRC1`) followed by records, each a 1-byte kind tag,
//! a fixed common header, and kind-specific fields. There is no
//! compression and no schema negotiation — a trace written by one build
//! reads identically in any other, which is what reproducibility needs.
//!
//! The text form is one tab-separated line per record, written by
//! `tracetool dump` for `grep`/`awk` spelunking. Nothing parses it back:
//! the binary form is the only one read.

use std::io::{Read, Write};

use sdfs_simkit::{SimDuration, SimTime};

use crate::ids::{ClientId, FileId, Handle, Pid, UserId};
use crate::record::{OpenMode, Record, RecordKind};
use crate::{Result, TraceError};

/// Stream magic identifying a binary trace.
pub const MAGIC: &[u8; 8] = b"SDFSTRC1";

const TAG_OPEN: u8 = 1;
const TAG_REPOSITION: u8 = 2;
const TAG_CLOSE: u8 = 3;
const TAG_CREATE: u8 = 4;
const TAG_DELETE: u8 = 5;
const TAG_TRUNCATE: u8 = 6;
const TAG_SHARED_READ: u8 = 7;
const TAG_SHARED_WRITE: u8 = 8;
const TAG_DIR_READ: u8 = 9;

fn mode_to_u8(m: OpenMode) -> u8 {
    match m {
        OpenMode::Read => 0,
        OpenMode::Write => 1,
        OpenMode::ReadWrite => 2,
    }
}

fn mode_from_u8(v: u8) -> Result<OpenMode> {
    match v {
        0 => Ok(OpenMode::Read),
        1 => Ok(OpenMode::Write),
        2 => Ok(OpenMode::ReadWrite),
        _ => Err(TraceError::Corrupt(format!("bad open mode {v}"))),
    }
}

struct Enc<'a, W: Write>(&'a mut W);

impl<W: Write> Enc<'_, W> {
    fn u8(&mut self, v: u8) -> Result<()> {
        self.0.write_all(&[v])?;
        Ok(())
    }

    fn u16(&mut self, v: u16) -> Result<()> {
        self.0.write_all(&v.to_le_bytes())?;
        Ok(())
    }

    fn u32(&mut self, v: u32) -> Result<()> {
        self.0.write_all(&v.to_le_bytes())?;
        Ok(())
    }

    fn u64(&mut self, v: u64) -> Result<()> {
        self.0.write_all(&v.to_le_bytes())?;
        Ok(())
    }
}

struct Dec<'a, R: Read>(&'a mut R);

impl<R: Read> Dec<'_, R> {
    fn u8(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.0.read_exact(&mut b)?;
        Ok(b[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let mut b = [0u8; 2];
        self.0.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.0.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.0.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

/// Writes the stream magic.
pub fn write_magic<W: Write>(w: &mut W) -> Result<()> {
    w.write_all(MAGIC)?;
    Ok(())
}

/// Reads and validates the stream magic.
pub fn read_magic<R: Read>(r: &mut R) -> Result<()> {
    let mut m = [0u8; 8];
    r.read_exact(&mut m)?;
    if &m != MAGIC {
        return Err(TraceError::Corrupt("bad stream magic".into()));
    }
    Ok(())
}

/// Encodes one record to `w`.
pub fn write_record<W: Write>(w: &mut W, rec: &Record) -> Result<()> {
    let mut e = Enc(w);
    let tag = match rec.kind {
        RecordKind::Open { .. } => TAG_OPEN,
        RecordKind::Reposition { .. } => TAG_REPOSITION,
        RecordKind::Close { .. } => TAG_CLOSE,
        RecordKind::Create { .. } => TAG_CREATE,
        RecordKind::Delete { .. } => TAG_DELETE,
        RecordKind::Truncate { .. } => TAG_TRUNCATE,
        RecordKind::SharedRead { .. } => TAG_SHARED_READ,
        RecordKind::SharedWrite { .. } => TAG_SHARED_WRITE,
        RecordKind::DirRead { .. } => TAG_DIR_READ,
    };
    e.u8(tag)?;
    e.u64(rec.time.as_micros())?;
    e.u16(rec.client.raw())?;
    e.u32(rec.user.raw())?;
    e.u32(rec.pid.raw())?;
    e.u8(rec.migrated as u8)?;
    match &rec.kind {
        RecordKind::Open {
            fd,
            file,
            mode,
            size,
            is_dir,
        } => {
            e.u64(fd.raw())?;
            e.u64(file.raw())?;
            e.u8(mode_to_u8(*mode))?;
            e.u64(*size)?;
            e.u8(*is_dir as u8)?;
        }
        RecordKind::Reposition {
            fd,
            file,
            from,
            to,
            run_read,
            run_written,
        } => {
            e.u64(fd.raw())?;
            e.u64(file.raw())?;
            e.u64(*from)?;
            e.u64(*to)?;
            e.u64(*run_read)?;
            e.u64(*run_written)?;
        }
        RecordKind::Close {
            fd,
            file,
            offset,
            run_read,
            run_written,
            total_read,
            total_written,
            size,
            opened_at,
        } => {
            e.u64(fd.raw())?;
            e.u64(file.raw())?;
            e.u64(*offset)?;
            e.u64(*run_read)?;
            e.u64(*run_written)?;
            e.u64(*total_read)?;
            e.u64(*total_written)?;
            e.u64(*size)?;
            e.u64(opened_at.as_micros())?;
        }
        RecordKind::Create { file, is_dir } => {
            e.u64(file.raw())?;
            e.u8(*is_dir as u8)?;
        }
        RecordKind::Delete {
            file,
            size,
            is_dir,
            oldest_age,
            newest_age,
        } => {
            e.u64(file.raw())?;
            e.u64(*size)?;
            e.u8(*is_dir as u8)?;
            e.u64(oldest_age.as_micros())?;
            e.u64(newest_age.as_micros())?;
        }
        RecordKind::Truncate {
            file,
            old_size,
            oldest_age,
            newest_age,
        } => {
            e.u64(file.raw())?;
            e.u64(*old_size)?;
            e.u64(oldest_age.as_micros())?;
            e.u64(newest_age.as_micros())?;
        }
        RecordKind::SharedRead { file, offset, len }
        | RecordKind::SharedWrite { file, offset, len } => {
            e.u64(file.raw())?;
            e.u64(*offset)?;
            e.u64(*len)?;
        }
        RecordKind::DirRead { file, bytes } => {
            e.u64(file.raw())?;
            e.u64(*bytes)?;
        }
    }
    Ok(())
}

/// Decodes one record from `r`, or returns `Ok(None)` at a clean
/// end-of-stream (EOF exactly at a record boundary).
pub fn read_record<R: Read>(r: &mut R) -> Result<Option<Record>> {
    let mut tag_buf = [0u8; 1];
    match r.read(&mut tag_buf)? {
        0 => return Ok(None),
        1 => {}
        _ => unreachable!("read of 1-byte buffer returned >1"),
    }
    let tag = tag_buf[0];
    let mut d = Dec(r);
    let time = SimTime::from_micros(d.u64()?);
    let client = ClientId(d.u16()?);
    let user = UserId(d.u32()?);
    let pid = Pid(d.u32()?);
    let migrated = d.u8()? != 0;
    let kind = match tag {
        TAG_OPEN => RecordKind::Open {
            fd: Handle(d.u64()?),
            file: FileId(d.u64()?),
            mode: mode_from_u8(d.u8()?)?,
            size: d.u64()?,
            is_dir: d.u8()? != 0,
        },
        TAG_REPOSITION => RecordKind::Reposition {
            fd: Handle(d.u64()?),
            file: FileId(d.u64()?),
            from: d.u64()?,
            to: d.u64()?,
            run_read: d.u64()?,
            run_written: d.u64()?,
        },
        TAG_CLOSE => RecordKind::Close {
            fd: Handle(d.u64()?),
            file: FileId(d.u64()?),
            offset: d.u64()?,
            run_read: d.u64()?,
            run_written: d.u64()?,
            total_read: d.u64()?,
            total_written: d.u64()?,
            size: d.u64()?,
            opened_at: SimTime::from_micros(d.u64()?),
        },
        TAG_CREATE => RecordKind::Create {
            file: FileId(d.u64()?),
            is_dir: d.u8()? != 0,
        },
        TAG_DELETE => RecordKind::Delete {
            file: FileId(d.u64()?),
            size: d.u64()?,
            is_dir: d.u8()? != 0,
            oldest_age: SimDuration::from_micros(d.u64()?),
            newest_age: SimDuration::from_micros(d.u64()?),
        },
        TAG_TRUNCATE => RecordKind::Truncate {
            file: FileId(d.u64()?),
            old_size: d.u64()?,
            oldest_age: SimDuration::from_micros(d.u64()?),
            newest_age: SimDuration::from_micros(d.u64()?),
        },
        TAG_SHARED_READ => RecordKind::SharedRead {
            file: FileId(d.u64()?),
            offset: d.u64()?,
            len: d.u64()?,
        },
        TAG_SHARED_WRITE => RecordKind::SharedWrite {
            file: FileId(d.u64()?),
            offset: d.u64()?,
            len: d.u64()?,
        },
        TAG_DIR_READ => RecordKind::DirRead {
            file: FileId(d.u64()?),
            bytes: d.u64()?,
        },
        other => {
            return Err(TraceError::Corrupt(format!("unknown record tag {other}")));
        }
    };
    Ok(Some(Record {
        time,
        client,
        user,
        pid,
        migrated,
        kind,
    }))
}

/// Renders a record as one tab-separated text line (no trailing newline).
pub fn to_text_line(rec: &Record) -> String {
    let head = format!(
        "{}\t{}\t{}\t{}\t{}\t{}",
        rec.time.as_micros(),
        rec.client.raw(),
        rec.user.raw(),
        rec.pid.raw(),
        rec.migrated as u8,
        rec.kind_name(),
    );
    let tail = match &rec.kind {
        RecordKind::Open {
            fd,
            file,
            mode,
            size,
            is_dir,
        } => format!(
            "{}\t{}\t{}\t{}\t{}",
            fd.raw(),
            file.raw(),
            mode_to_u8(*mode),
            size,
            *is_dir as u8
        ),
        RecordKind::Reposition {
            fd,
            file,
            from,
            to,
            run_read,
            run_written,
        } => format!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            fd.raw(),
            file.raw(),
            from,
            to,
            run_read,
            run_written
        ),
        RecordKind::Close {
            fd,
            file,
            offset,
            run_read,
            run_written,
            total_read,
            total_written,
            size,
            opened_at,
        } => format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            fd.raw(),
            file.raw(),
            offset,
            run_read,
            run_written,
            total_read,
            total_written,
            size,
            opened_at.as_micros()
        ),
        RecordKind::Create { file, is_dir } => {
            format!("{}\t{}", file.raw(), *is_dir as u8)
        }
        RecordKind::Delete {
            file,
            size,
            is_dir,
            oldest_age,
            newest_age,
        } => format!(
            "{}\t{}\t{}\t{}\t{}",
            file.raw(),
            size,
            *is_dir as u8,
            oldest_age.as_micros(),
            newest_age.as_micros()
        ),
        RecordKind::Truncate {
            file,
            old_size,
            oldest_age,
            newest_age,
        } => format!(
            "{}\t{}\t{}\t{}",
            file.raw(),
            old_size,
            oldest_age.as_micros(),
            newest_age.as_micros()
        ),
        RecordKind::SharedRead { file, offset, len }
        | RecordKind::SharedWrite { file, offset, len } => {
            format!("{}\t{}\t{}", file.raw(), offset, len)
        }
        RecordKind::DirRead { file, bytes } => format!("{}\t{}", file.raw(), bytes),
    };
    format!("{head}\t{tail}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        let base = Record {
            time: SimTime::from_millis(1234),
            client: ClientId(7),
            user: UserId(42),
            pid: Pid(100),
            migrated: true,
            kind: RecordKind::Create {
                file: FileId(1),
                is_dir: false,
            },
        };
        let mut v = Vec::new();
        let mut push = |kind: RecordKind| {
            let mut r = base.clone();
            r.kind = kind;
            v.push(r);
        };
        push(RecordKind::Open {
            fd: Handle(11),
            file: FileId(5),
            mode: OpenMode::ReadWrite,
            size: 9999,
            is_dir: false,
        });
        push(RecordKind::Reposition {
            fd: Handle(11),
            file: FileId(5),
            from: 100,
            to: 5000,
            run_read: 100,
            run_written: 0,
        });
        push(RecordKind::Close {
            fd: Handle(11),
            file: FileId(5),
            offset: 5100,
            run_read: 100,
            run_written: 0,
            total_read: 200,
            total_written: 10,
            size: 9999,
            opened_at: SimTime::from_millis(1000),
        });
        push(RecordKind::Create {
            file: FileId(6),
            is_dir: true,
        });
        push(RecordKind::Delete {
            file: FileId(6),
            size: 512,
            is_dir: true,
            oldest_age: SimDuration::from_secs(60),
            newest_age: SimDuration::from_secs(2),
        });
        push(RecordKind::Truncate {
            file: FileId(5),
            old_size: 9999,
            oldest_age: SimDuration::from_secs(100),
            newest_age: SimDuration::from_secs(1),
        });
        push(RecordKind::SharedRead {
            file: FileId(5),
            offset: 0,
            len: 88,
        });
        push(RecordKind::SharedWrite {
            file: FileId(5),
            offset: 88,
            len: 12,
        });
        push(RecordKind::DirRead {
            file: FileId(2),
            bytes: 2048,
        });
        v
    }

    #[test]
    fn binary_round_trip() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_magic(&mut buf).expect("write magic");
        for r in &records {
            write_record(&mut buf, r).expect("write record");
        }
        let mut cursor = &buf[..];
        read_magic(&mut cursor).expect("read magic");
        let mut out = Vec::new();
        while let Some(r) = read_record(&mut cursor).expect("read record") {
            out.push(r);
        }
        assert_eq!(out, records);
    }

    /// `tracetool dump` prints these lines, so their layout is pinned
    /// for every record kind: the common header, the kind name, then the
    /// kind's fields in declaration order.
    #[test]
    fn text_line_is_stable() {
        let lines: Vec<String> = sample_records().iter().map(to_text_line).collect();
        let head = "1234000\t7\t42\t100\t1";
        let want = [
            "open\t11\t5\t2\t9999\t0",
            "reposition\t11\t5\t100\t5000\t100\t0",
            "close\t11\t5\t5100\t100\t0\t200\t10\t9999\t1000000",
            "create\t6\t1",
            "delete\t6\t512\t1\t60000000\t2000000",
            "truncate\t5\t9999\t100000000\t1000000",
            "shared_read\t5\t0\t88",
            "shared_write\t5\t88\t12",
            "dir_read\t2\t2048",
        ];
        let want: Vec<String> = want.iter().map(|tail| format!("{head}\t{tail}")).collect();
        assert_eq!(lines, want);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTATRCE".to_vec();
        let mut cursor = &buf[..];
        assert!(matches!(
            read_magic(&mut cursor),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = Vec::new();
        buf.push(200u8); // bogus tag
        buf.extend_from_slice(&[0u8; 19]); // header bytes
        let mut cursor = &buf[..];
        assert!(matches!(
            read_record(&mut cursor),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_record_is_io_error() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_record(&mut buf, &records[0]).expect("write");
        buf.truncate(buf.len() - 3);
        let mut cursor = &buf[..];
        assert!(matches!(read_record(&mut cursor), Err(TraceError::Io(_))));
    }

    /// The binary format is a stability contract: traces written today
    /// must decode forever. This pins the exact bytes of one record of
    /// each fixed-size field family.
    #[test]
    fn binary_format_is_stable() {
        let rec = Record {
            time: SimTime::from_micros(0x0102_0304_0506_0708),
            client: ClientId(0x1122),
            user: UserId(0x3344_5566),
            pid: Pid(0x7788_99AA),
            migrated: true,
            kind: RecordKind::SharedRead {
                file: FileId(0xDEAD_BEEF),
                offset: 0x10,
                len: 0x20,
            },
        };
        let mut buf = Vec::new();
        write_record(&mut buf, &rec).expect("encode");
        let expected: Vec<u8> = vec![
            7, // SharedRead tag
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // time LE
            0x22, 0x11, // client LE
            0x66, 0x55, 0x44, 0x33, // user LE
            0xAA, 0x99, 0x88, 0x77, // pid LE
            1,    // migrated
            0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0, 0, // file LE
            0x10, 0, 0, 0, 0, 0, 0, 0, // offset LE
            0x20, 0, 0, 0, 0, 0, 0, 0, // len LE
        ];
        assert_eq!(buf, expected, "binary layout changed — bump the magic");
        assert_eq!(MAGIC, b"SDFSTRC1");
    }

    #[test]
    fn clean_eof_returns_none() {
        let buf: Vec<u8> = Vec::new();
        let mut cursor = &buf[..];
        assert!(read_record(&mut cursor).expect("eof").is_none());
    }
}
