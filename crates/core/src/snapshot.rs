//! Serialization of joiner window snapshots for checkpointing.
//!
//! A checkpoint persists, per joiner task, the records currently alive in
//! that task's window — exactly what [`StreamJoiner::window_snapshot`]
//! returns, tagged with the bi-stream [`Side`] when the joiner runs an R–S
//! join. The encoding reuses the `ssj-text` binary record codec so
//! snapshot files are readable by the same tooling as encoded streams:
//!
//! ```text
//! magic  u32 LE  = 0x5057_4e53  ("SNWP")
//! count  u32 LE
//! count × { side u8 (0 = none, 1 = left, 2 = right), record (ssj-text) }
//! ```
//!
//! Entries are written (and validated on decode to be) in strictly
//! ascending record-id order — the arrival order every joiner's
//! `window_snapshot` already guarantees, and the order `restore` expects.
//!
//! A checkpoint encodes a live joiner with [`encode_joiner`] or
//! [`encode_bistream`]: straight from its
//! [`visit_window`](StreamJoiner::visit_window) walk into one
//! buffer, building no [`Record`]. Their bytes equal
//! [`encode_window_vec`] of the same joiner's `window_snapshot`.

use crate::join::{BiStreamJoiner, Side, StreamJoiner};
use ssj_text::codec::{decode_record, encode_record};
use ssj_text::{Record, RecordId, TokenId};
use std::io::{self, Cursor, Read, Write};

/// Magic number leading every window snapshot.
const MAGIC: u32 = 0x5057_4e53;

/// Most entries [`decode_window`] reserves room for before it has read
/// any: the count comes from disk, so a corrupt header must not size an
/// allocation. Larger windows grow as their entries arrive.
const PREALLOC_ENTRIES: usize = 1024;

/// One snapshot entry: a live window record, side-tagged iff it belongs to
/// a bi-stream joiner.
pub type SnapshotEntry = (Option<Side>, Record);

fn side_tag(side: Option<Side>) -> u8 {
    match side {
        None => 0,
        Some(Side::Left) => 1,
        Some(Side::Right) => 2,
    }
}

fn tag_side(tag: u8) -> io::Result<Option<Side>> {
    match tag {
        0 => Ok(None),
        1 => Ok(Some(Side::Left)),
        2 => Ok(Some(Side::Right)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad snapshot side tag {other}"),
        )),
    }
}

/// Encodes a window snapshot to `out`. Returns the number of bytes
/// written.
///
/// # Errors
/// Fails on any I/O error, or if `entries` is not in strictly ascending
/// record-id order (a corrupt snapshot must never be written).
pub fn encode_window<W: Write>(entries: &[SnapshotEntry], out: &mut W) -> io::Result<u64> {
    let count = u32::try_from(entries.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "snapshot too large"))?;
    out.write_all(&MAGIC.to_le_bytes())?;
    out.write_all(&count.to_le_bytes())?;
    let mut bytes = 8u64;
    let mut prev: Option<u64> = None;
    for (side, record) in entries {
        if prev.is_some_and(|p| p >= record.id().0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot entries must be in strictly ascending id order",
            ));
        }
        prev = Some(record.id().0);
        out.write_all(&[side_tag(*side)])?;
        bytes += 1 + encode_record(record, out)?;
    }
    Ok(bytes)
}

/// Encodes a window snapshot into a fresh byte vector.
///
/// # Errors
/// See [`encode_window`].
pub fn encode_window_vec(entries: &[SnapshotEntry]) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    encode_window(entries, &mut buf)?;
    Ok(buf)
}

/// Encodes a window snapshot entry by entry into one buffer: the header,
/// then each entry as it is pushed, with the count patched in by
/// [`finish`](Self::finish).
struct WindowEncoder {
    buf: Vec<u8>,
    count: u32,
    prev: Option<RecordId>,
    error: Option<io::Error>,
}

impl WindowEncoder {
    fn new() -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        Self {
            buf,
            count: 0,
            prev: None,
            error: None,
        }
    }

    /// Appends one entry in the record codec's layout: id, timestamp,
    /// token count, tokens, all little-endian.
    fn push(&mut self, side: Option<Side>, id: RecordId, ts: u64, tokens: &[TokenId]) {
        if self.error.is_some() {
            return;
        }
        if self.prev.is_some_and(|p| p >= id) {
            self.error = Some(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot entries must be in strictly ascending id order",
            ));
            return;
        }
        let Some(count) = self.count.checked_add(1) else {
            self.error = Some(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot too large",
            ));
            return;
        };
        (self.count, self.prev) = (count, Some(id));
        // Sized once, then filled in place: the token loop is a plain
        // copy the compiler can vectorize.
        let start = self.buf.len();
        self.buf.resize(start + 21 + 4 * tokens.len(), 0);
        let (head, body) = self.buf[start..].split_at_mut(21);
        head[0] = side_tag(side);
        head[1..9].copy_from_slice(&id.0.to_le_bytes());
        head[9..17].copy_from_slice(&ts.to_le_bytes());
        head[17..21].copy_from_slice(&(tokens.len() as u32).to_le_bytes());
        for (out, t) in body.chunks_exact_mut(4).zip(tokens) {
            out.copy_from_slice(&t.raw().to_le_bytes());
        }
    }

    fn finish(mut self) -> io::Result<Vec<u8>> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.buf[4..8].copy_from_slice(&self.count.to_le_bytes());
        Ok(self.buf)
    }
}

/// Encodes `joiner`'s live window (untagged entries) straight from its
/// [`visit_window`](StreamJoiner::visit_window) walk.
///
/// # Errors
/// Fails if the walk is not in strictly ascending id order or holds more
/// than `u32::MAX` records.
pub fn encode_joiner<J: StreamJoiner + ?Sized>(joiner: &J) -> io::Result<Vec<u8>> {
    let mut enc = WindowEncoder::new();
    joiner.visit_window(&mut |id, ts, tokens| enc.push(None, id, ts, tokens));
    enc.finish()
}

/// Encodes a bi-stream joiner's live window (side-tagged entries) straight
/// from its [`visit_window`](BiStreamJoiner::visit_window) walk.
///
/// # Errors
/// See [`encode_joiner`].
pub fn encode_bistream<J: StreamJoiner>(joiner: &BiStreamJoiner<J>) -> io::Result<Vec<u8>> {
    let mut enc = WindowEncoder::new();
    joiner.visit_window(&mut |side, id, ts, tokens| enc.push(Some(side), id, ts, tokens));
    enc.finish()
}

/// Decodes a window snapshot from `input`, validating the magic, the
/// entry count and ascending id order.
///
/// # Errors
/// Fails on I/O errors, a bad magic number, truncation, out-of-order ids,
/// or trailing garbage.
pub fn decode_window<R: Read>(input: &mut R) -> io::Result<Vec<SnapshotEntry>> {
    let mut head = [0u8; 8];
    input.read_exact(&mut head)?;
    let magic = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad snapshot magic {magic:#010x}"),
        ));
    }
    let count = u32::from_le_bytes(head[4..].try_into().expect("4 bytes")) as usize;
    let mut entries = Vec::with_capacity(count.min(PREALLOC_ENTRIES));
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let mut tag = [0u8; 1];
        input.read_exact(&mut tag)?;
        let side = tag_side(tag[0])?;
        let record = decode_record(input)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "snapshot truncated mid-entry")
        })?;
        if prev.is_some_and(|p| p >= record.id().0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "snapshot entries out of id order",
            ));
        }
        prev = Some(record.id().0);
        entries.push((side, record));
    }
    let mut trailer = [0u8; 1];
    if input.read(&mut trailer)? != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes after snapshot",
        ));
    }
    Ok(entries)
}

/// Decodes a window snapshot from an in-memory buffer.
///
/// # Errors
/// See [`decode_window`].
pub fn decode_window_slice(bytes: &[u8]) -> io::Result<Vec<SnapshotEntry>> {
    decode_window(&mut Cursor::new(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_text::{RecordId, TokenId};

    fn rec(id: u64, tokens: &[u32]) -> Record {
        let tokens = tokens.iter().map(|&t| TokenId(t)).collect();
        Record::from_sorted(RecordId(id), id * 10, tokens)
    }

    #[test]
    fn roundtrips_side_tagged_entries() {
        let entries: Vec<SnapshotEntry> = vec![
            (None, rec(1, &[1, 2, 3])),
            (Some(Side::Left), rec(2, &[4])),
            (Some(Side::Right), rec(7, &[2, 9, 11, 30])),
        ];
        let bytes = encode_window_vec(&entries).unwrap();
        let back = decode_window_slice(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        for ((s0, r0), (s1, r1)) in entries.iter().zip(&back) {
            assert_eq!(s0, s1);
            assert_eq!(r0.id(), r1.id());
            assert_eq!(r0.tokens(), r1.tokens());
            assert_eq!(r0.timestamp(), r1.timestamp());
        }
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let bytes = encode_window_vec(&[]).unwrap();
        assert_eq!(decode_window_slice(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn rejects_out_of_order_encode() {
        let entries = vec![(None, rec(5, &[1])), (None, rec(3, &[2]))];
        assert!(encode_window_vec(&entries).is_err());
    }

    #[test]
    fn rejects_bad_magic_truncation_and_garbage() {
        let good = encode_window_vec(&[(None, rec(1, &[1, 2]))]).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(decode_window_slice(&bad_magic).is_err());

        assert!(decode_window_slice(&good[..good.len() - 1]).is_err());

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_window_slice(&trailing).is_err());
    }
}
