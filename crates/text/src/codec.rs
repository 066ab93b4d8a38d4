//! A compact binary codec for records.
//!
//! This is the wire format the distributed layer's byte accounting assumes
//! (`Record::wire_bytes`): little-endian `id: u64`, `timestamp: u64`,
//! `len: u32`, then `len` token ids of 4 bytes each. Checkpoint snapshots
//! and cluster data frames encode records with it, which keeps the
//! accounting honest: a record's metered size is exactly its encoded size.

use crate::record::{Record, RecordId};
use crate::token::TokenId;
use std::io::{self, Read, Write};

/// Most tokens [`decode_record`] reserves room for before it has read any:
/// the count comes from the input, so a corrupt or hostile header must not
/// size an allocation. Longer records grow as their tokens arrive.
const PREALLOC_TOKENS: usize = 4096;

/// Encodes one record to a writer. Returns the bytes written — always
/// equal to [`Record::wire_bytes`].
pub fn encode_record<W: Write>(record: &Record, out: &mut W) -> io::Result<u64> {
    out.write_all(&record.id().0.to_le_bytes())?;
    out.write_all(&record.timestamp().to_le_bytes())?;
    out.write_all(&(record.len() as u32).to_le_bytes())?;
    for t in record.tokens() {
        out.write_all(&t.raw().to_le_bytes())?;
    }
    Ok(record.wire_bytes())
}

/// Decodes one record; `Ok(None)` signals clean end-of-stream (EOF before
/// the first header byte).
pub fn decode_record<R: Read>(input: &mut R) -> io::Result<Option<Record>> {
    let mut id = [0u8; 8];
    match input.read_exact(&mut id) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut ts = [0u8; 8];
    input.read_exact(&mut ts)?;
    let mut len = [0u8; 4];
    input.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "record with zero tokens",
        ));
    }
    let mut tokens = Vec::with_capacity(n.min(PREALLOC_TOKENS));
    let mut buf = [0u8; 4];
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        input.read_exact(&mut buf)?;
        let raw = u32::from_le_bytes(buf);
        if prev.is_some_and(|p| p >= raw) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "tokens not strictly ascending",
            ));
        }
        prev = Some(raw);
        tokens.push(TokenId(raw));
    }
    Ok(Some(Record::from_sorted(
        RecordId(u64::from_le_bytes(id)),
        u64::from_le_bytes(ts),
        tokens,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(id: u64, ts: u64, toks: &[u32]) -> Record {
        Record::from_sorted(
            RecordId(id),
            ts,
            toks.iter().copied().map(TokenId).collect(),
        )
    }

    #[test]
    fn roundtrip_single() {
        let r = rec(42, 1000, &[1, 5, 9]);
        let mut buf = Vec::new();
        let n = encode_record(&r, &mut buf).unwrap();
        assert_eq!(n as usize, buf.len());
        assert_eq!(n, r.wire_bytes(), "codec realizes the metered size");
        let d = decode_record(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(d.id(), r.id());
        assert_eq!(d.timestamp(), r.timestamp());
        assert_eq!(d.tokens(), r.tokens());
    }

    #[test]
    fn empty_stream() {
        assert!(decode_record(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn truncated_input_errors() {
        let r = rec(1, 2, &[3, 4]);
        let mut buf = Vec::new();
        encode_record(&r, &mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        assert!(decode_record(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn corrupt_token_order_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&9u32.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes()); // descending!
        assert!(decode_record(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn zero_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_record(&mut buf.as_slice()).is_err());
    }

    proptest! {
        #[test]
        fn stream_roundtrip(
            specs in proptest::collection::vec(
                (0u64..1000, 0u64..1000,
                 proptest::collection::btree_set(0u32..10_000, 1..40)),
                0..30,
            )
        ) {
            let records: Vec<Record> = specs
                .iter()
                .enumerate()
                .map(|(i, (_, ts, toks))| {
                    rec(i as u64, *ts, &toks.iter().copied().collect::<Vec<_>>())
                })
                .collect();
            let mut buf = Vec::new();
            let mut bytes = 0;
            for r in &records {
                bytes += encode_record(r, &mut buf).unwrap();
            }
            prop_assert_eq!(bytes as usize, buf.len());
            let mut input = buf.as_slice();
            let mut decoded = Vec::new();
            while let Some(r) = decode_record(&mut input).unwrap() {
                decoded.push(r);
            }
            prop_assert_eq!(decoded.len(), records.len());
            for (d, r) in decoded.iter().zip(&records) {
                prop_assert_eq!(d.id(), r.id());
                prop_assert_eq!(d.timestamp(), r.timestamp());
                prop_assert_eq!(d.tokens(), r.tokens());
            }
        }
    }
}
