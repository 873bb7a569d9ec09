//! Log records and their on-disk framing.
//!
//! Every record is written as one self-delimiting *frame*, reusing the
//! length-prefixed idiom of the server's wire protocol
//! (`crates/server/src/wire.rs`):
//!
//! ```text
//! [payload_len: u32 LE] [crc32(payload): u32 LE] [payload]
//! ```
//!
//! The payload starts with a one-byte record kind and the record's log-local
//! transaction id, followed by kind-specific fields (all integers
//! little-endian). The checksum lets recovery distinguish a cleanly written
//! frame from a torn tail: scanning stops at the first frame whose length or
//! checksum does not add up, and everything after that point — unless it is
//! all zeros, a segment's preallocated space — is reported as discarded
//! rather than replayed. A frame that passes both checks but whose
//! payload does not decode was written by another format, not torn: that is
//! an error, and recovery leaves it on disk.

use crate::log::WalError;
use mvtl_common::{Key, Timestamp};

/// Magic bytes opening every segment file, followed by the format version.
pub(crate) const SEGMENT_HEADER: [u8; 8] = *b"MVWL\x01\x00\x00\x00";

/// The magic part of [`SEGMENT_HEADER`]: a segment that opens with it but
/// carries another version is foreign, not torn.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"MVWL";

/// Upper bound on a single frame's payload, mirroring the wire protocol's
/// frame cap: a corrupted length prefix must not trigger a huge allocation.
pub const MAX_PAYLOAD: u32 = 64 << 20;

const KIND_COMMIT: u8 = 1;

/// Values that can be logged. Implemented for the value types the registry
/// builds engines over; the encoding is length-prefixed per write, so any
/// byte-serializable type fits.
pub trait WalValue: Sized {
    /// Appends the serialized value to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Rebuilds a value from the exact bytes `encode` produced.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

impl WalValue for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl WalValue for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// One durable event: a committed transaction's write set. `id` is a
/// log-local transaction id, not the engine's in-memory `TxId` (those do not
/// survive a restart).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord<V> {
    /// A committed transaction: its write set, installed at `commit_ts`
    /// where the engine has one. A cross-shard commit is one record holding
    /// the writes of every participant.
    Commit {
        /// Log-local transaction id.
        id: u64,
        /// The commit timestamp, when the engine serializes by timestamp.
        commit_ts: Option<Timestamp>,
        /// The committed `(key, value)` write set.
        writes: Vec<(Key, V)>,
    },
}

impl<V> WalRecord<V> {
    /// The record's log-local transaction id.
    #[must_use]
    pub fn id(&self) -> u64 {
        let WalRecord::Commit { id, .. } = self;
        *id
    }
}

// --- CRC-32 (IEEE 802.3), table-driven, no external dependency -------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `data`, the checksum guarding every frame.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

// --- payload encoding ------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_ts(out: &mut Vec<u8>, ts: Timestamp) {
    put_u64(out, ts.value);
    put_u32(out, ts.process);
}

fn put_writes<V: WalValue>(out: &mut Vec<u8>, writes: &[(Key, V)]) {
    put_u32(out, writes.len() as u32);
    for (key, value) in writes {
        put_u64(out, key.0);
        // The value encodes in place; its length fills the word before it.
        let at = out.len();
        put_u32(out, 0);
        value.encode(out);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// A strict little-endian cursor over a payload; every read can fail, so a
/// truncated or bit-flipped payload surfaces as `None`, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn ts(&mut self) -> Option<Timestamp> {
        let value = self.u64()?;
        let process = self.u32()?;
        Some(Timestamp::new(value, process))
    }

    fn writes<V: WalValue>(&mut self) -> Option<Vec<(Key, V)>> {
        let count = self.u32()? as usize;
        let mut writes = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let key = Key(self.u64()?);
            let len = self.u32()? as usize;
            let value = V::decode(self.take(len)?)?;
            writes.push((key, value));
        }
        Some(writes)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

impl<V: WalValue> WalRecord<V> {
    /// Serializes the record payload (kind + id + fields, no frame header).
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put_payload(&mut out);
        out
    }

    fn put_payload(&self, out: &mut Vec<u8>) {
        let WalRecord::Commit {
            id,
            commit_ts,
            writes,
        } = self;
        out.push(KIND_COMMIT);
        put_u64(out, *id);
        match commit_ts {
            Some(ts) => {
                out.push(1);
                put_ts(out, *ts);
            }
            None => out.push(0),
        }
        put_writes(out, writes);
    }

    /// Rebuilds a record from a payload, rejecting unknown kinds and
    /// trailing garbage.
    #[must_use]
    pub fn decode_payload(payload: &[u8]) -> Option<WalRecord<V>> {
        let mut cur = Cursor {
            bytes: payload,
            pos: 0,
        };
        if cur.u8()? != KIND_COMMIT {
            return None;
        }
        let id = cur.u64()?;
        let commit_ts = match cur.u8()? {
            0 => None,
            1 => Some(cur.ts()?),
            _ => return None,
        };
        let record = WalRecord::Commit {
            id,
            commit_ts,
            writes: cur.writes()?,
        };
        cur.done().then_some(record)
    }

    /// Serializes the record as a complete frame (length + checksum +
    /// payload), ready for appending to a segment. No decoder accepts the
    /// frame of a payload over [`MAX_PAYLOAD`]; [`crate::Wal::append`]
    /// refuses such a record.
    #[must_use]
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        // Without a cap the encoding cannot fail.
        let _ = self.put_frame(&mut frame, usize::MAX);
        frame
    }

    /// Appends the record's frame to `out`. A payload over `cap` bytes
    /// leaves `out` as it was and returns its length, before any checksum
    /// is computed.
    pub(crate) fn put_frame(&self, out: &mut Vec<u8>, cap: usize) -> Result<(), usize> {
        let start = out.len();
        out.extend_from_slice(&[0; 8]);
        self.put_payload(out);
        let len = out.len() - start - 8;
        if len > cap {
            out.truncate(start);
            return Err(len);
        }
        let crc = crc32(&out[start + 8..]);
        out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        Ok(())
    }
}

/// Attempts to decode one frame at the start of `bytes`. Returns the record
/// and the frame's total length; `Ok(None)` when the bytes do not hold a
/// complete, checksum-valid frame (the torn-tail stop condition).
///
/// An empty payload is no frame: no record encodes to one, and eight zero
/// bytes — the preallocated space after a segment's last frame — checksum
/// as exactly that.
///
/// # Errors
///
/// Returns an error when a complete, checksum-valid frame holds a payload
/// this format does not decode: the bytes were written on purpose, by
/// something else, and must not be discarded as a tear.
pub fn decode_frame<V: WalValue>(bytes: &[u8]) -> Result<Option<(WalRecord<V>, usize)>, WalError> {
    let Some(header) = bytes.get(..8) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let expected = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len == 0 || len > MAX_PAYLOAD {
        return Ok(None);
    }
    let total = 8 + len as usize;
    let Some(payload) = bytes.get(8..total) else {
        return Ok(None);
    };
    if crc32(payload) != expected {
        return Ok(None);
    }
    match WalRecord::decode_payload(payload) {
        Some(record) => Ok(Some((record, total))),
        None => Err(WalError(format!(
            "a checksum-valid {len}-byte frame of kind {} does not decode as a version-1 record",
            payload[0]
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    fn sample_records() -> Vec<WalRecord<u64>> {
        vec![
            WalRecord::Commit {
                id: 1,
                commit_ts: Some(Timestamp::new(42, 3)),
                writes: vec![(Key(7), 700), (Key(8), 800)],
            },
            WalRecord::Commit {
                id: 2,
                commit_ts: None,
                writes: vec![(Key(9), 900)],
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_frames() {
        for record in sample_records() {
            let frame = record.encode_frame();
            let (decoded, consumed) = decode_frame::<u64>(&frame).unwrap().expect("frame decodes");
            assert_eq!(consumed, frame.len());
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn string_values_roundtrip() {
        let record = WalRecord::Commit {
            id: 9,
            commit_ts: Some(Timestamp::new(5, 1)),
            writes: vec![(Key(1), "héllo".to_string()), (Key(2), String::new())],
        };
        let frame = record.encode_frame();
        let (decoded, _) = decode_frame::<String>(&frame)
            .unwrap()
            .expect("frame decodes");
        assert_eq!(decoded, record);
    }

    #[test]
    fn truncated_frames_do_not_decode() {
        let frame = sample_records()[0].encode_frame();
        for cut in 0..frame.len() {
            assert!(
                matches!(decode_frame::<u64>(&frame[..cut]), Ok(None)),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn corrupted_bytes_do_not_decode() {
        let frame = sample_records()[0].encode_frame();
        for i in 8..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x01;
            assert!(
                matches!(decode_frame::<u64>(&bad), Ok(None)),
                "payload bit flip at {i} must fail the checksum"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut frame = sample_records()[0].encode_frame();
        frame[0..4].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(decode_frame::<u64>(&frame), Ok(None)));
    }

    #[test]
    fn trailing_garbage_in_payload_is_rejected() {
        let mut payload = sample_records()[1].encode_payload();
        payload.push(0);
        assert!(WalRecord::<u64>::decode_payload(&payload).is_none());
    }

    #[test]
    fn zero_filled_bytes_are_torn_and_foreign_payloads_are_errors() {
        assert!(matches!(decode_frame::<u64>(&[0; 64]), Ok(None)));
        let mut frame = (1u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&[KIND_COMMIT]).to_le_bytes());
        frame.push(KIND_COMMIT);
        assert!(decode_frame::<u64>(&frame).is_err());
    }
}
