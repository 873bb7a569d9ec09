//! Property tests of the log's record framing against hostile bytes: every
//! `Commit` record round-trips, no prefix of a frame decodes (a torn tail is
//! never mistaken for a record), and random bytes or bit flips never panic
//! and never make the decoder allocate more than [`MAX_PAYLOAD`] at once —
//! a global allocator records the largest single request.

use mvtl_common::{Key, Timestamp};
use mvtl_wal::record::{decode_frame, MAX_PAYLOAD};
use mvtl_wal::{crc32, WalRecord, WalValue};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator and remembers the largest request.
struct PeakRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method delegates to `System` with the caller's own layout
// unchanged, so the contract of `GlobalAlloc` is exactly `System`'s.
unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakRequest = PeakRequest;

/// `payload` behind a valid length and checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes `bytes` as a frame and as a bare payload, for both value types:
/// any outcome will do, but nothing may panic or over-allocate.
fn decode_hostile(bytes: &[u8]) -> Result<(), TestCaseError> {
    let _ = decode_frame::<u64>(bytes);
    let _ = decode_frame::<String>(bytes);
    let _ = WalRecord::<u64>::decode_payload(bytes);
    let _ = WalRecord::<String>::decode_payload(bytes);
    let largest = LARGEST.load(Ordering::Relaxed);
    prop_assert!(
        largest <= MAX_PAYLOAD as usize,
        "allocated {} bytes",
        largest
    );
    Ok(())
}

fn arb_commit<V: std::fmt::Debug>(
    value: impl Strategy<Value = V>,
) -> impl Strategy<Value = WalRecord<V>> {
    let ts = (any::<bool>(), any::<u64>(), any::<u32>())
        .prop_map(|(some, value, process)| some.then(|| Timestamp::new(value, process)));
    let writes = proptest::collection::vec((any::<u64>(), value), 0..65);
    (any::<u64>(), ts, writes).prop_map(|(id, commit_ts, writes)| WalRecord::Commit {
        id,
        commit_ts,
        writes: writes.into_iter().map(|(k, v)| (Key(k), v)).collect(),
    })
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..16)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

fn roundtrips<V: WalValue + PartialEq + std::fmt::Debug>(
    record: &WalRecord<V>,
) -> Result<(), TestCaseError> {
    let frame = record.encode_frame();
    let decoded = decode_frame::<V>(&frame);
    prop_assert!(
        matches!(&decoded, Ok(Some((r, len))) if r == record && *len == frame.len()),
        "decoded as {:?}",
        decoded
    );
    for cut in 0..frame.len() {
        prop_assert!(
            matches!(decode_frame::<V>(&frame[..cut]), Ok(None)),
            "a {}-byte prefix decoded",
            cut
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn commits_roundtrip_and_no_truncation_decodes(
        numbers in arb_commit(any::<u64>()),
        strings in arb_commit(arb_string()),
    ) {
        roundtrips(&numbers)?;
        roundtrips(&strings)?;
    }

    #[test]
    fn byte_flips_never_panic_or_overallocate(
        record in arb_commit(arb_string()),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..5),
    ) {
        let mut bytes = record.encode_frame();
        for (at, mask) in flips {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        decode_hostile(&bytes)?;
        // Re-framed, the flipped payload gets past the checksum.
        decode_hostile(&frame(&bytes[8..]))?;
    }

    #[test]
    fn random_bytes_never_panic_or_overallocate(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        decode_hostile(&bytes)?;
        // Behind a commit kind byte and a valid frame header, the payload
        // decoder reads every field.
        let payload = [&[1u8][..], &bytes].concat();
        decode_hostile(&payload)?;
        decode_hostile(&frame(&payload))?;
    }
}
