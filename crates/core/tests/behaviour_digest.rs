//! Behaviour pins for the engine's lock and version state.
//!
//! Seeded single-thread interleavings of up to four open transactions run on
//! every MVTL policy, and a digest of every observable outcome — each value
//! read, each commit timestamp, each abort reason — is compared with a value
//! recorded from an earlier, independently built representation of the
//! frozen lock state. In one thread a lock wait can only time out (nobody
//! else can release the lock), so the outcomes are deterministic; the short
//! timeout keeps those waits cheap.
//!
//! A changed digest means the engine now makes some different decision: a
//! read anchors elsewhere, a commit lands at another timestamp or a
//! transaction aborts for another reason. Rerun with `--nocapture` to print
//! the new digests.

use mvtl_clock::GlobalClock;
use mvtl_common::{Key, ProcessId, Timestamp, TxError};
use mvtl_core::policy::{
    EpsilonPolicy, GhostbusterPolicy, LockingPolicy, MvtilPolicy, PessimisticPolicy, PrefPolicy,
    PrioPolicy, ToPolicy,
};
use mvtl_core::{MvtlConfig, MvtlStore, MvtlTransaction};
use std::sync::Arc;
use std::time::Duration;

const SLOTS: usize = 4;
const KEYS: u64 = 12;
const HOT_KEYS: u64 = 3;
const MAX_OPS: u32 = 4;
const PURGE_EVERY: u64 = 997;
const PURGE_LAG: u64 = 200;

/// SplitMix64: a tiny deterministic generator, so the schedule never depends
/// on another crate's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `percent` / 100.
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// FNV-1a over the outcome stream.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, tag: u8, value: u64) {
        self.bytes(&[tag]);
        self.bytes(&value.to_le_bytes());
    }

    fn ts(&mut self, tag: u8, ts: Timestamp) {
        self.word(tag, ts.value);
        self.word(tag, u64::from(ts.process));
    }

    fn error(&mut self, err: &TxError) {
        self.bytes(format!("abort {:?}", err.abort_reason()).as_bytes());
    }
}

struct Slot {
    txn: MvtlTransaction<u64>,
    ops: u32,
}

/// Runs `steps` seeded steps on a fresh store and returns the outcome digest.
fn digest<P: LockingPolicy>(policy: P, seed: u64, steps: u64, purge: bool) -> u64 {
    let clock = Arc::new(GlobalClock::new());
    let store = MvtlStore::new(
        policy,
        Arc::clone(&clock) as Arc<dyn mvtl_clock::ClockSource>,
        MvtlConfig::default().with_lock_wait_timeout(Duration::from_micros(200)),
    );
    let mut rng = Rng(seed);
    let mut out = Digest::new();
    let mut slots: Vec<Option<Slot>> = (0..SLOTS).map(|_| None).collect();
    for step in 1..=steps {
        if purge && step % PURGE_EVERY == 0 {
            let lagged = Timestamp::at(clock.peek().saturating_sub(PURGE_LAG));
            let bound = store.low_watermark().map_or(lagged, |wm| wm.min(lagged));
            let (versions, _) = store.purge_below(bound);
            out.word(b'p', versions as u64);
        }
        let index = (rng.next() % SLOTS as u64) as usize;
        let mut slot = slots[index].take().unwrap_or_else(|| Slot {
            txn: store.begin_with(ProcessId(index as u32), None, rng.chance(10)),
            ops: 0,
        });
        let key = if rng.chance(60) {
            Key(rng.next() % HOT_KEYS)
        } else {
            Key(rng.next() % KEYS)
        };
        let result = if rng.chance(25) {
            store.write(&mut slot.txn, key, step)
        } else {
            store.read(&mut slot.txn, key).map(|value| {
                out.word(b'r', value.map_or(u64::MAX, |v| v));
            })
        };
        if let Err(err) = result {
            out.error(&err);
            continue;
        }
        slot.ops += 1;
        if slot.ops >= MAX_OPS || rng.chance(10) {
            match store.commit(slot.txn) {
                Ok(info) => out.ts(b'c', info.commit_ts.expect("committed")),
                Err(err) => out.error(&err),
            }
        } else {
            slots[index] = Some(slot);
        }
    }
    for slot in slots.into_iter().flatten() {
        store.abort(slot.txn);
    }
    out.0
}

/// Checks `actual` against the recorded digest, printing it either way so
/// a deliberate behaviour change can re-pin it.
fn pin(name: &str, seed: u64, actual: u64, expected: u64) {
    println!("{name} seed {seed}: {actual:#018x}");
    assert_eq!(actual, expected, "{name} seed {seed}: outcome digest moved");
}

const STEPS: u64 = 20_000;

#[test]
fn mvtil_outcomes_match_the_recorded_digests() {
    for (seed, expected) in [
        (1, 0x9e9c_3778_404d_0de5),
        (2, 0xbaef_64fc_7c73_8f08),
        (3, 0x1629_d1e3_0c8e_fad2),
        (4, 0x0edd_ea89_e3f6_8008),
    ] {
        let early = digest(MvtilPolicy::early(40), seed, 100_000, true);
        pin("mvtil-early", seed, early, expected);
    }
    pin(
        "mvtil-late",
        1,
        digest(MvtilPolicy::late(40), 1, STEPS, true),
        0xf6c6_3a32_94be_63b7,
    );
}

#[test]
fn every_policy_outcome_matches_the_recorded_digest() {
    pin(
        "mvtl-to",
        1,
        digest(ToPolicy::new(), 1, STEPS, true),
        0xe781_21ea_a44d_4085,
    );
    pin(
        "mvtl-ghostbuster",
        1,
        digest(GhostbusterPolicy::new(), 1, STEPS, true),
        0x29fb_a129_5ef2_45d8,
    );
    pin(
        "mvtl-epsilon-clock",
        1,
        digest(EpsilonPolicy::new(20), 1, STEPS, true),
        0x5037_d44b_836b_d0d6,
    );
    pin(
        "mvtl-pref",
        1,
        digest(PrefPolicy::new(), 1, STEPS, true),
        0xfacd_074b_f182_f3e5,
    );
    // One in ten of the slots opens a critical transaction, which locks
    // `[0, +∞]` as MVTL-Pessimistic does, so the purge floor decides part of
    // its grants: this pin was recorded with the floor.
    pin(
        "mvtl-prio",
        1,
        digest(PrioPolicy::new(), 1, STEPS, true),
        0x9a45_4101_98b8_d2db,
    );
    // MVTL-Pessimistic commits far below the clock, so every purge at the
    // clock-derived bound moves its floor: pinned with purges and without.
    pin(
        "mvtl-pessimistic",
        1,
        digest(PessimisticPolicy::new(), 1, STEPS, false),
        0xb6ba_1808_ea20_41a8,
    );
    pin(
        "mvtl-pessimistic+purge",
        1,
        digest(PessimisticPolicy::new(), 1, STEPS, true),
        0xe38d_2134_c3f6_4cb7,
    );
}
