//! The append-only segmented log: group-commit writer and recovery scanner.
//!
//! A log is a directory of segment files `wal-NNNNNN.log`, each opened with
//! an 8-byte header (magic + format version) and otherwise holding a pure
//! sequence of frames ([`crate::record`]). An appender queues its frame in a
//! pending buffer and then waits for it to be written: the first waiter to
//! find frames pending drains them all — one `fsync` for every record queued
//! so far — which is the group commit that amortizes fsync under load. No
//! background thread is involved. The fsync policy is [`FsyncMode`]:
//!
//! * `Always` — an append returns once its record is written and synced
//!   (the default),
//! * `Off` — an append returns once its record is written; nothing is ever
//!   synced (testing / throwaway data).
//!
//! Recovery ([`Wal::open`]) scans the segments in order and stops at the
//! first frame whose length or checksum does not verify: everything before
//! the stop point replays, everything after is counted as
//! [`Recovery::discarded_bytes`], the broken tail is truncated and later
//! segments are deleted so new appends extend a log that is valid
//! end-to-end. Bytes of another format are not a tear: a segment header with
//! the right magic and another version, or a checksum-valid frame that does
//! not decode, fails the open and leaves every byte on disk.

use crate::record::{
    decode_frame, WalRecord, WalValue, MAX_PAYLOAD, SEGMENT_HEADER, SEGMENT_MAGIC,
};
use mvtl_common::{TempDir, Timestamp};
use parking_lot::{Condvar, Mutex};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// When the durability layer acknowledges an append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncMode {
    /// Acknowledge once the record is synced. Every record one drain takes
    /// shares its fsync (group commit).
    Always,
    /// Never sync; acknowledge once the record is written.
    Off,
}

impl FsyncMode {
    /// Parses the registry's `fsync=` parameter value. `group` is accepted
    /// as a spelling of `always`: every synced append already groups.
    #[must_use]
    pub fn parse(s: &str) -> Option<FsyncMode> {
        match s {
            "always" | "group" => Some(FsyncMode::Always),
            "off" => Some(FsyncMode::Off),
            _ => None,
        }
    }
}

/// Log configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// The fsync policy (see [`FsyncMode`]).
    pub fsync: FsyncMode,
    /// Roll to a new segment file once the current one exceeds this size.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: FsyncMode::Always,
            segment_bytes: 1024 * 1024,
        }
    }
}

/// A durability-layer failure. I/O errors carry the failing operation; a log
/// that fails to flush poisons itself — later appends keep returning the
/// error rather than silently dropping records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalError(pub String);

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wal: {}", self.0)
    }
}

impl std::error::Error for WalError {}

fn io_err(what: &str, e: std::io::Error) -> WalError {
    WalError(format!("{what}: {e}"))
}

/// What a scan of an existing log directory found.
#[derive(Debug)]
pub struct Recovery<V> {
    /// Every valid record, in append order across segments.
    pub records: Vec<WalRecord<V>>,
    /// Bytes after the last valid record that were discarded (a torn tail
    /// from a crash mid-write, or corruption): the remainder of the broken
    /// segment plus any segments after it.
    pub discarded_bytes: u64,
}

impl<V> Recovery<V> {
    /// The largest commit timestamp recorded anywhere in the log. The
    /// registry starts the engine clock past this value, so post-recovery
    /// transactions serialize after every recovered one.
    #[must_use]
    pub fn max_commit_ts(&self) -> Option<Timestamp> {
        self.records
            .iter()
            .filter_map(|WalRecord::Commit { commit_ts, .. }| *commit_ts)
            .max()
    }
}

/// The append queue every appender shares.
struct Flush {
    /// Encoded frames no drain has taken yet.
    pending: Vec<Vec<u8>>,
    /// Sequence number of the last record appended to `pending`.
    appended_seq: u64,
    /// Sequence number through which records are durable (or, under
    /// `FsyncMode::Off`, written).
    durable_seq: u64,
    /// First drain failure; poisons the log.
    error: Option<WalError>,
}

/// The current segment file and its rotation bookkeeping. Held under its own
/// mutex so file I/O never blocks appenders that are only queueing.
struct Segments {
    dir: PathBuf,
    file: File,
    index: u64,
    len: u64,
    segment_bytes: u64,
}

/// Syncs the directory itself, so files created or removed in it survive a
/// power loss.
fn sync_dir(dir: &Path) -> Result<(), WalError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("syncing wal directory", e))
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

/// Parses `wal-NNNNNN.log` back into `NNNNNN`.
fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

impl Segments {
    /// Opens segment `index` for appending, writing the header if the file
    /// is new (or shorter than a header — a tail torn inside the header).
    /// With `sync` set, a new file's directory entry is made durable before
    /// any commit appended to it can be acknowledged.
    fn open_at(
        dir: &Path,
        index: u64,
        segment_bytes: u64,
        sync: bool,
    ) -> Result<Segments, WalError> {
        let path = segment_path(dir, index);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("opening segment", e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err("segment metadata", e))?
            .len();
        let len = if len < SEGMENT_HEADER.len() as u64 {
            file.set_len(0)
                .map_err(|e| io_err("resetting segment", e))?;
            file.write_all(&SEGMENT_HEADER)
                .map_err(|e| io_err("writing segment header", e))?;
            if sync {
                sync_dir(dir)?;
            }
            SEGMENT_HEADER.len() as u64
        } else {
            len
        };
        Ok(Segments {
            dir: dir.to_path_buf(),
            file,
            index,
            len,
            segment_bytes,
        })
    }

    /// Appends whole frames, rolling to a fresh segment between frames when
    /// the current one is over budget. With `sync` set, every segment
    /// written to is synced: a finished one before the roll, the current one
    /// at the end.
    fn write_frames(&mut self, frames: &[Vec<u8>], sync: bool) -> Result<(), WalError> {
        for frame in frames {
            if self.len >= self.segment_bytes {
                if sync {
                    self.sync()?;
                }
                *self = Segments::open_at(&self.dir, self.index + 1, self.segment_bytes, sync)?;
            }
            self.file
                .write_all(frame)
                .map_err(|e| io_err("appending frame", e))?;
            self.len += frame.len() as u64;
        }
        if sync {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data().map_err(|e| io_err("fsync", e))
    }
}

/// The write-ahead log. Appenders drain the queue themselves (see
/// [`Wal::append`]), so the log owns no thread and dropping it has nothing
/// left to flush.
pub struct Wal {
    flush: Mutex<Flush>,
    /// Wakes appenders when `durable_seq` advances (or an error lands).
    durable: Condvar,
    segments: Mutex<Segments>,
    fsync: FsyncMode,
    /// Source of log-local transaction ids, continuing past recovered ones.
    next_id: AtomicU64,
    /// A temporary log directory whose lifetime is tied to this log (see
    /// [`Wal::retain_dir`]). Declared last, so the segment file closes
    /// before the directory is removed.
    owned_dir: Option<TempDir>,
}

impl Wal {
    /// Opens (or creates) the log in `dir`: scans existing segments,
    /// truncates any torn tail, deletes segments past the tear, and returns
    /// the writer positioned for appending together with what was recovered.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory or its segments cannot be read,
    /// created or truncated, and when a segment holds bytes of another
    /// format: a header with this log's magic but another version, or a
    /// checksum-valid frame that does not decode. Nothing on disk changes
    /// then. Corruption is not an error — it ends the scan and is reported
    /// via [`Recovery::discarded_bytes`].
    pub fn open<V: WalValue>(
        dir: &Path,
        options: WalOptions,
    ) -> Result<(Wal, Recovery<V>), WalError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating wal directory", e))?;

        let mut indices: Vec<u64> = std::fs::read_dir(dir)
            .map_err(|e| io_err("listing wal directory", e))?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| segment_index(&entry.file_name().to_string_lossy()))
            .collect();
        indices.sort_unstable();

        let mut recovery = Recovery {
            records: Vec::new(),
            discarded_bytes: 0,
        };
        let mut last_valid: Option<(u64, u64)> = None; // (segment index, valid length)
        let mut torn = false;
        for (pos, &index) in indices.iter().enumerate() {
            let path = segment_path(dir, index);
            let bytes = {
                let mut buf = Vec::new();
                File::open(&path)
                    .and_then(|mut f| f.read_to_end(&mut buf))
                    .map_err(|e| io_err("reading segment", e))?;
                buf
            };
            if bytes.starts_with(&SEGMENT_MAGIC)
                && bytes.len() >= SEGMENT_HEADER.len()
                && !bytes.starts_with(&SEGMENT_HEADER)
            {
                return Err(WalError(format!(
                    "{} has format version {}, this build reads version {}",
                    path.display(),
                    bytes[SEGMENT_MAGIC.len()],
                    SEGMENT_HEADER[SEGMENT_MAGIC.len()]
                )));
            }
            if torn || !bytes.starts_with(&SEGMENT_HEADER) {
                // Everything after a tear — and any segment without a valid
                // header — is discarded wholesale.
                recovery.discarded_bytes += bytes.len() as u64;
                torn = true;
                continue;
            }
            let mut offset = SEGMENT_HEADER.len();
            while let Some((record, consumed)) = decode_frame::<V>(&bytes[offset..])
                .map_err(|e| WalError(format!("{} at byte {offset}: {}", path.display(), e.0)))?
            {
                recovery.records.push(record);
                offset += consumed;
            }
            last_valid = Some((index, offset as u64));
            if offset < bytes.len() {
                recovery.discarded_bytes += (bytes.len() - offset) as u64;
                torn = true;
            }
            // A later segment after a clean one continues the scan; `pos`
            // only matters for gap detection, which we treat as a tear.
            if !torn {
                if let Some(&next) = indices.get(pos + 1) {
                    if next != index + 1 {
                        torn = true;
                    }
                }
            }
        }

        // Make the on-disk state match what the scan accepted: truncate the
        // broken tail, drop segments past it.
        if let Some((index, valid_len)) = last_valid {
            let path = segment_path(dir, index);
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| io_err("opening segment for truncation", e))?;
            if file
                .metadata()
                .map_err(|e| io_err("segment metadata", e))?
                .len()
                > valid_len
            {
                file.set_len(valid_len)
                    .map_err(|e| io_err("truncating torn tail", e))?;
                file.sync_data().map_err(|e| io_err("fsync", e))?;
            }
            for &later in indices.iter().filter(|&&i| i > index) {
                std::fs::remove_file(segment_path(dir, later))
                    .map_err(|e| io_err("removing segment past a tear", e))?;
            }
        } else {
            for &index in &indices {
                std::fs::remove_file(segment_path(dir, index))
                    .map_err(|e| io_err("removing unreadable segment", e))?;
            }
        }

        let sync = options.fsync == FsyncMode::Always;
        if sync {
            // Make the deletions above durable too.
            sync_dir(dir)?;
        }
        let start_index = last_valid.map_or(1, |(index, _)| index);
        let segments = Segments::open_at(dir, start_index, options.segment_bytes.max(64), sync)?;
        let max_seen_id = recovery.records.iter().map(WalRecord::id).max();
        Ok((
            Wal {
                flush: Mutex::named(
                    "wal.flush",
                    82,
                    Flush {
                        pending: Vec::new(),
                        appended_seq: 0,
                        durable_seq: 0,
                        error: None,
                    },
                ),
                durable: Condvar::new(),
                segments: Mutex::named("wal.segments", 80, segments),
                fsync: options.fsync,
                next_id: AtomicU64::new(max_seen_id.map_or(1, |m| m + 1)),
                owned_dir: None,
            },
            recovery,
        ))
    }

    /// Ties the lifetime of a temporary log directory to this log: the
    /// directory is removed when the log is dropped. Used by the registry's
    /// `wal=tmp` mode, where the log should leave nothing behind when its
    /// engine is dropped.
    pub fn retain_dir(&mut self, dir: TempDir) {
        self.owned_dir = Some(dir);
    }

    /// A fresh log-local transaction id (unique within this log's lifetime,
    /// continuing past ids seen during recovery).
    #[must_use]
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends `record` and returns once it is written — and, under
    /// `FsyncMode::Always`, synced.
    ///
    /// The frame is queued, then this thread waits for it: if frames are
    /// pending it drains them itself, writing (and syncing) its own record
    /// together with every record queued before the drain took the batch;
    /// otherwise another appender's drain holds the record and this thread
    /// waits for that drain to publish.
    ///
    /// # Errors
    ///
    /// Returns the first drain failure once the log is poisoned; the record
    /// may or may not have reached the disk in that case.
    pub fn append<V: WalValue>(&self, record: &WalRecord<V>) -> Result<(), WalError> {
        let frame = record.encode_frame();
        assert!(
            frame.len() as u64 <= 8 + u64::from(MAX_PAYLOAD),
            "record exceeds the frame cap"
        );
        let seq = {
            let mut flush = self.flush.lock();
            if let Some(e) = &flush.error {
                return Err(e.clone());
            }
            flush.appended_seq += 1;
            flush.pending.push(frame);
            flush.appended_seq
        };
        self.wait_durable(seq)
    }

    /// Blocks until everything appended so far is written (and synced,
    /// unless the policy is `Off`) — appends still in flight on other
    /// threads included.
    ///
    /// # Errors
    ///
    /// Returns the first drain failure when the log is poisoned.
    pub fn sync(&self) -> Result<(), WalError> {
        let target = self.flush.lock().appended_seq;
        self.wait_durable(target)
    }

    /// Blocks until `durable_seq` covers `seq`, draining the queue whenever
    /// frames are pending.
    fn wait_durable(&self, seq: u64) -> Result<(), WalError> {
        let mut flush = self.flush.lock();
        loop {
            if let Some(e) = &flush.error {
                return Err(e.clone());
            }
            if flush.durable_seq >= seq {
                return Ok(());
            }
            if flush.pending.is_empty() {
                // `seq` was appended and is no longer pending, so some drain
                // holds the batch containing it; it publishes `durable_seq`
                // under this lock and notifies, so the wait cannot miss it.
                self.durable.wait(&mut flush);
            } else {
                drop(flush);
                self.drain();
                flush = self.flush.lock();
            }
        }
    }

    /// Takes every pending frame, writes them, syncs unless the policy is
    /// `Off`, and publishes the new durable sequence number.
    ///
    /// The segment lock is held from taking the batch to publishing it, so
    /// drains write and publish in the order they took their batches: log
    /// order matches append order, `durable_seq` only moves forward, and a
    /// failed drain poisons the log before any later batch is written.
    fn drain(&self) {
        let mut segments = self.segments.lock();
        let (frames, last_seq) = {
            let mut flush = self.flush.lock();
            if flush.pending.is_empty() || flush.error.is_some() {
                return;
            }
            (std::mem::take(&mut flush.pending), flush.appended_seq)
        };
        let result = segments.write_frames(&frames, self.fsync == FsyncMode::Always);
        {
            let mut flush = self.flush.lock();
            match result {
                Ok(()) => flush.durable_seq = last_seq,
                Err(e) => flush.error = Some(e),
            }
        }
        drop(segments);
        self.durable.notify_all();
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let flush = self.flush.lock();
        f.debug_struct("Wal")
            .field("fsync", &self.fsync)
            .field("appended_seq", &flush.appended_seq)
            .field("durable_seq", &flush.durable_seq)
            .field("poisoned", &flush.error.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvtl_common::{Key, TempDir, Timestamp};

    fn commit(id: u64, key: u64, value: u64) -> WalRecord<u64> {
        WalRecord::Commit {
            id,
            commit_ts: Some(Timestamp::new(id, 0)),
            writes: vec![(Key(key), value)],
        }
    }

    const MODES: [FsyncMode; 2] = [FsyncMode::Always, FsyncMode::Off];

    fn reopen(dir: &Path, options: WalOptions) -> (Wal, Recovery<u64>) {
        Wal::open::<u64>(dir, options).expect("log opens")
    }

    #[test]
    fn append_then_recover_roundtrip() {
        for fsync in MODES {
            let dir = TempDir::new("wal-roundtrip");
            let options = WalOptions {
                fsync,
                ..WalOptions::default()
            };
            let (wal, recovery) = reopen(dir.path(), options);
            assert!(recovery.records.is_empty());
            assert_eq!(recovery.discarded_bytes, 0);
            for i in 1..=10u64 {
                wal.append(&commit(i, i, i * 100)).unwrap();
            }
            drop(wal);

            let (_wal, recovery) = reopen(dir.path(), options);
            assert_eq!(recovery.records.len(), 10, "fsync={fsync:?}");
            assert_eq!(recovery.discarded_bytes, 0);
            assert_eq!(recovery.records[4], commit(5, 5, 500));
        }
    }

    #[test]
    fn fresh_ids_continue_past_recovered_ones() {
        let dir = TempDir::new("wal-ids");
        let (wal, _) = reopen(dir.path(), WalOptions::default());
        assert_eq!(wal.fresh_id(), 1);
        wal.append(&commit(7, 1, 1)).unwrap();
        drop(wal);
        let (wal, _) = reopen(dir.path(), WalOptions::default());
        assert_eq!(wal.fresh_id(), 8, "ids must not collide with the log");
    }

    #[test]
    fn appended_records_are_on_disk_when_append_returns() {
        for fsync in MODES {
            let dir = TempDir::new("wal-on-return");
            let options = WalOptions {
                fsync,
                ..WalOptions::default()
            };
            let (wal, _) = reopen(dir.path(), options);
            for i in 1..=5u64 {
                wal.append(&commit(i, i, i)).unwrap();
                // No `sync()` and no drop: the segment already decodes to
                // every record appended so far, and to nothing else.
                let bytes = std::fs::read(segment_path(dir.path(), 1)).unwrap();
                let mut offset = SEGMENT_HEADER.len();
                let mut ids = Vec::new();
                while let Some((record, consumed)) = decode_frame::<u64>(&bytes[offset..]).unwrap()
                {
                    ids.push(record.id());
                    offset += consumed;
                }
                assert_eq!(offset, bytes.len(), "fsync={fsync:?}: trailing bytes");
                assert_eq!(ids, (1..=i).collect::<Vec<_>>(), "fsync={fsync:?}");
            }
        }
    }

    #[test]
    fn group_commit_batches_concurrent_appenders() {
        for fsync in MODES {
            let dir = TempDir::new("wal-group");
            let options = WalOptions {
                fsync,
                ..WalOptions::default()
            };
            let (wal, _) = reopen(dir.path(), options);
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let wal = &wal;
                    scope.spawn(move || {
                        for i in 0..25u64 {
                            wal.append(&commit(t * 100 + i + 1, t, i)).unwrap();
                        }
                    });
                }
            });
            drop(wal);
            let (_wal, recovery) = reopen(dir.path(), options);
            assert_eq!(recovery.records.len(), 200, "fsync={fsync:?}");
        }
    }

    #[test]
    fn segments_roll_and_recover_in_order() {
        for fsync in MODES {
            let dir = TempDir::new("wal-segments");
            let options = WalOptions {
                fsync,
                segment_bytes: 128, // tiny: force many rolls
            };
            let (wal, _) = reopen(dir.path(), options);
            for i in 1..=50u64 {
                wal.append(&commit(i, i, i)).unwrap();
            }
            drop(wal);
            let segment_files = std::fs::read_dir(dir.path())
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| segment_index(&e.file_name().to_string_lossy()).is_some())
                .count();
            assert!(segment_files > 1, "tiny segments must have rolled");
            let (_wal, recovery) = reopen(dir.path(), options);
            assert_eq!(recovery.records.len(), 50, "fsync={fsync:?}");
            let ids: Vec<u64> = recovery.records.iter().map(WalRecord::id).collect();
            assert_eq!(ids, (1..=50).collect::<Vec<_>>(), "append order preserved");
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = TempDir::new("wal-torn");
        let (wal, _) = reopen(dir.path(), WalOptions::default());
        for i in 1..=5u64 {
            wal.append(&commit(i, i, i)).unwrap();
        }
        drop(wal);

        // Tear the last record in half, as a crash mid-write would.
        let path = segment_path(dir.path(), 1);
        let bytes = std::fs::read(&path).unwrap();
        let torn_len = bytes.len() - 7;
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(torn_len as u64).unwrap();
        drop(file);

        let (wal, recovery) = reopen(dir.path(), WalOptions::default());
        assert_eq!(recovery.records.len(), 4, "the torn record is gone");
        assert!(recovery.discarded_bytes > 0);
        // The tail was truncated: appending continues from a valid log.
        wal.append(&commit(99, 9, 9)).unwrap();
        drop(wal);
        let (_wal, recovery) = reopen(dir.path(), WalOptions::default());
        assert_eq!(recovery.records.len(), 5);
        assert_eq!(recovery.discarded_bytes, 0);
        assert_eq!(recovery.records[4].id(), 99);
    }

    #[test]
    fn checksum_flip_stops_the_scan_without_panicking() {
        let dir = TempDir::new("wal-flip");
        let (wal, _) = reopen(dir.path(), WalOptions::default());
        for i in 1..=5u64 {
            wal.append(&commit(i, i, i)).unwrap();
        }
        drop(wal);

        let path = segment_path(dir.path(), 1);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the third record's frame.
        let frame_len = commit(1, 1, 1).encode_frame().len();
        let offset = SEGMENT_HEADER.len() + 2 * frame_len + 10;
        bytes[offset] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (_wal, recovery) = reopen(dir.path(), WalOptions::default());
        assert_eq!(
            recovery.records.len(),
            2,
            "scan stops at the corrupted record"
        );
        let expected_discard = (bytes.len() - SEGMENT_HEADER.len() - 2 * frame_len) as u64;
        assert_eq!(recovery.discarded_bytes, expected_discard);
    }

    #[test]
    fn corruption_in_an_early_segment_discards_later_segments() {
        let dir = TempDir::new("wal-cascade");
        let options = WalOptions {
            fsync: FsyncMode::Always,
            segment_bytes: 128,
        };
        let (wal, _) = reopen(dir.path(), options);
        for i in 1..=50u64 {
            wal.append(&commit(i, i, i)).unwrap();
        }
        drop(wal);

        // Corrupt the first record of segment 2: segment 1 replays, the rest
        // of segment 2 and all later segments are discarded.
        let path = segment_path(dir.path(), 2);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[SEGMENT_HEADER.len() + 4] ^= 0xFF; // checksum byte of frame 1
        std::fs::write(&path, &bytes).unwrap();

        let (_wal, recovery) = reopen(dir.path(), options);
        let recovered = recovery.records.len() as u64;
        assert!(recovered > 0 && recovered < 50);
        let ids: Vec<u64> = recovery.records.iter().map(WalRecord::id).collect();
        assert_eq!(ids, (1..=recovered).collect::<Vec<_>>());
        assert!(recovery.discarded_bytes > 0);
        // Later segments were deleted; the next open is clean.
        let (_wal, recovery) = reopen(dir.path(), options);
        assert_eq!(recovery.records.len() as u64, recovered);
        assert_eq!(recovery.discarded_bytes, 0);
    }

    #[test]
    fn sync_waits_for_buffered_records_under_fsync_off() {
        let dir = TempDir::new("wal-off-sync");
        let options = WalOptions {
            fsync: FsyncMode::Off,
            ..WalOptions::default()
        };
        let (wal, _) = reopen(dir.path(), options);
        for i in 1..=20u64 {
            wal.append(&commit(i, i, i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let (_wal, recovery) = reopen(dir.path(), options);
        assert_eq!(recovery.records.len(), 20);
    }

    #[test]
    fn foreign_bytes_are_errors_and_keep_every_byte() {
        // A segment of another format version, and what an older build's
        // cross-shard `Decision` frame is to this one: whole, checksum-valid,
        // of an unknown kind.
        let payload = [3u8, 9, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crate::crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        for (bump_version, error) in [(true, "format version 2"), (false, "does not decode")] {
            let dir = TempDir::new("wal-foreign");
            let (wal, _) = reopen(dir.path(), WalOptions::default());
            wal.append(&commit(1, 1, 1)).unwrap();
            drop(wal);
            let path = segment_path(dir.path(), 1);
            let mut bytes = std::fs::read(&path).unwrap();
            if bump_version {
                bytes[SEGMENT_MAGIC.len()] = 2;
            } else {
                bytes.extend_from_slice(&frame);
            }
            std::fs::write(&path, &bytes).unwrap();

            let err = Wal::open::<u64>(dir.path(), WalOptions::default()).unwrap_err();
            assert!(err.0.contains(error), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "the open rewrote it");
            assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 1);
        }
    }

    #[test]
    fn short_or_garbled_headers_are_still_tears() {
        for header in [&b"MVXL\x02\x00\x00\x00"[..], &b"MVWL\x02"[..]] {
            let dir = TempDir::new("wal-garbled-header");
            std::fs::write(segment_path(dir.path(), 1), header).unwrap();
            let (_wal, recovery) = reopen(dir.path(), WalOptions::default());
            assert_eq!(recovery.discarded_bytes, header.len() as u64);
        }
    }
}
