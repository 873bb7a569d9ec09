//! The append-only segmented log: group-commit writer and recovery scanner.
//!
//! A log is a directory of segment files `wal-NNNNNN.log`. A segment is
//! created whole: an 8-byte header (magic + format version), then zeros up
//! to [`WalOptions::segment_bytes`]. Frames ([`crate::record`]) overwrite
//! the zeros from the header on, so a segment is a sequence of frames and
//! then, up to its preallocated end, zeros; a synced append flushes the
//! record's blocks and never a new file size. An appender encodes its frame
//! into a pending buffer and then waits for it to be written: the first
//! waiter to find frames pending drains them all — one `fsync` for every
//! record queued so far — which is the group commit that amortizes fsync
//! under load. No background thread is involved. The fsync policy is
//! [`FsyncMode`]:
//!
//! * `Always` — an append returns once its record is written and synced
//!   (the default),
//! * `Off` — an append returns once its record is written; nothing is ever
//!   synced (testing / throwaway data).
//!
//! Recovery ([`Wal::open`]) scans the segments in order and stops at the
//! first frame whose length or checksum does not verify. Everything before
//! the stop point replays. If only zeros follow it, they are unwritten
//! space and the scan goes on to the next segment. Anything else is a torn
//! tail: it and every later segment are counted as
//! [`Recovery::discarded_bytes`], the tail is truncated and the later
//! segments deleted, so new appends extend a log that is valid end-to-end.
//! The open then tops the segment it appends to up with zeros — a segment
//! an older build wrote, with nothing after its last frame, included. Bytes
//! of another format are not a tear: a segment header with the right magic
//! and another version, or a checksum-valid frame that does not decode,
//! fails the open and leaves every byte on disk.

use crate::record::{
    decode_frame, WalRecord, WalValue, MAX_PAYLOAD, SEGMENT_HEADER, SEGMENT_MAGIC,
};
use mvtl_common::{TempDir, Timestamp};
use parking_lot::{Condvar, Mutex};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
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
    /// Roll to a new segment file once the current one's frames reach this
    /// size. Every segment is zero-filled to it when created.
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
    /// segment plus any segments after it. A remainder of zeros is a
    /// segment's preallocated space, not a tear, and counts nothing.
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
    /// Encoded frames no drain has taken yet, back to back. A drain swaps
    /// the buffer with `Segments::batch`, so both keep their capacity.
    pending: Vec<u8>,
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
    /// The segment's valid end, where the next frame goes. The file is at
    /// least `segment_bytes` long, and zero from here on.
    len: u64,
    segment_bytes: u64,
    /// The batch a drain writes, taken from `Flush::pending`; empty between
    /// drains.
    batch: Vec<u8>,
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

/// The block a segment's zero fill is written from.
static ZEROS: [u8; 16 * 1024] = [0; 16 * 1024];

/// Opens segment `index` to append at `valid_end`; a `valid_end` of 0
/// creates the segment (emptying any file of that name) and writes its
/// header. Returns the file and where the next frame goes.
///
/// The file is then zero-filled up to `segment_bytes`, so appends overwrite
/// blocks that already exist and a synced append never has to make a new
/// file size durable. With `sync` set, the fill — and a new file's directory
/// entry — is durable before any record is appended.
fn open_segment(
    dir: &Path,
    index: u64,
    valid_end: u64,
    segment_bytes: u64,
    sync: bool,
) -> Result<(File, u64), WalError> {
    let create = valid_end == 0;
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(create)
        .open(segment_path(dir, index))
        .map_err(|e| io_err("opening segment", e))?;
    if create {
        file.write_all_at(&SEGMENT_HEADER, 0)
            .map_err(|e| io_err("writing segment header", e))?;
    }
    let mut end = file
        .metadata()
        .map_err(|e| io_err("segment metadata", e))?
        .len();
    let filled = end < segment_bytes;
    while end < segment_bytes {
        let n = (segment_bytes - end).min(ZEROS.len() as u64);
        file.write_all_at(&ZEROS[..n as usize], end)
            .map_err(|e| io_err("zero-filling segment", e))?;
        end += n;
    }
    if sync && (create || filled) {
        file.sync_data().map_err(|e| io_err("fsync", e))?;
    }
    if sync && create {
        sync_dir(dir)?;
    }
    Ok((file, valid_end.max(SEGMENT_HEADER.len() as u64)))
}

impl Segments {
    /// Writes the taken batch and empties it for the next drain.
    fn write_batch(&mut self, sync: bool) -> Result<(), WalError> {
        let mut batch = std::mem::take(&mut self.batch);
        let result = self.write_frames(&batch, sync);
        batch.clear();
        self.batch = batch;
        result
    }

    /// Writes whole frames at the valid end, rolling to a fresh segment
    /// between frames when the current one is full; a run of frames that
    /// passes the preallocated end extends the file. With `sync` set, every
    /// segment written to is synced: a finished one before the roll, the
    /// current one at the end.
    fn write_frames(&mut self, mut frames: &[u8], sync: bool) -> Result<(), WalError> {
        while !frames.is_empty() {
            if self.len >= self.segment_bytes {
                if sync {
                    self.sync()?;
                }
                (self.file, self.len) =
                    open_segment(&self.dir, self.index + 1, 0, self.segment_bytes, sync)?;
                self.index += 1;
            }
            // Every frame that starts before the segment is full.
            let mut run = 0;
            while run < frames.len() && self.len + (run as u64) < self.segment_bytes {
                let payload = u32::from_le_bytes([
                    frames[run],
                    frames[run + 1],
                    frames[run + 2],
                    frames[run + 3],
                ]);
                run += 8 + payload as usize;
            }
            self.file
                .write_all_at(&frames[..run], self.len)
                .map_err(|e| io_err("appending frame", e))?;
            self.len += run as u64;
            frames = &frames[run..];
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
        // (segment index, valid end, whether non-zero bytes follow it)
        let mut last_valid: Option<(u64, u64, bool)> = None;
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
            // Zeros after the last frame are space preallocated for frames
            // not yet written; anything else is a torn or corrupted tail.
            let rest = &bytes[offset..];
            let torn_tail = rest.iter().any(|&b| b != 0);
            last_valid = Some((index, offset as u64, torn_tail));
            if torn_tail {
                recovery.discarded_bytes += rest.len() as u64;
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
        if let Some((index, valid_end, torn_tail)) = last_valid {
            if torn_tail {
                let file = OpenOptions::new()
                    .write(true)
                    .open(segment_path(dir, index))
                    .map_err(|e| io_err("opening segment for truncation", e))?;
                file.set_len(valid_end)
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
        // Appending resumes at the valid end, and the segment is topped up
        // with zeros: one rule for new, recovered, torn and older segments.
        let (index, valid_end) = last_valid.map_or((1, 0), |(index, end, _)| (index, end));
        let segment_bytes = options.segment_bytes.max(64);
        let (file, len) = open_segment(dir, index, valid_end, segment_bytes, sync)?;
        let segments = Segments {
            dir: dir.to_path_buf(),
            file,
            index,
            len,
            segment_bytes,
            batch: Vec::new(),
        };
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
    /// The record encodes straight into the queue, so an append allocates
    /// nothing once the queue's buffers have grown to the batch size.
    ///
    /// # Errors
    ///
    /// Returns an error, and queues nothing, when the record's payload
    /// exceeds [`MAX_PAYLOAD`]: no decoder would read such a frame back.
    /// Returns the first drain failure once the log is poisoned; the record
    /// may or may not have reached the disk in that case.
    pub fn append<V: WalValue>(&self, record: &WalRecord<V>) -> Result<(), WalError> {
        let seq = {
            let mut flush = self.flush.lock();
            if let Some(e) = &flush.error {
                return Err(e.clone());
            }
            record
                .put_frame(&mut flush.pending, MAX_PAYLOAD as usize)
                .map_err(|len| {
                    WalError(format!(
                        "a {len}-byte record exceeds the {MAX_PAYLOAD}-byte frame cap"
                    ))
                })?;
            flush.appended_seq += 1;
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
        let last_seq = {
            let mut flush = self.flush.lock();
            if flush.pending.is_empty() || flush.error.is_some() {
                return;
            }
            std::mem::swap(&mut flush.pending, &mut segments.batch);
            flush.appended_seq
        };
        let result = segments.write_batch(self.fsync == FsyncMode::Always);
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

    /// The end of the frames that decode from the header on.
    fn valid_end(bytes: &[u8]) -> usize {
        let mut offset = SEGMENT_HEADER.len();
        while let Some((_, consumed)) = decode_frame::<u64>(&bytes[offset..]).unwrap() {
            offset += consumed;
        }
        offset
    }

    /// Writes five records to a fresh log in `dir` and returns the first
    /// segment's bytes.
    fn five_records(dir: &Path) -> Vec<u8> {
        let (wal, _) = reopen(dir, WalOptions::default());
        for i in 1..=5u64 {
            wal.append(&commit(i, i, i)).unwrap();
        }
        drop(wal);
        std::fs::read(segment_path(dir, 1)).unwrap()
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
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
                assert!(
                    bytes[offset..].iter().all(|&b| b == 0),
                    "fsync={fsync:?}: non-zero bytes after the last frame"
                );
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
        let bytes = five_records(dir.path());

        // Tear the last record: a crash mid-write kept its first bytes and
        // left the rest of the preallocated space zero.
        let path = segment_path(dir.path(), 1);
        let end = valid_end(&bytes);
        let start = end - commit(5, 5, 5).encode_frame().len();
        let mut torn = bytes.clone();
        torn[(start + end) / 2..end].fill(0);
        std::fs::write(&path, &torn).unwrap();

        let (wal, recovery) = reopen(dir.path(), WalOptions::default());
        assert_eq!(recovery.records.len(), 4, "the torn record is gone");
        assert_eq!(recovery.discarded_bytes, (bytes.len() - start) as u64);
        // The tail was truncated and zero-filled again: appending continues
        // from a valid log.
        let refilled = std::fs::read(&path).unwrap();
        assert_eq!(refilled.len(), bytes.len());
        assert!(refilled[start..].iter().all(|&b| b == 0));
        wal.append(&commit(99, 9, 9)).unwrap();
        drop(wal);
        let (_wal, recovery) = reopen(dir.path(), WalOptions::default());
        assert_eq!(recovery.records.len(), 5);
        assert_eq!(recovery.discarded_bytes, 0);
        assert_eq!(recovery.records[4].id(), 99);
    }

    #[test]
    fn a_clean_zero_tail_is_unwritten_space() {
        for fsync in MODES {
            let dir = TempDir::new("wal-zero-tail");
            let options = WalOptions {
                fsync,
                ..WalOptions::default()
            };
            let path = segment_path(dir.path(), 1);
            let (wal, _) = reopen(dir.path(), options);
            assert_eq!(file_len(&path), options.segment_bytes, "preallocated");
            for i in 1..=3u64 {
                wal.append(&commit(i, i, i)).unwrap();
            }
            drop(wal);
            let bytes = std::fs::read(&path).unwrap();
            let end = valid_end(&bytes);

            let (wal, recovery) = reopen(dir.path(), options);
            assert_eq!(recovery.records.len(), 3, "fsync={fsync:?}");
            assert_eq!(recovery.discarded_bytes, 0, "fsync={fsync:?}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "the open kept the tail"
            );
            wal.append(&commit(4, 4, 4)).unwrap();
            let after = std::fs::read(&path).unwrap();
            assert_eq!(after.len() as u64, options.segment_bytes);
            assert_eq!(after[..end], bytes[..end]);
            let frame = commit(4, 4, 4).encode_frame();
            assert_eq!(
                &after[end..end + frame.len()],
                &frame[..],
                "at the valid end"
            );
            assert!(after[end + frame.len()..].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn a_torn_frame_followed_by_zeros_is_a_tear() {
        let dir = TempDir::new("wal-torn-zeros");
        let bytes = five_records(dir.path());
        let end = valid_end(&bytes);
        // A frame's length word and half its payload, then zeros.
        let frame = commit(6, 6, 6).encode_frame();
        let mut torn = bytes.clone();
        torn[end..end + frame.len() / 2].copy_from_slice(&frame[..frame.len() / 2]);
        std::fs::write(segment_path(dir.path(), 1), &torn).unwrap();

        let (_wal, recovery) = reopen(dir.path(), WalOptions::default());
        assert_eq!(recovery.records.len(), 5);
        assert_eq!(recovery.discarded_bytes, (bytes.len() - end) as u64);
        let (_wal, recovery) = reopen(dir.path(), WalOptions::default());
        assert_eq!(recovery.records.len(), 5);
        assert_eq!(recovery.discarded_bytes, 0, "the tear was truncated");
    }

    #[test]
    fn non_zero_bytes_after_zeros_are_a_tear() {
        let dir = TempDir::new("wal-zeros-then-bytes");
        let bytes = five_records(dir.path());
        let end = valid_end(&bytes);
        for at in [end + 8, end + 4096, bytes.len() - 1] {
            let mut torn = bytes.clone();
            torn[at] = 0x5A;
            std::fs::write(segment_path(dir.path(), 1), &torn).unwrap();
            let (_wal, recovery) = reopen(dir.path(), WalOptions::default());
            assert_eq!(recovery.records.len(), 5, "byte at {at}");
            assert_eq!(recovery.discarded_bytes, (bytes.len() - end) as u64);
            assert_eq!(
                std::fs::read(segment_path(dir.path(), 1)).unwrap(),
                bytes,
                "truncated and zero-filled again"
            );
        }
    }

    #[test]
    fn a_segment_without_a_zero_tail_recovers_and_is_topped_up() {
        // What an older build writes: the header and frames, nothing after.
        let dir = TempDir::new("wal-older-segment");
        let mut older = SEGMENT_HEADER.to_vec();
        for i in 1..=3u64 {
            older.extend_from_slice(&commit(i, i, i).encode_frame());
        }
        let path = segment_path(dir.path(), 1);
        std::fs::write(&path, &older).unwrap();

        let (wal, recovery) = reopen(dir.path(), WalOptions::default());
        assert_eq!(
            recovery.records,
            (1..=3).map(|i| commit(i, i, i)).collect::<Vec<_>>()
        );
        assert_eq!(recovery.discarded_bytes, 0);
        let topped = std::fs::read(&path).unwrap();
        assert_eq!(topped.len() as u64, WalOptions::default().segment_bytes);
        assert_eq!(topped[..older.len()], older[..]);
        assert!(topped[older.len()..].iter().all(|&b| b == 0));
        wal.append(&commit(4, 4, 4)).unwrap();
        drop(wal);
        let (_wal, recovery) = reopen(dir.path(), WalOptions::default());
        let ids: Vec<u64> = recovery.records.iter().map(WalRecord::id).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        assert_eq!(recovery.discarded_bytes, 0);
    }

    #[test]
    fn a_roll_preallocates_the_next_segment() {
        for fsync in MODES {
            let dir = TempDir::new("wal-roll-prealloc");
            let options = WalOptions {
                fsync,
                segment_bytes: 256,
            };
            let (wal, _) = reopen(dir.path(), options);
            let mut i = 0;
            while !segment_path(dir.path(), 2).exists() {
                i += 1;
                wal.append(&commit(i, i, i)).unwrap();
            }
            let bytes = std::fs::read(segment_path(dir.path(), 2)).unwrap();
            assert_eq!(bytes.len(), 256, "fsync={fsync:?}");
            let end = valid_end(&bytes);
            assert_eq!(
                end,
                SEGMENT_HEADER.len() + commit(i, i, i).encode_frame().len()
            );
            assert!(bytes[end..].iter().all(|&b| b == 0));
            // The full segment ends at its last frame, which ran past the
            // preallocated end.
            let full = std::fs::read(segment_path(dir.path(), 1)).unwrap();
            assert_eq!(valid_end(&full), full.len());
            assert!(full.len() >= 256);
        }
    }

    #[test]
    fn zeros_decode_as_no_frame() {
        assert!(matches!(decode_frame::<u64>(&ZEROS), Ok(None)));
        assert!(matches!(decode_frame::<u64>(&ZEROS[..8]), Ok(None)));
        assert!(matches!(decode_frame::<u64>(&ZEROS[..3]), Ok(None)));
    }

    #[test]
    fn an_oversized_record_is_an_error_and_queues_nothing() {
        let dir = TempDir::new("wal-oversized");
        let (wal, _) = reopen(dir.path(), WalOptions::default());
        // kind, id, no timestamp, one write: 26 bytes besides the value.
        let value = "x".repeat(MAX_PAYLOAD as usize + 1 - 26);
        let record = WalRecord::Commit {
            id: 1,
            commit_ts: None,
            writes: vec![(Key(1), value)],
        };
        let err = wal.append(&record).unwrap_err();
        assert!(
            err.0
                .contains(&format!("{}-byte record", MAX_PAYLOAD as usize + 1)),
            "{err}"
        );
        drop(record);
        let fits = WalRecord::Commit {
            id: 2,
            commit_ts: None,
            writes: vec![(Key(1), "y".to_string())],
        };
        wal.append(&fits).unwrap();
        drop(wal);
        let (_wal, recovery) = Wal::open::<String>(dir.path(), WalOptions::default()).unwrap();
        assert_eq!(recovery.records, [fits]);
        assert_eq!(recovery.discarded_bytes, 0);
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
                let end = valid_end(&bytes);
                bytes[end..end + frame.len()].copy_from_slice(&frame);
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
