//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's side of the boundary, around each
//! call into the program (`begin`/`read`/`write`/`commit`/drop-abort, or one
//! pipelined burst on the served path), nested under an `attempt` span and a
//! root `txn` span. Each client thread owns a preallocated buffer; nothing is
//! written out until the phase is over. The untraced run uses [`NoTrace`],
//! whose methods compile to nothing, so end-to-end numbers never pay for the
//! recorder.

use crate::hist::Histogram;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Txn,
    Attempt,
    RetryWait,
    Begin,
    Read,
    Write,
    Commit,
    Abort,
    Burst,
}

pub const NAMES: [&str; 9] = [
    "txn",
    "attempt",
    "retry_wait",
    "begin",
    "read",
    "write",
    "commit",
    "abort",
    "burst",
];

/// Marks the root span: it has no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One fixed-size span record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Whether an `attempt` span ended in a commit (false for other names).
    pub committed: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Client-local transaction number shared by all spans of one txn.
    pub txn: u32,
}

pub trait Tracer {
    /// Opens a span under the innermost open one and returns its handle.
    fn open(&mut self, name: Name) -> u32;
    fn close(&mut self, handle: u32);
    /// Marks an `attempt` span as the committing one.
    fn mark_committed(&mut self, handle: u32);
    /// Starts the next transaction (bumps the txn id).
    fn next_txn(&mut self);
    /// Whether another transaction's worth of spans still fits.
    fn has_room(&self) -> bool;
}

pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn open(&mut self, _name: Name) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _handle: u32) {}
    #[inline(always)]
    fn mark_committed(&mut self, _handle: u32) {}
    #[inline(always)]
    fn next_txn(&mut self) {}
    #[inline(always)]
    fn has_room(&self) -> bool {
        true
    }
}

/// A preallocated per-thread span buffer. When fewer than `reserve` slots are
/// left [`Tracer::has_room`] turns false and the phase ends; a transaction
/// that still overruns (a retry storm) simply stops recording.
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    reserve: usize,
    txn: u32,
}

impl SpanBuf {
    pub fn new(epoch: Instant, capacity: usize, reserve: usize) -> Self {
        SpanBuf {
            epoch,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            reserve,
            txn: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Tracer for SpanBuf {
    #[inline]
    fn open(&mut self, name: Name) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            return NO_PARENT;
        }
        let handle = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            committed: false,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            txn: self.txn,
        });
        self.stack.push(handle);
        handle
    }

    #[inline]
    fn close(&mut self, handle: u32) {
        if handle == NO_PARENT {
            return;
        }
        let end_ns = self.now();
        self.spans[handle as usize].end_ns = end_ns;
        self.stack.pop();
    }

    fn mark_committed(&mut self, handle: u32) {
        if handle != NO_PARENT {
            self.spans[handle as usize].committed = true;
        }
    }

    fn next_txn(&mut self) {
        self.txn += 1;
    }

    fn has_room(&self) -> bool {
        self.spans.capacity() - self.spans.len() >= self.reserve
    }
}

/// Self time of every span: its duration minus what its direct children cover.
/// Children nest inside their parent (same thread, stack discipline), so the
/// subtraction never goes negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = span.parent as usize;
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// What the traced phase reports, aggregated over every client's buffer.
#[derive(Default)]
pub struct Breakdown {
    /// Per span name: count, summed self time (ns), histogram of durations.
    pub count: [u64; NAMES.len()],
    pub self_ns: [u64; NAMES.len()],
    pub durations: Vec<Histogram>,
    /// Root `txn` spans: count and summed duration.
    pub txns: u64,
    pub txn_ns: u64,
    /// Time inside the calls of committing attempts (Thomasian's execution).
    pub exec_ns: u64,
    /// Whole duration of attempts that aborted (restart cost).
    pub restart_ns: u64,
    /// Time yielding between attempts.
    pub retry_wait_ns: u64,
}

impl Breakdown {
    pub fn new() -> Self {
        Breakdown {
            durations: vec![Histogram::default(); NAMES.len()],
            ..Breakdown::default()
        }
    }

    pub fn add(&mut self, spans: &[Span]) {
        let own = self_times(spans);
        for (span, own) in spans.iter().zip(&own) {
            let name = span.name as usize;
            let duration = span.end_ns - span.start_ns;
            self.count[name] += 1;
            self.self_ns[name] += own;
            self.durations[name].record(duration);
            match span.name {
                Name::Txn => {
                    self.txns += 1;
                    self.txn_ns += duration;
                }
                Name::Attempt if span.committed => self.exec_ns += duration - own,
                Name::Attempt => self.restart_ns += duration,
                Name::RetryWait => self.retry_wait_ns += duration,
                _ => {}
            }
        }
    }

    /// Mean self time of `name` spans in nanoseconds (0 when none ran).
    pub fn mean_self_ns(&self, name: Name) -> f64 {
        let n = self.count[name as usize];
        if n == 0 {
            return 0.0;
        }
        self.self_ns[name as usize] as f64 / n as f64
    }

    pub fn p99_ns(&self, name: Name) -> f64 {
        self.durations[name as usize].quantile(0.99)
    }

    /// Summed self time over all spans ÷ summed root duration. Exactly 1 when
    /// every span nests in its parent; the acceptance band is ±5%.
    pub fn coverage(&self) -> f64 {
        if self.txn_ns == 0 {
            return 1.0;
        }
        self.self_ns.iter().sum::<u64>() as f64 / self.txn_ns as f64
    }
}

/// Writes at most `limit` spans per client as JSON lines.
pub fn write_jsonl(
    path: &std::path::Path,
    clients: &[Vec<Span>],
    limit: usize,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (client, spans) in clients.iter().enumerate() {
        for (id, span) in spans.iter().take(limit).enumerate() {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"client\":{client},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"txn\":{}}}",
                NAMES[span.name as usize], span.start_ns, span.end_ns, span.txn
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start_ns: u64, end_ns: u64, parent: u32, committed: bool) -> Span {
        Span {
            name,
            committed,
            start_ns,
            end_ns,
            parent,
            txn: 0,
        }
    }

    /// txn[0,100] → attempt[5,40] (aborted: begin, read) → retry_wait[40,50]
    /// → attempt[50,95] (committed: begin, write, commit).
    fn sample() -> Vec<Span> {
        vec![
            span(Name::Txn, 0, 100, NO_PARENT, false),
            span(Name::Attempt, 5, 40, 0, false),
            span(Name::Begin, 6, 10, 1, false),
            span(Name::Read, 12, 30, 1, false),
            span(Name::RetryWait, 40, 50, 0, false),
            span(Name::Attempt, 50, 95, 0, true),
            span(Name::Begin, 51, 55, 5, false),
            span(Name::Write, 56, 70, 5, false),
            span(Name::Commit, 72, 94, 5, false),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = sample();
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 35 - 10 - 45); // txn minus attempts and wait
        assert_eq!(own[1], 35 - 4 - 18);
        assert_eq!(own[5], 45 - 4 - 14 - 22);
        assert_eq!(own[3], 18, "leaves keep their whole duration");
    }

    #[test]
    fn children_never_exceed_their_parent_and_self_times_sum_to_the_root() {
        let spans = sample();
        let own = self_times(&spans);
        for (i, s) in spans.iter().enumerate() {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == i as u32)
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            assert!(children <= s.end_ns - s.start_ns);
        }
        assert_eq!(own.iter().sum::<u64>(), 100);
        let mut b = Breakdown::new();
        b.add(&spans);
        assert!((b.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_splits_execution_restart_and_wait() {
        let mut b = Breakdown::new();
        b.add(&sample());
        assert_eq!((b.txns, b.txn_ns), (1, 100));
        assert_eq!(b.exec_ns, 4 + 14 + 22);
        assert_eq!(b.restart_ns, 35);
        assert_eq!(b.retry_wait_ns, 10);
        assert_eq!(b.mean_self_ns(Name::Begin), 4.0);
        assert_eq!(b.count[Name::Attempt as usize], 2);
    }

    #[test]
    fn span_buf_nests_by_stack_and_stops_when_full() {
        let mut buf = SpanBuf::new(Instant::now(), 4, 3);
        assert!(buf.has_room());
        let txn = buf.open(Name::Txn);
        let attempt = buf.open(Name::Attempt);
        assert!(!buf.has_room(), "fewer than `reserve` slots left");
        let read = buf.open(Name::Read);
        buf.close(read);
        buf.mark_committed(attempt);
        buf.close(attempt);
        let a = buf.open(Name::RetryWait);
        let overflow = buf.open(Name::Attempt);
        assert_eq!(overflow, NO_PARENT);
        buf.close(overflow);
        buf.close(a);
        buf.close(txn);
        let spans = buf.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 0);
        assert!(spans[1].committed);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let own = self_times(&spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].end_ns - spans[0].start_ns);
    }
}
