//! Timestamps and closed timestamp ranges.

use std::fmt;

/// A timestamp: a `(value, process)` pair ordered lexicographically.
///
/// This follows §4.1 of the paper: "to ensure processes pick distinct
/// timestamps, we add a process id to a timestamp; thus, a timestamp is a pair
/// `(v, p)` ordered lexicographically". The `value` component is the clock
/// reading and the `process` component disambiguates ties.
///
/// Two distinguished timestamps exist:
///
/// * [`Timestamp::ZERO`] — the smallest timestamp, carrying the initial `⊥`
///   version of every key.
/// * [`Timestamp::MAX`] — the representation of the `+∞` bound used by the
///   pessimistic and prioritizer policies ("write-lock all the possible
///   timestamps", Algorithms 6 and 9).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    /// Clock value (most significant component of the order).
    pub value: u64,
    /// Process identifier used as the tie-breaker.
    pub process: u32,
}

impl Timestamp {
    /// The smallest timestamp; `Values[k, ZERO] = ⊥` initially for every key.
    pub const ZERO: Timestamp = Timestamp {
        value: 0,
        process: 0,
    };

    /// The largest representable timestamp, standing in for `+∞`.
    pub const MAX: Timestamp = Timestamp {
        value: u64::MAX,
        process: u32::MAX,
    };

    /// Creates a timestamp from a clock value and a process id.
    #[must_use]
    pub const fn new(value: u64, process: u32) -> Self {
        Timestamp { value, process }
    }

    /// Creates a timestamp with process id 0; convenient in tests and examples.
    #[must_use]
    pub const fn at(value: u64) -> Self {
        Timestamp { value, process: 0 }
    }

    /// The immediate successor in the total order (the paper's `t + 1`).
    ///
    /// Saturates at [`Timestamp::MAX`].
    #[must_use]
    pub fn succ(self) -> Self {
        if self == Timestamp::MAX {
            return Timestamp::MAX;
        }
        if self.process == u32::MAX {
            Timestamp {
                value: self.value + 1,
                process: 0,
            }
        } else {
            Timestamp {
                value: self.value,
                process: self.process + 1,
            }
        }
    }

    /// The immediate predecessor in the total order (the paper's `t - 1`).
    ///
    /// Saturates at [`Timestamp::ZERO`].
    #[must_use]
    pub fn pred(self) -> Self {
        if self == Timestamp::ZERO {
            return Timestamp::ZERO;
        }
        if self.process == 0 {
            Timestamp {
                value: self.value - 1,
                process: u32::MAX,
            }
        } else {
            Timestamp {
                value: self.value,
                process: self.process - 1,
            }
        }
    }

    /// Whether this is the `+∞` sentinel.
    #[must_use]
    pub fn is_max(self) -> bool {
        self == Timestamp::MAX
    }

    /// Whether this is the smallest timestamp.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self == Timestamp::ZERO
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_max() {
            write!(f, "ts(+inf)")
        } else {
            write!(f, "ts({}.{})", self.value, self.process)
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_max() {
            write!(f, "+inf")
        } else {
            write!(f, "{}.{}", self.value, self.process)
        }
    }
}

impl From<u64> for Timestamp {
    fn from(value: u64) -> Self {
        Timestamp::at(value)
    }
}

/// A non-empty closed interval of timestamps `[start, end]`.
///
/// Ranges are the unit of *interval compression* (§6 of the paper): every lock
/// acquisition, every freeze, and every per-transaction candidate set is a
/// small number of these.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TsRange {
    /// Inclusive lower bound.
    pub start: Timestamp,
    /// Inclusive upper bound.
    pub end: Timestamp,
}

impl TsRange {
    /// Creates the closed range `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`; use [`TsRange::checked`] to construct ranges
    /// from possibly-inverted bounds.
    #[must_use]
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(start <= end, "invalid timestamp range: {start} > {end}");
        TsRange { start, end }
    }

    /// Creates `[start, end]` or returns `None` if `start > end`.
    #[must_use]
    pub fn checked(start: Timestamp, end: Timestamp) -> Option<Self> {
        if start <= end {
            Some(TsRange { start, end })
        } else {
            None
        }
    }

    /// The singleton range `[t, t]`.
    #[must_use]
    pub fn point(t: Timestamp) -> Self {
        TsRange { start: t, end: t }
    }

    /// The full range `[ZERO, MAX]`, i.e. "all the possible timestamps".
    #[must_use]
    pub fn all() -> Self {
        TsRange {
            start: Timestamp::ZERO,
            end: Timestamp::MAX,
        }
    }

    /// Whether `t` lies inside the range.
    #[must_use]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }

    /// Whether the two ranges share at least one timestamp.
    #[must_use]
    pub fn overlaps(&self, other: &TsRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The intersection of two ranges, if non-empty.
    #[must_use]
    pub fn intersection(&self, other: &TsRange) -> Option<TsRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        TsRange::checked(start, end)
    }

    /// Whether `other` is entirely contained in `self`.
    #[must_use]
    pub fn contains_range(&self, other: &TsRange) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Whether the two ranges are adjacent (`self.end.succ() == other.start`)
    /// or overlapping, i.e. their union is a single range.
    #[must_use]
    pub fn touches(&self, other: &TsRange) -> bool {
        if self.overlaps(other) {
            return true;
        }
        if self.end < other.start {
            self.end.succ() == other.start
        } else {
            other.end.succ() == self.start
        }
    }
}

impl fmt::Debug for TsRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

impl fmt::Display for TsRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

impl From<Timestamp> for TsRange {
    fn from(t: Timestamp) -> Self {
        TsRange::point(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Timestamp::new(1, 5) < Timestamp::new(2, 0));
        assert!(Timestamp::new(2, 0) < Timestamp::new(2, 1));
        assert!(Timestamp::ZERO < Timestamp::new(0, 1));
        assert!(Timestamp::new(7, 3) == Timestamp::new(7, 3));
        assert!(Timestamp::MAX > Timestamp::new(u64::MAX, 0));
    }

    #[test]
    fn succ_and_pred_are_inverses() {
        let t = Timestamp::new(10, 3);
        assert_eq!(t.succ().pred(), t);
        assert_eq!(t.pred().succ(), t);

        let boundary = Timestamp::new(10, u32::MAX);
        assert_eq!(boundary.succ(), Timestamp::new(11, 0));
        assert_eq!(boundary.succ().pred(), boundary);
    }

    #[test]
    fn succ_saturates_at_max() {
        assert_eq!(Timestamp::MAX.succ(), Timestamp::MAX);
        assert_eq!(Timestamp::ZERO.pred(), Timestamp::ZERO);
    }

    #[test]
    fn range_contains_and_overlap() {
        let r = TsRange::new(Timestamp::at(5), Timestamp::at(10));
        assert!(r.contains(Timestamp::at(5)));
        assert!(r.contains(Timestamp::at(10)));
        assert!(!r.contains(Timestamp::at(11)));
        assert!(!r.contains(Timestamp::new(4, u32::MAX)));

        let s = TsRange::new(Timestamp::at(10), Timestamp::at(20));
        assert!(r.overlaps(&s));
        assert_eq!(r.intersection(&s), Some(TsRange::point(Timestamp::at(10))));

        let t = TsRange::new(Timestamp::at(11), Timestamp::at(20));
        assert!(!r.overlaps(&t));
        assert!(r.intersection(&t).is_none());
        // [5.0, 10.0] and [11.0, 20.0] are *not* adjacent: (10,1)..(10,MAX)
        // lie between them in the lexicographic order.
        assert!(!r.touches(&t));

        let u = TsRange::new(Timestamp::new(10, 1), Timestamp::at(20));
        assert!(!r.overlaps(&u));
        assert!(r.touches(&u));
    }

    #[test]
    #[should_panic(expected = "invalid timestamp range")]
    fn inverted_range_panics() {
        let _ = TsRange::new(Timestamp::at(5), Timestamp::at(4));
    }

    #[test]
    fn checked_range() {
        assert!(TsRange::checked(Timestamp::at(5), Timestamp::at(4)).is_none());
        assert!(TsRange::checked(Timestamp::at(4), Timestamp::at(4)).is_some());
    }

    #[test]
    fn point_and_all() {
        let p = TsRange::point(Timestamp::at(3));
        assert_eq!(p.start, p.end);
        assert!(TsRange::all().contains(Timestamp::MAX));
        assert!(TsRange::all().contains(Timestamp::ZERO));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Timestamp::new(4, 2).to_string(), "4.2");
        assert_eq!(Timestamp::MAX.to_string(), "+inf");
        assert_eq!(
            TsRange::new(Timestamp::at(1), Timestamp::at(2)).to_string(),
            "[1.0, 2.0]"
        );
    }
}
