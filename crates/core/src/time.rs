//! Time primitives: UTC timestamps and closed intervals.
//!
//! Implemented from scratch (no chrono): the archive formats only need an
//! ISO-8601 subset, and search needs fast interval arithmetic. Calendar
//! conversion uses Howard Hinnant's days-from-civil algorithm.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Seconds since the Unix epoch, UTC. Sub-second precision is not needed for
/// dataset-level metadata (the catalog stores ranges, not samples).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Timestamp(pub i64);

const SECS_PER_DAY: i64 = 86_400;

/// Converts a civil date to days since 1970-01-01 (proleptic Gregorian).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // March=0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Converts days since 1970-01-01 back to a civil date.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn is_leap(y: i64) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// The six numbers of `YYYY-MM-DD?HH:MM:SS` (`?` one of `T`, `t`, space),
/// when `s` is exactly that: the form the archive writers emit, read by
/// position. [`Timestamp::parse`] reads it to the same numbers the long way.
fn fixed_fields(s: &str) -> Option<[u32; 6]> {
    let b = s.as_bytes();
    if b.len() != 19
        || (b[4], b[7], b[13], b[16]) != (b'-', b'-', b':', b':')
        || !matches!(b[10], b'T' | b't' | b' ')
    {
        return None;
    }
    let num = |from: usize, to: usize| {
        b[from..to]
            .iter()
            .try_fold(0u32, |n, &c| c.is_ascii_digit().then(|| n * 10 + u32::from(c - b'0')))
    };
    Some([num(0, 4)?, num(5, 7)?, num(8, 10)?, num(11, 13)?, num(14, 16)?, num(17, 19)?])
}

impl Timestamp {
    /// The Unix epoch.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Builds a timestamp from civil UTC date and time components.
    ///
    /// Returns an error for out-of-range components (month 13, Feb 30, ...).
    pub fn from_ymd_hms(y: i64, mo: u32, d: u32, h: u32, mi: u32, s: u32) -> Result<Timestamp> {
        if !(1..=12).contains(&mo) {
            return Err(Error::invalid(format!("month {mo} out of range")));
        }
        if d < 1 || d > days_in_month(y, mo) {
            return Err(Error::invalid(format!("day {d} out of range for {y}-{mo:02}")));
        }
        if h > 23 || mi > 59 || s > 60 {
            return Err(Error::invalid(format!("time {h:02}:{mi:02}:{s:02} out of range")));
        }
        let s = s.min(59); // fold leap second
        let days = days_from_civil(y, mo, d);
        Ok(Timestamp(days * SECS_PER_DAY + (h as i64) * 3600 + (mi as i64) * 60 + s as i64))
    }

    /// Builds a timestamp at midnight UTC of a civil date.
    pub fn from_ymd(y: i64, mo: u32, d: u32) -> Result<Timestamp> {
        Timestamp::from_ymd_hms(y, mo, d, 0, 0, 0)
    }

    /// Civil UTC components `(year, month, day, hour, minute, second)`.
    pub fn to_civil(self) -> (i64, u32, u32, u32, u32, u32) {
        let days = self.0.div_euclid(SECS_PER_DAY);
        let rem = self.0.rem_euclid(SECS_PER_DAY);
        let (y, mo, d) = civil_from_days(days);
        let h = (rem / 3600) as u32;
        let mi = ((rem % 3600) / 60) as u32;
        let s = (rem % 60) as u32;
        (y, mo, d, h, mi, s)
    }

    /// Parses an ISO-8601 subset:
    /// `YYYY-MM-DD`, `YYYY-MM-DDTHH:MM`, `YYYY-MM-DDTHH:MM:SS`,
    /// optionally suffixed `Z`, with `T` or a single space as the separator.
    /// Also accepts the compact instrument-log form `YYYYMMDDHHMMSS`.
    pub fn parse(s: &str) -> Result<Timestamp> {
        let s = s.trim();
        let s = s.strip_suffix('Z').unwrap_or(s);
        let bad = || Error::parse("timestamp", format!("unrecognized timestamp '{s}'"));
        if let Some([y, mo, d, h, mi, sec]) = fixed_fields(s) {
            return Timestamp::from_ymd_hms(y.into(), mo, d, h, mi, sec);
        }

        if s.len() == 14 && s.bytes().all(|b| b.is_ascii_digit()) {
            // Compact YYYYMMDDHHMMSS
            let y: i64 = s[0..4].parse().map_err(|_| bad())?;
            let mo: u32 = s[4..6].parse().map_err(|_| bad())?;
            let d: u32 = s[6..8].parse().map_err(|_| bad())?;
            let h: u32 = s[8..10].parse().map_err(|_| bad())?;
            let mi: u32 = s[10..12].parse().map_err(|_| bad())?;
            let sec: u32 = s[12..14].parse().map_err(|_| bad())?;
            return Timestamp::from_ymd_hms(y, mo, d, h, mi, sec);
        }

        // Date part: YYYY-MM-DD
        if s.len() < 10 || !s.is_char_boundary(10) {
            return Err(bad());
        }
        let (date, time) = s.split_at(10);
        let mut dp = date.split('-');
        let y: i64 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let mo: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let d: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if dp.next().is_some() {
            return Err(bad());
        }
        if time.is_empty() {
            return Timestamp::from_ymd(y, mo, d);
        }
        let time = match time.as_bytes()[0] {
            b'T' | b' ' | b't' => &time[1..],
            _ => return Err(bad()),
        };
        // Truncate fractional seconds.
        let time = time.split('.').next().unwrap_or(time);
        let mut parts = time.split(':');
        let h: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let mi: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let sec: u32 = parts.next().map_or(Ok(0), str::parse).map_err(|_| bad())?;
        if parts.next().is_some() {
            return Err(bad());
        }
        Timestamp::from_ymd_hms(y, mo, d, h, mi, sec)
    }

    /// Renders `YYYY-MM-DDTHH:MM:SSZ`.
    pub fn to_iso8601(self) -> String {
        self.to_string()
    }

    /// Renders just the date part, `YYYY-MM-DD`.
    pub fn to_date_string(self) -> String {
        let (y, mo, d, ..) = self.to_civil();
        format!("{y:04}-{mo:02}-{d:02}")
    }

    /// Timestamp advanced by whole seconds (saturating).
    pub fn plus_seconds(self, secs: i64) -> Timestamp {
        Timestamp(self.0.saturating_add(secs))
    }

    /// Timestamp advanced by whole days (saturating).
    pub fn plus_days(self, days: i64) -> Timestamp {
        self.plus_seconds(days.saturating_mul(SECS_PER_DAY))
    }

    /// Absolute distance in seconds between two instants.
    pub fn abs_diff(self, other: Timestamp) -> u64 {
        self.0.abs_diff(other.0)
    }
}

/// `YYYY-MM-DDTHH:MM:SSZ`, as [`Timestamp::to_iso8601`].
impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d, h, mi, s) = self.to_civil();
        write!(f, "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}Z")
    }
}

/// A closed time interval `[start, end]`, the temporal extent of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeInterval {
    /// Inclusive start instant.
    pub start: Timestamp,
    /// Inclusive end instant.
    pub end: Timestamp,
}

impl TimeInterval {
    /// Creates an interval, normalizing a reversed pair.
    pub fn new(a: Timestamp, b: Timestamp) -> TimeInterval {
        if a <= b {
            TimeInterval { start: a, end: b }
        } else {
            TimeInterval { start: b, end: a }
        }
    }

    /// A degenerate single-instant interval.
    pub fn instant(t: Timestamp) -> TimeInterval {
        TimeInterval { start: t, end: t }
    }

    /// Duration in seconds (0 for an instant).
    pub fn duration_secs(&self) -> u64 {
        self.end.abs_diff(self.start)
    }

    /// True when `t` lies inside the closed interval.
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }

    /// True when the two closed intervals share at least one instant.
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Seconds of overlap between the two intervals (0 when disjoint).
    pub fn overlap_secs(&self, other: &TimeInterval) -> u64 {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        if lo <= hi {
            hi.abs_diff(lo)
        } else {
            0
        }
    }

    /// Gap in seconds between disjoint intervals; 0 when they overlap.
    pub fn gap_secs(&self, other: &TimeInterval) -> u64 {
        if self.overlaps(other) {
            0
        } else if self.end < other.start {
            other.start.abs_diff(self.end)
        } else {
            self.start.abs_diff(other.end)
        }
    }

    /// Smallest interval containing both.
    pub fn union(&self, other: &TimeInterval) -> TimeInterval {
        TimeInterval { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// Extends the interval to cover `t`.
    pub fn extend(&mut self, t: Timestamp) {
        if t < self.start {
            self.start = t;
        }
        if t > self.end {
            self.end = t;
        }
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} .. {}", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(Timestamp::EPOCH.to_iso8601(), "1970-01-01T00:00:00Z");
    }

    #[test]
    fn civil_round_trip_known_dates() {
        for (y, mo, d) in [(1970, 1, 1), (2000, 2, 29), (2010, 6, 15), (1999, 12, 31), (2013, 4, 8)]
        {
            let t = Timestamp::from_ymd(y, mo, d).unwrap();
            let (ry, rmo, rd, h, mi, s) = t.to_civil();
            assert_eq!((ry, rmo, rd, h, mi, s), (y, mo, d, 0, 0, 0));
        }
    }

    #[test]
    fn known_epoch_offsets() {
        // 2010-06-15T00:00:00Z = 1276560000 (independently computed)
        assert_eq!(Timestamp::from_ymd(2010, 6, 15).unwrap().0, 1_276_560_000);
        assert_eq!(Timestamp::from_ymd(2000, 1, 1).unwrap().0, 946_684_800);
    }

    #[test]
    fn parse_variants() {
        let expect = Timestamp::from_ymd_hms(2010, 6, 15, 12, 30, 45).unwrap();
        for s in [
            "2010-06-15T12:30:45Z",
            "2010-06-15T12:30:45",
            "2010-06-15 12:30:45",
            "2010-06-15t12:30:45",
            "2010-06-15T12:30:45.123Z",
            "20100615123045",
        ] {
            assert_eq!(Timestamp::parse(s).unwrap(), expect, "input {s:?}");
        }
        assert_eq!(
            Timestamp::parse("2010-06-15").unwrap(),
            Timestamp::from_ymd(2010, 6, 15).unwrap()
        );
        assert_eq!(
            Timestamp::parse("2010-06-15T08:05").unwrap(),
            Timestamp::from_ymd_hms(2010, 6, 15, 8, 5, 0).unwrap()
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "notadate", "2010-13-01", "2010-02-30", "2010-06-15X10:00", "2010/06/15"] {
            assert!(Timestamp::parse(s).is_err(), "input {s:?}");
        }
        // the writers' fixed form is read by position; it refuses what the
        // general path refuses
        for s in [
            "2010-13-01T00:00:00Z",
            "2010-02-30T00:00:00",
            "2010-06-15T24:00:00",
            "2010-06-15T12:3x:45",
            "2010-06-15X12:30:45",
            "2010-06-15T12:30:45:00",
        ] {
            assert!(Timestamp::parse(s).is_err(), "input {s:?}");
        }
    }

    #[test]
    fn parse_rejects_multibyte_without_panicking() {
        // byte 10 falls inside a multibyte char: must error, not panic
        for s in ["0  00  aaΣ", "ΣΣΣΣΣ", "2010-06-1Σ:00", "日本語のテキスト12345"] {
            assert!(Timestamp::parse(s).is_err(), "input {s:?}");
        }
    }

    #[test]
    fn display_round_trip() {
        let t = Timestamp::from_ymd_hms(1985, 11, 5, 1, 2, 3).unwrap();
        assert_eq!(Timestamp::parse(&t.to_iso8601()).unwrap(), t);
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(2012));
        assert!(!is_leap(2013));
        assert!(Timestamp::from_ymd(2000, 2, 29).is_ok());
        assert!(Timestamp::from_ymd(1900, 2, 29).is_err());
    }

    #[test]
    fn pre_epoch_dates() {
        let t = Timestamp::from_ymd(1969, 12, 31).unwrap();
        assert_eq!(t.0, -SECS_PER_DAY);
        assert_eq!(t.to_date_string(), "1969-12-31");
    }

    #[test]
    fn interval_normalizes() {
        let a = Timestamp(100);
        let b = Timestamp(50);
        let iv = TimeInterval::new(a, b);
        assert_eq!(iv.start, b);
        assert_eq!(iv.end, a);
        assert_eq!(iv.duration_secs(), 50);
    }

    #[test]
    fn interval_overlap_and_gap() {
        let a = TimeInterval::new(Timestamp(0), Timestamp(100));
        let b = TimeInterval::new(Timestamp(50), Timestamp(150));
        let c = TimeInterval::new(Timestamp(200), Timestamp(300));
        assert!(a.overlaps(&b));
        assert_eq!(a.overlap_secs(&b), 50);
        assert_eq!(a.gap_secs(&b), 0);
        assert!(!a.overlaps(&c));
        assert_eq!(a.gap_secs(&c), 100);
        assert_eq!(c.gap_secs(&a), 100);
        assert_eq!(a.overlap_secs(&c), 0);
    }

    #[test]
    fn interval_union_extend_midpoint() {
        let mut a = TimeInterval::instant(Timestamp(10));
        a.extend(Timestamp(30));
        a.extend(Timestamp(0));
        assert_eq!(a, TimeInterval::new(Timestamp(0), Timestamp(30)));
        let b = TimeInterval::new(Timestamp(100), Timestamp(200));
        assert_eq!(a.union(&b), TimeInterval::new(Timestamp(0), Timestamp(200)));
    }

    #[test]
    fn contains_is_closed() {
        let iv = TimeInterval::new(Timestamp(5), Timestamp(10));
        assert!(iv.contains(Timestamp(5)));
        assert!(iv.contains(Timestamp(10)));
        assert!(!iv.contains(Timestamp(11)));
    }

    #[test]
    fn plus_helpers() {
        let t = Timestamp::from_ymd(2010, 6, 15).unwrap();
        assert_eq!(t.plus_days(1), Timestamp::from_ymd(2010, 6, 16).unwrap());
        assert_eq!(t.plus_seconds(3600).to_civil().3, 1);
    }
}
