//! Small helpers shared by the workloads: order statistics, process memory,
//! directory sizes, and reads of the program's own telemetry registry.

use metamess_telemetry::MetricsSnapshot;
use std::path::Path;

/// The `q`-quantile by nearest rank. `values` must be sorted and non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Splits samples taken at `at_s` seconds into windows of `window_s`, drops
/// the last, partial one, and returns each window's samples.
pub fn windows(at_s: &[f64], values: &[f64], window_s: f64) -> Vec<Vec<f64>> {
    let end = at_s.iter().cloned().fold(0.0, f64::max);
    let whole = ((end / window_s) as usize).max(1);
    let mut out = vec![Vec::new(); whole];
    for (t, v) in at_s.iter().zip(values) {
        if let Some(w) = out.get_mut((t / window_s) as usize) {
            w.push(*v);
        }
    }
    out
}

/// Completions per second of a closed segment: the median over half-second
/// windows, so that a stall in one window does not set the number. The first
/// second is left out: new connections take that long to settle into their
/// pattern, and until then `search-remote` runs up to 30 % slower.
pub fn windowed_rate(answered_s: &[f64]) -> f64 {
    const WINDOW_S: f64 = 0.5;
    const SETTLING_WINDOWS: usize = 2;
    let per: Vec<f64> = windows(answered_s, answered_s, WINDOW_S)
        .iter()
        .map(|w| w.len() as f64 / WINDOW_S)
        .collect();
    median(per[SETTLING_WINDOWS.min(per.len() - 1)..].to_vec())
}

/// The `q`-quantile of an open segment's latencies: the median over
/// one-second windows of each window's quantile. A spike that fills less
/// than half the windows does not move it; `client.p99_ms` and
/// `client.max_ms` of the traced run are there to show spikes.
pub fn windowed_quantile(answered_s: &[f64], latencies_ms: &[f64], q: f64) -> f64 {
    let per: Vec<f64> = windows(answered_s, latencies_ms, 1.0)
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(&sorted(w), q))
        .collect();
    median(per)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What the program's registry counted between two snapshots.
pub struct RegistryDelta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl RegistryDelta {
    pub fn since(before: MetricsSnapshot) -> RegistryDelta {
        RegistryDelta { before, after: metamess_telemetry::global().snapshot() }
    }

    /// What counter `name` gained. The crates register their counters when a
    /// store, engine or server is built, so a name the registry does not know
    /// is a counter that was renamed or removed, not an event that did not
    /// happen; only the ones in `ON_FIRST_EVENT` appear with their first count.
    pub fn counter(&self, name: &str) -> f64 {
        const ON_FIRST_EVENT: [&str; 1] = ["metamess_server_shed_total"];
        assert!(
            self.after.counters.contains_key(name) || ON_FIRST_EVENT.contains(&name),
            "the program has no counter {name}"
        );
        let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// `(observations, sum)` a histogram gained.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        assert!(self.after.histograms.contains_key(name), "the program has no histogram {name}");
        let get = |s: &MetricsSnapshot| s.histograms.get(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c1, s1) = get(&self.after);
        let (c0, s0) = get(&self.before);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }

    /// Mean of a microsecond histogram, in milliseconds; 0 when it is empty.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        if count == 0.0 {
            0.0
        } else {
            sum / count / 1000.0
        }
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// FNV-1a over bytes, folded into a running digest.
pub fn fnv(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
