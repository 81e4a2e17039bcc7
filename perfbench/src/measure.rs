//! Timing primitives: latency samples, the open-loop pacer, and the
//! run-health readings taken from the operating system.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        self.sorted = false;
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile in microseconds (`q` in `(0, 1]`); 0 when
    /// empty.
    pub fn percentile_us(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.sort();
        let rank = ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        self.ns[rank - 1] as f64 / 1e3
    }

    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / self.ns.len() as f64 / 1e3
    }

    #[must_use]
    pub fn max_us(&self) -> f64 {
        self.ns.iter().copied().max().unwrap_or(0) as f64 / 1e3
    }
}

/// Windows per second of an open loop's schedule.
pub const WINDOWS_PER_S: u64 = 2;

/// Latencies of each operation class in one window, and the CPU steal
/// over the window.
#[derive(Debug, Default)]
pub struct Classes {
    pub lookup: Samples,
    pub insert: Samples,
    pub delete: Samples,
    steal: (f64, f64),
}

/// The operation classes, in the order [`Classes::get`] takes.
const CLASSES: [&str; 3] = ["lookup", "insert", "delete"];

impl Classes {
    fn get(&mut self, class: usize) -> &mut Samples {
        match class {
            0 => &mut self.lookup,
            1 => &mut self.insert,
            _ => &mut self.delete,
        }
    }
}

/// Latencies of the three operation classes the end-to-end metrics
/// cover, kept per window of the run. A run's percentile is the median
/// of its windows' percentiles over the quietest quarter of its windows:
/// those with the least CPU steal. A stall the host imposes (steal, and
/// the backlog it leaves behind) only ever adds latency, and on a busy
/// shared host it reaches most windows of a run; a change that slows
/// every operation still moves every window, the quietest too.
#[derive(Debug, Default)]
pub struct Latencies {
    windows: Vec<Classes>,
}

impl Latencies {
    /// The samples of window `w`.
    pub fn at(&mut self, w: usize) -> &mut Classes {
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, Classes::default);
        }
        &mut self.windows[w]
    }

    /// Open window `w`, closing the one before it, at the current steal.
    pub fn begin(&mut self, w: usize) {
        let now = steal_ms().unwrap_or(0.0);
        if w > 0 {
            self.at(w - 1).steal.1 = now;
        }
        self.at(w).steal = (now, now);
    }

    /// Close the last window.
    pub fn end(&mut self) {
        let now = steal_ms().unwrap_or(0.0);
        if let Some(last) = self.windows.last_mut() {
            last.steal.1 = now;
        }
    }

    /// All windows' samples of one class, pooled.
    fn pooled(&mut self, class: usize) -> Samples {
        let mut out = Samples::default();
        for w in &mut self.windows {
            out.ns.extend_from_slice(&w.get(class).ns);
        }
        out
    }

    /// Median over the quietest quarter of windows (least steal first,
    /// ties in window order) of each window's `q` percentile of `class`.
    fn window_median(&mut self, class: usize, q: f64) -> f64 {
        let steal = |w: &Classes| w.steal.1 - w.steal.0;
        let mut order: Vec<usize> = (0..self.windows.len()).collect();
        order.sort_by(|&a, &b| steal(&self.windows[a]).total_cmp(&steal(&self.windows[b])));
        let per: Vec<f64> = order[..self.windows.len().div_ceil(4)]
            .iter()
            .filter_map(|&i| {
                let s = self.windows[i].get(class);
                (!s.is_empty()).then(|| s.percentile_us(q))
            })
            .collect();
        median(&per)
    }

    /// Print each class's pooled sample count, p50, p90 and p99, and the
    /// window medians the metrics report.
    pub fn print(&mut self, phase: &str) {
        for (i, class) in CLASSES.into_iter().enumerate() {
            let mut s = self.pooled(i);
            println!(
                "{phase} {class}: n={} p50={:.2}us p90={:.2}us p99={:.2}us \
                 (window median of {} windows: p50={:.2}us p90={:.2}us)",
                s.len(),
                s.percentile_us(0.5),
                s.percentile_us(0.9),
                s.percentile_us(0.99),
                self.windows.len(),
                self.window_median(i, 0.5),
                self.window_median(i, 0.9)
            );
        }
    }

    /// Record each class's p50 and p90 as end-to-end metrics.
    pub fn report(&mut self, report: &mut crate::report::Report) {
        for (i, class) in CLASSES.into_iter().enumerate() {
            report.metric(&format!("{class}_p50_us"), self.window_median(i, 0.5));
            report.metric(&format!("{class}_p90_us"), self.window_median(i, 0.9));
        }
    }

    /// Median lookup latency over windows, in microseconds.
    pub fn lookup_p50_us(&mut self) -> f64 {
        self.window_median(0, 0.5)
    }

    /// Mean latency over all three classes, in microseconds.
    pub fn mean_us(&mut self) -> f64 {
        let all: Vec<Samples> = (0..3).map(|c| self.pooled(c)).collect();
        let n: usize = all.iter().map(Samples::len).sum();
        all.iter()
            .map(|s| s.mean_us() * s.len() as f64)
            .sum::<f64>()
            / n.max(1) as f64
    }
}

/// The schedule of an open loop: operation `i` is due `i / rate` after
/// the start, whether or not earlier operations have finished.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    interval_ns: f64,
    /// How late each operation was sent, against its due time.
    pub late: Samples,
}

impl Pacer {
    #[must_use]
    pub fn new(rate_per_s: u64) -> Self {
        Pacer {
            start: Instant::now(),
            interval_ns: 1e9 / rate_per_s as f64,
            late: Samples::default(),
        }
    }

    /// Seconds since the schedule started.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Wait until operation `i` is due and return its due time. Sleeps
    /// while far from it and spins the last stretch, so the send time is
    /// not blurred by timer slack.
    pub fn wait_due(&mut self, i: u64) -> Instant {
        let due = self.start + Duration::from_nanos((i as f64 * self.interval_ns) as u64);
        loop {
            let now = Instant::now();
            if now >= due {
                self.late.push(now - due);
                return due;
            }
            let left = due - now;
            if left > Duration::from_micros(150) {
                std::thread::sleep(left - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Threads that keep every CPU of the machine busy while they live,
/// yielding to any other runnable thread. On a virtual machine an idle
/// CPU halts, and waking it again for the next thread handoff costs
/// whatever the host takes to reschedule it — on a shared host, from
/// microseconds to many milliseconds, charged as steal. The engine and
/// the cluster hand every operation across threads several times, so
/// without these threads their latencies measure the host's scheduler.
pub struct KeepWarm {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepWarm {
    #[must_use]
    pub fn start(threads: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..threads)
            .map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("keep-warm-{i}"))
                    .spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            for _ in 0..64 {
                                std::hint::spin_loop();
                            }
                            std::thread::yield_now();
                        }
                    })
                    .expect("spawn keep-warm thread")
            })
            .collect();
        KeepWarm { stop, threads }
    }
}

impl Drop for KeepWarm {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Cumulative CPU steal of the machine in milliseconds, from the first
/// line of `/proc/stat` (ticks of `USER_HZ`, which is 100 on Linux).
/// `None` where the file is not readable.
#[must_use]
pub fn steal_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let steal: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal as f64 * 10.0)
}

/// CPU steal in milliseconds since a [`steal_ms`] reading (0 where
/// `/proc/stat` is not readable).
#[must_use]
pub fn steal_since(start: Option<f64>) -> f64 {
    match (start, steal_ms()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    }
}

/// TCP sockets of the host (`/proc/net/tcp` and `tcp6`, any state,
/// TIME_WAIT included) with an endpoint on one of `ports`. Read after the
/// nodes have shut down, this counts the connections the run opened to
/// them. `None` where the tables are not readable.
#[must_use]
pub fn sockets_on_ports(ports: &[u16]) -> Option<u64> {
    let mut count = 0;
    let mut readable = false;
    for table in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let Ok(text) = std::fs::read_to_string(table) else {
            continue;
        };
        readable = true;
        for line in text.lines().skip(1) {
            let mut cols = line.split_whitespace().skip(1);
            let port_of = |col: Option<&str>| {
                col.and_then(|c| c.rsplit(':').next())
                    .and_then(|p| u16::from_str_radix(p, 16).ok())
            };
            let local = port_of(cols.next());
            let remote = port_of(cols.next());
            if [local, remote].iter().flatten().any(|p| ports.contains(p)) {
                count += 1;
            }
        }
    }
    readable.then_some(count)
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for us in 1..=100u64 {
            s.push(Duration::from_micros(us));
        }
        assert_eq!(s.percentile_us(0.5), 50.0);
        assert_eq!(s.percentile_us(0.9), 90.0);
        assert_eq!(s.percentile_us(1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
