//! Helpers shared by every workload: the seeded generator, the Zipf
//! sampler, percentiles, the VmHWM reader and the run report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input of a run.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup; rank 0 is the most
/// frequent. Ranks are node ids, so the hubs are the same nodes on every
/// seed and only the sampled edges differ.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// The `p`-th percentile (0–100, nearest rank) of `samples`, or `None`
/// when fewer than ten samples lie beyond it — such a percentile would
/// describe a handful of outliers, not a tail.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    Some(v[rank - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Parse the `VmHWM:` line of a `/proc/<pid>/status` text, in MiB.
pub fn parse_vmhwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line.split_whitespace().skip(1);
    let value: f64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vmhwm_mib(&status).expect("VmHWM line in /proc/self/status")
}

/// Run `f` and return its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// The sum of the payloads of a maintained output: the count of a
/// scalar aggregate view.
pub fn count_of(m: &mut impl ivm_core::Maintainer<i64>) -> i64 {
    let mut total = 0i64;
    m.for_each_output(&mut |_, r| total += *r);
    total
}

/// An integer column of a generated tuple.
pub fn int(v: &ivm_data::Value) -> i64 {
    match v {
        ivm_data::Value::Int(i) => *i,
        other => panic!("the benchmark generates integers only, got {other:?}"),
    }
}

/// What one run hands back: per-operation-type counts, correctness, and
/// the metrics of the mode it ran in.
#[derive(Default)]
pub struct Report {
    pub ops: BTreeMap<&'static str, (u64, u64)>,
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Default::default()
        }
    }

    /// Count one attempted operation of `kind`; `ok == false` counts it
    /// failed.
    pub fn op(&mut self, kind: &'static str, ok: bool) {
        let e = self.ops.entry(kind).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
        }
    }

    /// Run a program call, counting it under `kind`; an `Err` counts as a
    /// failed operation and is logged to stderr.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        kind: &'static str,
        r: Result<T, E>,
    ) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(kind, true);
                Some(v)
            }
            Err(e) => {
                eprintln!("{kind} failed: {e}");
                self.op(kind, false);
                None
            }
        }
    }

    /// Record one correctness check; a mismatch fails the check and the
    /// run.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.op("check", ok);
        if !ok {
            eprintln!("check failed: {what}");
            self.correct = false;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set-up times of one run: `setup_s` (their median) untraced,
    /// `session.build_s` traced.
    pub fn set_setup(&mut self, samples: &[f64], traced: bool) {
        let name = if traced { "session.build_s" } else { "setup_s" };
        self.set(name, median(samples));
        self.notes.push(format!("setup samples (s): {samples:?}"));
    }

    /// The tracing overhead: the observed twin's ingest throughput over
    /// the spans named `twin_span`, against the untraced instance's
    /// throughput on the same batches in the same run, plus the share of
    /// each epoch the program's own child spans cover.
    pub fn set_obs(
        &mut self,
        tr: &crate::trace::Tracer,
        st: &StreamStats,
        twin_span: &str,
        waterfalls: &[ivm_obs::EpochWaterfall],
    ) {
        let ups = |d: Duration| st.updates as f64 / d.as_secs_f64().max(1e-9);
        self.set("obs.untraced_ingest_ups", ups(st.ingest));
        self.set("obs.traced_ingest_ups", ups(tr.total(twin_span)));
        if !waterfalls.is_empty() {
            let cov: f64 = waterfalls.iter().map(|w| w.coverage()).sum();
            self.set("obs.waterfall_coverage", cov / waterfalls.len() as f64);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|(a, _)| a).sum()
    }

    pub fn failed(&self) -> u64 {
        self.ops.values().map(|(_, f)| f).sum()
    }
}

/// Latency samples of the timed stream, per-round throughputs, and the
/// totals behind them.
#[derive(Default)]
pub struct StreamStats {
    pub visible_us: Vec<f64>,
    pub updates: u64,
    /// Time inside ingest calls.
    pub ingest: Duration,
    /// Time inside ingest calls and reads: the timed stream, without the
    /// benchmark's own input generation.
    pub wall: Duration,
    round_mark: (u64, Duration),
    /// Updates per second of each round (ingest calls and reads).
    pub round_ups: Vec<f64>,
    /// `/proc/stat` CPU counters when the stream started.
    cpu_start: Option<CpuTimes>,
}

/// Machine-wide CPU time counters from `/proc/stat` (jiffies).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuTimes {
    pub busy: u64,
    pub steal: u64,
    pub total: u64,
}

/// Parse the aggregate `cpu` line of a `/proc/stat` text.
pub fn parse_cpu_times(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    if f.len() < 8 {
        return None;
    }
    // user nice system idle iowait irq softirq steal ...
    let total: u64 = f[..8].iter().sum();
    Some(CpuTimes {
        busy: total - f[3] - f[4] - f[7],
        steal: f[7],
        total,
    })
}

fn cpu_times() -> Option<CpuTimes> {
    parse_cpu_times(&std::fs::read_to_string("/proc/stat").ok()?)
}

impl StreamStats {
    pub fn begin_round(&mut self) {
        if self.cpu_start.is_none() {
            self.cpu_start = cpu_times();
        }
        self.round_mark = (self.updates, self.wall);
    }

    pub fn end_round(&mut self) {
        let (u, t) = self.round_mark;
        let secs = (self.wall - t).as_secs_f64();
        if secs > 0.0 {
            self.round_ups.push((self.updates - u) as f64 / secs);
        }
    }

    /// One ingest call of `updates` updates that took `d`, whose delta
    /// became visible when the call returned.
    pub fn record(&mut self, d: Duration, updates: usize) {
        self.record_visible(d, d, updates);
    }

    /// One ingest call that took `d` and whose delta became visible
    /// `visible` after it started.
    pub fn record_visible(&mut self, d: Duration, visible: Duration, updates: usize) {
        self.visible_us.push(visible.as_secs_f64() * 1e6);
        self.updates += updates as u64;
        self.ingest += d;
        self.wall += d;
    }

    /// One read inside the timed stream.
    pub fn record_read(&mut self, d: Duration) {
        self.wall += d;
    }

    /// Fill the end-to-end stream metrics: `ingest_ups` is the median of
    /// the per-round throughputs and `visible_p50_us` the median call.
    /// The tail goes to the run header only: on this benchmark's 2-vCPU
    /// host it follows host CPU steal and disk stalls (see README.md).
    pub fn report(&self, rep: &mut Report) {
        if let (Some(a), Some(b)) = (self.cpu_start, cpu_times()) {
            let total = (b.total - a.total).max(1) as f64;
            rep.notes.push(format!(
                "machine during the stream: {:.1}% of CPU time busy, {:.1}% stolen by the host",
                100.0 * (b.busy - a.busy) as f64 / total,
                100.0 * (b.steal - a.steal) as f64 / total
            ));
        }
        let q = |p| percentile(&self.visible_us, p).map_or("n/a".into(), |v| format!("{v:.0}"));
        rep.notes.push(format!(
            "{} ingest calls, {} rounds; visible us: p10 {}, p50 {}, p90 {}, p99 {}; \
             round updates/s: p10 {}, p90 {}",
            self.visible_us.len(),
            self.round_ups.len(),
            q(10.0),
            q(50.0),
            q(90.0),
            q(99.0),
            percentile(&self.round_ups, 10.0).map_or("n/a".into(), |v| format!("{v:.0}")),
            percentile(&self.round_ups, 90.0).map_or("n/a".into(), |v| format!("{v:.0}")),
        ));
        rep.set("ingest_ups", median(&self.round_ups));
        rep.set("visible_p50_us", median(&self.visible_us));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=1009).map(f64::from).collect();
        // 1009 samples: rank ceil(0.99 * 1009) = 999, ten beyond it.
        assert_eq!(percentile(&v, 99.0), Some(999.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990, ten beyond.
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        let v: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(11.0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn vmhwm_parses_status_text() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_mib(status), Some(2.0));
        assert_eq!(parse_vmhwm_mib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vmhwm_mib("VmHWM:\t 100 MB\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn zipf_puts_rank_zero_first() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(7);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            let r = z.sample(&mut rng) as usize;
            assert!(r < 1000);
            if r < 3 {
                counts[r] += 1;
            }
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..5)
            .scan(Rng::new(3), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..5)
            .scan(Rng::new(3), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..5)
            .scan(Rng::new(4), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
