//! Metric bookkeeping, order statistics, process CPU time and the result line.

use std::collections::BTreeMap;

/// One reported value. Integers print without a fraction so exact counts
/// read as counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Real(f64),
    Count(u64),
}

/// Named metrics with units, in name order.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (Value, &'static str)>);

impl Metrics {
    pub fn real(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (Value::Real(value), unit));
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64, unit: &'static str) {
        self.0.insert(name.into(), (Value::Count(value), unit));
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (v, unit))| {
                let value = match v {
                    Value::Real(x) if x.is_finite() => format!("{x:?}"),
                    Value::Real(_) => "null".to_string(),
                    Value::Count(n) => n.to_string(),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Successes and failures of the run's requests and output checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Nearest-rank percentile `q` ∈ [0, 1] of `xs` (sorted in place).
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().fold(0.0, |a, x| a + x.ln()) / xs.len() as f64).exp()
}

/// User + system CPU seconds of this process, every thread (live or
/// exited) included, from `/proc/self/stat`.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / clock_ticks_per_s()
}

/// `AT_CLKTCK` from the auxiliary vector (no libc needed); 100 when absent.
fn clock_ticks_per_s() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let aux = std::fs::read("/proc/self/auxv").unwrap_or_default();
    aux.chunks_exact(16)
        .map(|c| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&c[..8]), word(&c[8..]))
        })
        .find(|&(k, _)| k == AT_CLKTCK)
        .map_or(100.0, |(_, v)| v as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn counts_print_as_integers() {
        let mut m = Metrics::default();
        m.count("core.steps", 12, "count");
        m.real("x_ms", 1.5, "ms");
        assert_eq!(
            m.json(),
            "{\"core.steps\": {\"value\": 12, \"unit\": \"count\"}, \"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    fn cpu_time_is_readable_and_grows() {
        let a = cpu_s();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_s() >= a);
    }
}
