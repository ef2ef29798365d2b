//! Measuring on a shared virtual machine.
//!
//! A hypervisor can take the vCPUs away from a VM in bursts of seconds
//! (the `steal` column of `/proc/stat`; 10–40 % for 10–15 s at a time on a
//! shared 2-vCPU VM). A run that overlaps a burst reads its latency tails
//! 10× high, which no bound can absorb. So every timed phase is cut into
//! one-second windows, each window records the steal share it suffered,
//! and only windows with at most [`STEAL_MAX`] steal count. A phase runs
//! until it has `target` seconds of such windows, or until the cap
//! (`CAP × target`, at least `target` + 3 s); then it keeps the
//! least-stolen windows that add up to `target`. The kept and dropped
//! steal shares are printed to standard error.

use crate::report::{cpu_s, median, percentile};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Longest share of a window the host may steal for it to count, %.
pub const STEAL_MAX: f64 = 5.0;
/// A phase gives up waiting for quiet windows after `CAP × target`, or
/// after `target + SLACK_S` when that is later.
pub const CAP: f64 = 1.25;
const SLACK_S: f64 = 3.0;
const WINDOW: Duration = Duration::from_secs(1);

/// (steal ticks, all ticks) of the whole VM so far.
fn ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Steal share of the interval since `from`, %.
pub struct Meter((u64, u64));

impl Meter {
    pub fn start() -> Meter {
        Meter(ticks())
    }

    pub fn pct(&self) -> f64 {
        let (s, t) = ticks();
        let (ds, dt) = (s - self.0 .0, t - self.0 .1);
        if dt == 0 {
            0.0
        } else {
            100.0 * ds as f64 / dt as f64
        }
    }
}

/// Which measured intervals count, chosen by the rule in the module docs.
/// `items` are (duration s, steal %); returns a keep flag per item.
pub fn select(items: &[(f64, f64)], target: f64) -> Vec<bool> {
    let mut keep: Vec<bool> = items.iter().map(|&(_, s)| s <= STEAL_MAX).collect();
    let clean: f64 = items
        .iter()
        .zip(&keep)
        .filter(|(_, k)| **k)
        .map(|(i, _)| i.0)
        .sum();
    if clean < target {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| items[a].1.total_cmp(&items[b].1));
        keep = vec![false; items.len()];
        let mut got = 0.0;
        for i in order {
            if got >= target {
                break;
            }
            keep[i] = true;
            got += items[i].0;
        }
    }
    report(items, &keep);
    keep
}

fn report(items: &[(f64, f64)], keep: &[bool]) {
    let share = |want: bool| {
        let xs: Vec<&(f64, f64)> = items
            .iter()
            .zip(keep)
            .filter(|(_, k)| **k == want)
            .map(|(i, _)| i)
            .collect();
        let t: f64 = xs.iter().map(|i| i.0).sum();
        let s: f64 = xs.iter().map(|i| i.0 * i.1).sum();
        (xs.len(), if t > 0.0 { s / t } else { 0.0 })
    };
    let ((nk, sk), (nd, sd)) = (share(true), share(false));
    eprintln!("perfbench: kept {nk} intervals at {sk:.1}% steal, dropped {nd} at {sd:.1}% steal");
}

/// Have the clean windows reached `target` seconds (or the cap passed)?
pub fn enough(items: &[(f64, f64)], target: f64, elapsed: f64) -> bool {
    let clean: f64 = items.iter().filter(|i| i.1 <= STEAL_MAX).map(|i| i.0).sum();
    clean >= target || elapsed >= (CAP * target).max(target + SLACK_S)
}

/// One kept window of a watched phase: seconds since the phase started,
/// and the process CPU seconds spent in it.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub from: f64,
    pub to: f64,
    pub cpu_s: f64,
}

/// The kept windows of a watched phase.
pub struct Windows(pub Vec<Window>);

impl Windows {
    /// The kept window an event completing at `t` falls in.
    pub fn index(&self, t: f64) -> Option<usize> {
        self.0.iter().position(|w| w.from <= t && t < w.to)
    }

    /// Split `(t, value)` events by kept window; events outside are dropped.
    pub fn split(&self, events: impl IntoIterator<Item = (f64, f64)>) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); self.0.len()];
        for (t, v) in events {
            if let Some(i) = self.index(t) {
                out[i].push(v);
            }
        }
        out
    }

    /// Median over windows of `count in window ÷ window seconds`.
    pub fn rate(&self, per_window: &[Vec<f64>]) -> f64 {
        let mut r: Vec<f64> = self
            .0
            .iter()
            .zip(per_window)
            .map(|(w, xs)| xs.len() as f64 / (w.to - w.from))
            .collect();
        median(&mut r)
    }

    /// Median over windows of `CPU seconds ÷ events in window`.
    pub fn cpu_per_event(&self, per_window: &[Vec<f64>]) -> f64 {
        let mut r: Vec<f64> = self
            .0
            .iter()
            .zip(per_window)
            .filter(|(_, xs)| !xs.is_empty())
            .map(|(w, xs)| w.cpu_s / xs.len() as f64)
            .collect();
        median(&mut r)
    }
}

/// The median over windows of each window's `q` percentile, counting only
/// windows with enough samples for that percentile to have ten beyond it;
/// when none has, the percentile of all samples pooled.
pub fn percentile_of_windows(per_window: &[Vec<f64>], q: f64) -> f64 {
    let need = (10.0 / (1.0 - q)).ceil() as usize;
    let mut per: Vec<f64> = per_window
        .iter()
        .filter(|xs| xs.len() >= need)
        .map(|xs| percentile(&mut xs.clone(), q))
        .collect();
    if per.is_empty() {
        let mut all: Vec<f64> = per_window.iter().flatten().copied().collect();
        return percentile(&mut all, q);
    }
    median(&mut per)
}

/// Watch a phase that started at `t0` from the calling thread, one window
/// at a time, and raise `stop` once enough quiet windows are measured.
pub fn watch(t0: Instant, target: Duration, stop: &AtomicBool) -> Windows {
    let target = target.as_secs_f64();
    let mut bounds = Vec::new();
    let mut items = Vec::new();
    let (mut from, mut cpu) = (0.0, cpu_s());
    loop {
        let m = Meter::start();
        std::thread::sleep(WINDOW);
        let to = t0.elapsed().as_secs_f64();
        let c = cpu_s();
        items.push((to - from, m.pct()));
        bounds.push(((from, to), c - cpu));
        (from, cpu) = (to, c);
        if enough(&items, target, to) {
            break;
        }
    }
    stop.store(true, Ordering::SeqCst);
    let keep = select(&items, target);
    Windows(
        bounds
            .into_iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(((from, to), cpu_s), _)| Window { from, to, cpu_s })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_quiet_windows_or_else_the_quietest() {
        let items = [(1.0, 0.0), (1.0, 30.0), (1.0, 2.0)];
        assert_eq!(select(&items, 2.0), vec![true, false, true]);
        let stolen = [(1.0, 20.0), (1.0, 30.0), (1.0, 10.0)];
        assert_eq!(select(&stolen, 2.0), vec![true, false, true]);
        assert!(enough(&items, 2.0, 3.0));
        assert!(!enough(&stolen, 2.0, 4.0));
        assert!(enough(&stolen, 2.0, 5.0));
        assert!(enough(&stolen, 20.0, 25.0));
    }
}
