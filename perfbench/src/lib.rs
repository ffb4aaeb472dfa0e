//! The repository benchmark: three single-process simulation workloads
//! (see `workload`), host-cost end-to-end metrics from untraced runs, and a
//! per-layer split from a separate traced run (see `trace`). `LAYERS.md`
//! beside this package maps each per-layer metric to the end-to-end metric
//! it should move.

pub mod outcome;
pub mod trace;
pub mod workload;

use std::rc::Rc;

use outcome::Outcome;
use trace::{Probe, Recorder};
use workload::{RunTimes, Setup, Workload};

/// One untraced run, as the end-to-end metrics see it.
pub struct PlainRun {
    /// Median host seconds of the set-ups made before the run.
    pub setup_s: f64,
    /// The same set-ups' median phases.
    pub setup: Setup,
    /// Host time of the run.
    pub times: RunTimes,
    /// What it simulated.
    pub outcome: Outcome,
}

/// Set up `setup_reps` times (keeping the last harness), then run once.
pub fn plain_run(w: Workload, bytes: u64, seed: u64, setup_reps: usize) -> PlainRun {
    let (mut totals, mut builds, mut gens) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..setup_reps.max(1) {
        drop(last.take()); // free the previous harness before timing the next
        let (h, flows, s) = workload::set_up(w, bytes, seed);
        totals.push(s.build_s + s.gen_s);
        builds.push(s.build_s);
        gens.push(s.gen_s);
        last = Some((h, flows));
    }
    let (mut h, flows) = last.expect("at least one set-up");
    let (out, times) = workload::run(&mut h, &flows);
    PlainRun {
        setup_s: median(&mut totals),
        setup: Setup {
            build_s: median(&mut builds),
            gen_s: median(&mut gens),
        },
        times,
        outcome: Outcome::of(&h, &out),
    }
}

/// One traced run: every endpoint and queue wrapped, probe calibrated in
/// place.
pub struct TracedRun {
    /// The calibrated probe cost.
    pub probe: Probe,
    /// Host time of the traced run.
    pub times: RunTimes,
    /// Per-handler tallies and sampled spans.
    pub rec: Rc<Recorder>,
    /// What it simulated (must equal the untraced outcome).
    pub outcome: Outcome,
}

/// Build, instrument and run.
pub fn traced_run(w: Workload, bytes: u64, seed: u64) -> TracedRun {
    let (mut h, flows, _) = workload::set_up(w, bytes, seed);
    let rec = Rc::new(Recorder::default());
    trace::instrument(&mut h, &rec);
    let (out, times) = workload::run(&mut h, &flows);
    TracedRun {
        probe: rec.probe(),
        times,
        rec,
        outcome: Outcome::of(&h, &out),
    }
}

/// The reference: the same run with the conformance oracle riding every
/// event (`SchemeBuilder::build_checked`) and the delivery ledger audited
/// at the end. Panics at the first violation.
pub fn oracle_run(w: Workload, bytes: u64, seed: u64) -> Outcome {
    let mut h = w.builder(seed).build_checked();
    let flows = w.generate(bytes, seed, h.hosts(), h.topo.host_rate);
    let (out, _) = workload::run(&mut h, &flows);
    h.topo.net.tracer().assert_flows_complete(h.metrics());
    Outcome::of(&h, &out)
}

/// Median of `v` (mean of the middle two for even lengths); NaN when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quartiles(v)[1]
}

/// First quartile, median and third quartile of `v`, computed exactly as
/// Python's `statistics.quantiles(v, n=4)` (the "exclusive" method). A
/// single value is all three; an empty slice gives NaN.
pub fn quartiles(v: &mut [f64]) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&mut [4.0, 1.0]), 2.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [2.0, 1.0]), [0.75, 1.5, 2.25]);
    }
}
