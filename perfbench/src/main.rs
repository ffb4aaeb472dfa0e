//! Repository benchmark command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <credit_fattree|incast_mix|lossy_spray> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every simulation runs in a child process of its own (one workload per
//! process, so `VmHWM` is that run's peak memory):
//!
//! 1. one oracle child runs the workload under the conformance oracle and
//!    gives the reference event count and digest;
//! 2. untraced children run back to back until `--seconds` have passed
//!    (at least three); with `--trace 1` each is followed by a traced child.
//!
//! A run fails — all of its flows count as failed — if its child panics, a
//! flow is unfinished at the horizon, or its events or digest differ from
//! the oracle's. The benchmark prints a table of every metric it measured (the
//! end-to-end ones always, the per-layer ones with `--trace 1`) by name,
//! with unit, median, quartiles and run count. Its last line is one JSON
//! object publishing the end-to-end metrics with `--trace 0` and the
//! per-layer metrics with `--trace 1`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use aeolus_perfbench::trace::Op;
use aeolus_perfbench::workload::Workload;
use aeolus_perfbench::{median, oracle_run, plain_run, quartiles, traced_run};

/// Set-ups timed in each untraced child before its run.
const SETUP_REPS: usize = 15;
/// Fewest untraced runs an invocation makes, however short `--seconds`.
const MIN_RUNS: usize = 3;
/// No run starts after this much wall time, so a slow host still ends
/// within the 180 s a benchmark invocation is allowed.
const START_CUTOFF: Duration = Duration::from_secs(120);
/// Largest `--seconds` accepted.
const MAX_SECONDS: u64 = 60;
/// `trace.closure_ratio` (calibrated layer self times over the untraced
/// `run_s`) must lie within this distance of 1 for the split to be trusted;
/// it read 0.91 to 1.05 across the workloads when the benchmark was defined.
const CLOSURE_BOUND: f64 = 0.15;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Oracle,
    Plain,
    Traced,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Oracle => "oracle",
            Role::Plain => "plain",
            Role::Traced => "traced",
        }
    }
}

enum Cli {
    Bench {
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    Child {
        role: Role,
        workload: Workload,
        seed: u64,
    },
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--child" => &flag[2..],
            other => return Err(format!("unknown argument '{other}'")),
        };
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if kv.insert(key, val).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let need = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let name = need("workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload '{name}' (expected one of {})",
            names.join(", ")
        )
    })?;
    let seed = need("seed")?;
    let seed = seed
        .parse()
        .map_err(|_| format!("bad --seed '{seed}' (expected an unsigned integer)"))?;
    if let Some(role) = kv.get("child") {
        if kv.len() != 3 {
            return Err("--child takes only --workload and --seed".into());
        }
        let role = match *role {
            "oracle" => Role::Oracle,
            "plain" => Role::Plain,
            "traced" => Role::Traced,
            other => return Err(format!("unknown --child role '{other}'")),
        };
        return Ok(Cli::Child {
            role,
            workload,
            seed,
        });
    }
    let seconds = need("seconds")?;
    let seconds = match seconds.parse() {
        Ok(s) if (1..=MAX_SECONDS).contains(&s) => s,
        _ => {
            return Err(format!(
                "bad --seconds '{seconds}' (expected 1 to {MAX_SECONDS})"
            ))
        }
    };
    let trace = match need("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}' (expected 0 or 1)")),
    };
    Ok(Cli::Bench {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
        Ok(Cli::Child {
            role,
            workload,
            seed,
        }) => {
            child(role, workload, seed);
            ExitCode::SUCCESS
        }
        Ok(Cli::Bench {
            workload,
            seed,
            seconds,
            trace,
        }) => bench(workload, seed, seconds, trace),
    }
}

/// Peak resident set of this process (`VmHWM`), in kB.
fn peak_rss_kb() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line")
}

/// Run one simulation and print its results as one `key=value` line.
fn child(role: Role, w: Workload, seed: u64) {
    let bytes = w.default_bytes();
    let mut fields: Vec<(String, String)> = Vec::new();
    let mut put = |k: &str, v: String| fields.push((k.to_string(), v));
    let outcome = match role {
        Role::Oracle => oracle_run(w, bytes, seed),
        Role::Plain => {
            let r = plain_run(w, bytes, seed, SETUP_REPS);
            put("setup_s", r.setup_s.to_string());
            put("build_s", r.setup.build_s.to_string());
            put("gen_s", r.setup.gen_s.to_string());
            put("run_s", r.times.run_s().to_string());
            put("sim_s", r.times.sim_s.to_string());
            put("collect_s", r.times.collect_s.to_string());
            put("rss_kb", peak_rss_kb().to_string());
            r.outcome
        }
        Role::Traced => {
            let r = traced_run(w, bytes, seed);
            put("probe_ns", r.probe.probe_ns.to_string());
            put("span_floor_ns", r.probe.span_floor_ns.to_string());
            put("calibration_s", r.probe.calibration_s.to_string());
            put("run_s", r.times.run_s().to_string());
            put("sim_s", r.times.sim_s.to_string());
            put("collect_s", r.times.collect_s.to_string());
            for op in Op::ALL {
                let t = r.rec.tally(op);
                put(&format!("{}.calls", op.name()), t.calls.to_string());
                put(&format!("{}.ns", op.name()), t.ns.to_string());
            }
            put("poll_hits", r.rec.poll_hits().to_string());
            put("enqueue_drops", r.rec.enqueue_drops().to_string());
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{dir}/spans_{}_seed{seed}.jsonl", w.name());
            let written = std::fs::create_dir_all(dir).and_then(|()| {
                let mut f = BufWriter::new(File::create(&path)?);
                r.rec.write_spans(&mut f)?;
                std::io::Write::flush(&mut f)
            });
            if let Err(e) = written {
                eprintln!("perfbench: cannot write {path}: {e}");
            }
            r.outcome
        }
    };
    for (k, v) in outcome.fields() {
        put(k, v);
    }
    let line: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("{}", line.join(" "));
}

/// The parsed result line of one child.
struct Record(BTreeMap<String, String>);

impl Record {
    fn get<T: std::str::FromStr>(&self, k: &str) -> T {
        self.0
            .get(k)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("child result lacks '{k}'"))
    }

    fn f(&self, k: &str) -> f64 {
        self.get(k)
    }

    fn u(&self, k: &str) -> u64 {
        self.get(k)
    }
}

/// Run one child to completion; `Err` carries its last stderr line.
fn spawn(role: Role, w: Workload, seed: u64) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            role.name(),
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start {} child: {e}", role.name()))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        let last = err
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("no output");
        return Err(format!(
            "{} child failed ({}): {last}",
            role.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Ok(Record(
        line.split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    ))
}

/// One reported metric: its samples (one per run) and unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
}

fn metric(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        name,
        unit,
        samples,
    }
}

fn bench(w: Workload, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let start = Instant::now();
    // Counted here, so the flows of a child that crashes still count.
    let flows = {
        let h = w.builder(seed).build();
        w.generate(w.default_bytes(), seed, h.hosts(), h.topo.host_rate)
            .len() as u64
    };
    let oracle = spawn(Role::Oracle, w, seed);
    let reference = match &oracle {
        Ok(r) => Some((r.u("events"), r.u("digest"))),
        Err(e) => {
            eprintln!("perfbench: {e}");
            None
        }
    };
    let measured = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |role: Role, res: Result<Record, String>| -> Option<Record> {
        attempted += flows;
        let verdict = res.and_then(|r| {
            let (events, digest) = reference.ok_or_else(|| "no oracle reference".to_string())?;
            if r.u("completed") != r.u("flows") {
                return Err(format!(
                    "{} of {} flows unfinished at the horizon",
                    r.u("flows") - r.u("completed"),
                    r.u("flows")
                ));
            }
            if (r.u("events"), r.u("digest")) != (events, digest) {
                return Err(format!(
                    "{} run simulated {} events / digest {} but the oracle run {} / {}",
                    role.name(),
                    r.u("events"),
                    r.u("digest"),
                    events,
                    digest
                ));
            }
            Ok(r)
        });
        match verdict {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("perfbench: run failed: {e}");
                failed += flows;
                None
            }
        }
    };
    loop {
        let enough = measured.elapsed() >= Duration::from_secs(seconds) && plain.len() >= MIN_RUNS;
        if enough || start.elapsed() >= START_CUTOFF {
            break;
        }
        plain.extend(check(Role::Plain, spawn(Role::Plain, w, seed)));
        if trace {
            traced.extend(check(Role::Traced, spawn(Role::Traced, w, seed)));
        }
    }
    let correct =
        oracle.is_ok() && failed == 0 && !plain.is_empty() && (!trace || !traced.is_empty());
    // The table shows the end-to-end metrics in both modes; the JSON line
    // publishes them with `--trace 0` and the per-layer ones with `--trace 1`.
    let mut metrics: Vec<(Metric, bool)> = Vec::new();
    if correct {
        let col = |f: &dyn Fn(&Record) -> f64| -> Vec<f64> { plain.iter().map(f).collect() };
        let end_to_end = [
            metric("run_s", "s", col(&|r| r.f("run_s"))),
            metric("setup_s", "s", col(&|r| r.f("setup_s"))),
            metric("peak_rss_mb", "MB", col(&|r| r.f("rss_kb") / 1024.0)),
        ];
        metrics.extend(end_to_end.into_iter().map(|m| (m, !trace)));
        if trace {
            metrics.extend(
                layer_metrics(&plain, &traced)
                    .into_iter()
                    .map(|m| (m, true)),
            );
        }
    }
    println!(
        "workload {} seed {seed}: {} untraced and {} traced runs of {flows} flows in {:.1} s",
        w.name(),
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "{:<40} {:>16} {:>16} {:>16} {:>4}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    let mut json = Vec::new();
    for (mut m, published) in metrics {
        let [q1, med, q3] = quartiles(&mut m.samples);
        if m.name == "trace.closure_ratio" {
            let verdict = if (med - 1.0).abs() <= CLOSURE_BOUND {
                "holds"
            } else {
                "FAILS: do not trust the split"
            };
            eprintln!("perfbench: closure {med:.3} of the untraced run_s (bound 1 ± {CLOSURE_BOUND}): {verdict}");
        }
        println!(
            "{:<40} {:>16} {:>16} {:>16} {:>4}  {}",
            m.name,
            fmt(med),
            fmt(q1),
            fmt(q3),
            m.samples.len(),
            m.unit
        );
        if published {
            json.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt(med),
                m.unit
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number with all its digits (integers without a fraction).
fn fmt(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The per-layer split: self times from the traced children, calibrated
/// by each child's probe; rates and set-up phases from the untraced ones.
fn layer_metrics(plain: &[Record], traced: &[Record]) -> Vec<Metric> {
    let each = |f: &dyn Fn(&Record) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
    let each_plain = |f: &dyn Fn(&Record) -> f64| -> Vec<f64> { plain.iter().map(f).collect() };
    let calls = |r: &Record, op: Op| r.f(&format!("{}.calls", op.name()));
    let ns = |r: &Record, op: Op| r.f(&format!("{}.ns", op.name()));
    let layer = |r: &Record, endpoint: bool| -> (f64, f64) {
        Op::ALL
            .into_iter()
            .filter(|op| op.is_endpoint() == endpoint)
            .fold((0.0, 0.0), |(c, n), op| (c + calls(r, op), n + ns(r, op)))
    };
    // Self times in seconds: each span's reading less the probe share that
    // falls inside it; the engine gets the rest of the simulation less the
    // probe share outside the spans and the in-place calibration.
    let split = |r: &Record| -> [f64; 3] {
        let (floor, probe) = (r.f("span_floor_ns"), r.f("probe_ns"));
        let (ep_calls, ep_ns) = layer(r, true);
        let (q_calls, q_ns) = layer(r, false);
        let ep = ep_ns - ep_calls * floor;
        let q = q_ns - q_calls * floor;
        let engine = (r.f("sim_s") - r.f("calibration_s")) * 1e9
            - ep_ns
            - q_ns
            - (ep_calls + q_calls) * (probe - floor);
        [ep / 1e9, q / 1e9, engine / 1e9]
    };
    let untraced_run_s = median(&mut each_plain(&|r| r.f("run_s")));
    let first = &traced[0];
    let (ep_calls, _) = layer(first, true);
    let enqueues = calls(first, Op::Enqueue);
    let polls = calls(first, Op::Poll);
    vec![
        metric("workloads.gen_s", "s", each_plain(&|r| r.f("gen_s"))),
        metric("transport.build_s", "s", each_plain(&|r| r.f("build_s"))),
        metric("transport.endpoint.self_s", "s", each(&|r| split(r)[0])),
        metric(
            "transport.endpoint.ns_per_call",
            "ns",
            each(&|r| split(r)[0] * 1e9 / ep_calls),
        ),
        metric(
            "transport.endpoint.on_packet.calls",
            "count",
            vec![calls(first, Op::Packet)],
        ),
        metric(
            "transport.endpoint.on_timer.calls",
            "count",
            vec![calls(first, Op::Timer)],
        ),
        metric(
            "transport.endpoint.on_flow_arrival.calls",
            "count",
            vec![calls(first, Op::FlowArrival)],
        ),
        metric("sim.queues.self_s", "s", each(&|r| split(r)[1])),
        metric("sim.queues.enqueue.calls", "count", vec![enqueues]),
        metric("sim.queues.poll.calls", "count", vec![polls]),
        metric(
            "sim.queues.poll_hit_ratio",
            "ratio",
            vec![first.f("poll_hits") / polls],
        ),
        metric(
            "sim.queues.drop_ratio",
            "ratio",
            vec![first.f("enqueue_drops") / enqueues],
        ),
        metric(
            "sim.queues.selective_drops",
            "count",
            vec![first.f("selective_drops")],
        ),
        metric(
            "sim.queues.credit_drops",
            "count",
            vec![first.f("credit_drops")],
        ),
        metric("sim.queues.ce_marks", "count", vec![first.f("ce_marks")]),
        metric("sim.engine.self_s", "s", each(&|r| split(r)[2])),
        metric("sim.engine.events", "count", vec![first.f("events")]),
        metric(
            "sim.engine.events_per_s",
            "1/s",
            each_plain(&|r| r.f("events") / r.f("run_s")),
        ),
        metric(
            "sim.engine.ns_per_event",
            "ns",
            each_plain(&|r| r.f("run_s") * 1e9 / r.f("events")),
        ),
        metric(
            "sim.faults.corruption_drops",
            "count",
            vec![first.f("corruption_drops")],
        ),
        metric(
            "sim.faults.linkdown_drops",
            "count",
            vec![first.f("linkdown_drops")],
        ),
        metric("sim.digest", "hash", vec![first.f("digest")]),
        metric("stats.collect_s", "s", each(&|r| r.f("collect_s"))),
        metric("transport.retx_bytes", "bytes", vec![first.f("retx_bytes")]),
        metric(
            "transport.flows_with_timeouts",
            "count",
            vec![first.f("flows_with_timeouts")],
        ),
        metric("transport.efficiency", "ratio", vec![first.f("efficiency")]),
        metric("transport.max_fct_ms", "ms", vec![first.f("max_fct_ms")]),
        metric(
            "transport.flows_past_400ms_drain",
            "count",
            vec![first.f("past_default_drain")],
        ),
        metric("trace.probe_ns", "ns", each(&|r| r.f("probe_ns"))),
        metric("trace.span_floor_ns", "ns", each(&|r| r.f("span_floor_ns"))),
        metric(
            "trace.overhead_ratio",
            "ratio",
            each(&|r| r.f("run_s") / untraced_run_s),
        ),
        metric(
            "trace.closure_ratio",
            "ratio",
            each(&|r| (split(r).iter().sum::<f64>() + r.f("collect_s")) / untraced_run_s),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_rejects_bad_input_with_one_line_errors() {
        let err = |s: &str| match parse(&args(s)) {
            Err(e) => e,
            Ok(_) => panic!("'{s}' should not parse"),
        };
        let ok = "--workload incast_mix --seed 3 --seconds 10 --trace 0";
        assert!(matches!(
            parse(&args(ok)),
            Ok(Cli::Bench {
                seed: 3,
                seconds: 10,
                trace: false,
                ..
            })
        ));
        assert!(err("--workload nope --seed 1 --seconds 1 --trace 0").contains("unknown workload"));
        assert!(err("--workload incast_mix --seed -1 --seconds 1 --trace 0").contains("bad --seed"));
        assert!(err("--workload incast_mix --seed x --seconds 1 --trace 0").contains("bad --seed"));
        assert!(
            err("--workload incast_mix --seed 1 --seconds 0 --trace 0").contains("bad --seconds")
        );
        assert!(err("--workload incast_mix --seed 1 --seconds 1 --trace 2").contains("bad --trace"));
        assert!(err("--workload incast_mix --seed 1 --seconds 1").contains("missing --trace"));
        assert!(
            err("--workload incast_mix --seed 1 --seed 2 --seconds 1 --trace 0").contains("twice")
        );
        assert!(err("--bogus 1").contains("unknown argument"));
        assert!(err("--workload incast_mix --seed").contains("needs a value"));
        assert!(
            err("--child plain --workload incast_mix --seed 1 --trace 0").contains("--child takes")
        );
        for s in ["--workload nope --seed 1 --seconds 1 --trace 0", "--bogus"] {
            assert!(!err(s).contains('\n'));
        }
    }
}
