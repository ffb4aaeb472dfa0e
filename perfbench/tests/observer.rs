//! The benchmark's own checks: tracing only observes, inputs come from the
//! seed alone, and bad command lines are refused.

use std::process::Command;

use aeolus_perfbench::trace::Op;
use aeolus_perfbench::workload::Workload;
use aeolus_perfbench::{oracle_run, plain_run, traced_run};

/// Small enough for a debug build; `incast_mix` adds its fixed incasts.
const BYTES: u64 = 60_000_000;
const SEED: u64 = 7;

/// The untraced run, the traced run (every endpoint and queue wrapped) and
/// the oracle-checked run of one seed simulate the same thing: same event
/// count, same digest, same model counts.
fn passive_observer(w: Workload) {
    let oracle = oracle_run(w, BYTES, SEED);
    assert!(
        oracle.all_completed(),
        "{}: {} of {} flows unfinished",
        w.name(),
        oracle.flows - oracle.completed,
        oracle.flows
    );
    let plain = plain_run(w, BYTES, SEED, 2).outcome;
    assert_eq!(
        plain,
        oracle,
        "{}: the untraced run differs from the oracle run",
        w.name()
    );
    let traced = traced_run(w, BYTES, SEED);
    assert_eq!(
        traced.outcome,
        oracle,
        "{}: the traced run differs from the oracle run",
        w.name()
    );
    assert_eq!(
        traced.rec.tally(Op::FlowArrival).calls,
        oracle.flows as u64,
        "{}: every arrival timed",
        w.name()
    );
    assert!(traced.rec.tally(Op::Packet).calls > 0 && traced.rec.tally(Op::Poll).calls > 0);
    let polls = traced.rec.tally(Op::Poll).calls;
    assert!(
        traced.rec.poll_hits() <= polls,
        "{}: more poll hits than polls",
        w.name()
    );
}

#[test]
fn credit_fattree_tracing_is_passive() {
    passive_observer(Workload::CreditFattree);
}

#[test]
fn incast_mix_tracing_is_passive() {
    passive_observer(Workload::IncastMix);
}

#[test]
fn lossy_spray_tracing_is_passive() {
    passive_observer(Workload::LossySpray);
}

#[test]
fn inputs_are_a_function_of_the_seed_and_meet_the_budget() {
    for w in Workload::ALL {
        let h = w.builder(SEED).build();
        let gen = |seed| w.generate(BYTES, seed, h.hosts(), h.topo.host_rate);
        let (a, b, c) = (gen(SEED), gen(SEED), gen(SEED + 1));
        assert_eq!(a, b, "{}: same seed, same flows", w.name());
        assert_ne!(a, c, "{}: another seed, other flows", w.name());
        assert!(
            a.iter().map(|f| f.size).sum::<u64>() >= BYTES,
            "{}: budget met",
            w.name()
        );
        assert_eq!(
            w.params(SEED + 1).faults.seed,
            if w == Workload::LossySpray {
                SEED + 1
            } else {
                0
            }
        );
    }
}

#[test]
fn bad_command_lines_exit_2_with_one_line() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload incast_mix --seed x --seconds 1 --trace 0",
        "--workload incast_mix --seed 1 --seconds 1 --trace 0 --extra 1",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_aeolus-perfbench"))
            .args(args.split_whitespace())
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(out.stdout.is_empty(), "{args}: no result printed");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).lines().count(),
            1,
            "{args}"
        );
    }
}
