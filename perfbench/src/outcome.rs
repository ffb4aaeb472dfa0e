//! What a run simulated, reduced to the counts a performance change must
//! leave identical, and the digest that pins them.

use aeolus_experiments::RunOutput;
use aeolus_sim::units::ms;
use aeolus_sim::{DropReason, Tracer};
use aeolus_transport::Harness;

/// The simulated result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Flows scheduled.
    pub flows: usize,
    /// Flows completed by the horizon.
    pub completed: usize,
    /// Events the engine processed.
    pub events: u64,
    /// FNV-1a hash of the event count, every flow's completion time and the
    /// drop taxonomy, cut to 53 bits so it survives a JSON number.
    pub digest: u64,
    /// Retransmitted payload bytes over all flows.
    pub retx_bytes: u64,
    /// Flows that suffered at least one timeout.
    pub flows_with_timeouts: usize,
    /// Unique delivered over sent payload.
    pub efficiency: f64,
    /// Slowest completed flow, in ms of simulated time.
    pub max_fct_ms: f64,
    /// Flows that completed more than 400 ms (the drain `run_workload`
    /// uses) after the last arrival: unfinished under that horizon.
    pub past_default_drain: usize,
    /// Aeolus selective drops.
    pub selective_drops: u64,
    /// ExpressPass credit-queue overflows.
    pub credit_drops: u64,
    /// Fault-injected corruption losses.
    pub corruption_drops: u64,
    /// Packets lost to a downed link.
    pub linkdown_drops: u64,
    /// ECN CE marks.
    pub ce_marks: u64,
}

impl Outcome {
    /// Read the outcome of a finished run.
    pub fn of<T: Tracer>(h: &Harness<T>, out: &RunOutput) -> Outcome {
        let m = h.metrics();
        let mut flows: Vec<_> = m.flows().collect();
        flows.sort_unstable_by_key(|r| r.desc.id.0);
        let mut fnv = Fnv::default();
        fnv.add(out.events);
        for r in &flows {
            fnv.add(r.desc.id.0);
            fnv.add(r.completed_at.unwrap_or(u64::MAX));
        }
        for ((reason, class), n) in m.drops() {
            fnv.add_str(&format!("{reason:?}/{class:?}"));
            fnv.add(n);
        }
        let max_fct_ps = flows.iter().filter_map(|r| r.fct()).max().unwrap_or(0);
        let drain_end = flows.iter().map(|r| r.desc.start).max().unwrap_or(0) + ms(400);
        Outcome {
            flows: flows.len(),
            completed: out.completed,
            events: out.events,
            digest: fnv.0 & ((1 << 53) - 1),
            retx_bytes: flows.iter().map(|r| r.retransmitted).sum(),
            flows_with_timeouts: out.flows_with_timeouts,
            efficiency: out.efficiency,
            max_fct_ms: max_fct_ps as f64 / 1e9,
            past_default_drain: flows
                .iter()
                .filter(|r| r.completed_at.is_some_and(|t| t > drain_end))
                .count(),
            selective_drops: m.drops_by_reason(DropReason::SelectiveDrop),
            credit_drops: m.drops_by_reason(DropReason::CreditOverflow),
            corruption_drops: m.drops_by_reason(DropReason::Corruption),
            linkdown_drops: m.drops_by_reason(DropReason::LinkDown),
            ce_marks: m.ce_marks,
        }
    }

    /// Every flow completed by the horizon.
    pub fn all_completed(&self) -> bool {
        self.completed == self.flows
    }

    /// Serialize as `key=value` pairs (the child-process line format).
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("flows", self.flows.to_string()),
            ("completed", self.completed.to_string()),
            ("events", self.events.to_string()),
            ("digest", self.digest.to_string()),
            ("retx_bytes", self.retx_bytes.to_string()),
            ("flows_with_timeouts", self.flows_with_timeouts.to_string()),
            ("efficiency", format!("{:e}", self.efficiency)),
            ("max_fct_ms", format!("{:e}", self.max_fct_ms)),
            ("past_default_drain", self.past_default_drain.to_string()),
            ("selective_drops", self.selective_drops.to_string()),
            ("credit_drops", self.credit_drops.to_string()),
            ("corruption_drops", self.corruption_drops.to_string()),
            ("linkdown_drops", self.linkdown_drops.to_string()),
            ("ce_marks", self.ce_marks.to_string()),
        ]
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn add_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add(&mut self, v: u64) {
        self.add_bytes(&v.to_le_bytes());
    }

    fn add_str(&mut self, s: &str) {
        self.add_bytes(s.as_bytes());
    }
}
