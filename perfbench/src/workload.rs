//! The three benchmark workloads and the one code path that runs them.
//!
//! Each workload is one single-threaded simulation driven through the same
//! public entry points `aeolus_experiments::runner::run_workload` uses with
//! the cache off: the `aeolus-workloads` generator, [`SchemeBuilder::build`],
//! [`Harness::schedule`] / [`Harness::run`], then [`runner::collect`]. The
//! seed reaches only the flow generator and the fault-plan seed.
//!
//! Input size is stated in offered bytes, not flows: the Web Search size
//! distribution is heavy-tailed, so a fixed flow count would let the
//! simulated work (and with it the host cost) swing with the seed. The
//! generator draws Poisson flows until the byte budget is reached.

use std::time::Instant;

use aeolus_experiments::runner::{self, homa_cutoffs_for, RunOutput};
use aeolus_experiments::topos::{ep_fat_tree, heavy_spine_leaf, homa_two_tier, FAT_TREE_OVERSUB};
use aeolus_experiments::Scale;
use aeolus_sim::units::{ms, us, Time};
use aeolus_sim::{FaultPlan, FlowDesc, NodeId, Rate, Tracer};
use aeolus_transport::{Harness, Scheme, SchemeBuilder, SchemeParams, TopoSpec};
use aeolus_workloads::{
    mixed_flows, poisson_flows, MixConfig, PoissonConfig, Workload as SizeDist,
};

/// Time after the last arrival before unfinished flows count as failed.
/// Five times the 400 ms drain `run_workload` uses, so slow recovery under
/// faults is not scored as a hang; the run still ends as soon as every flow
/// has settled.
pub const DRAIN: Time = ms(2_000);

/// Fault plan of `lossy_spray` (the `repro --faults` grammar): 1% corruption
/// loss on every link plus a 300 µs fabric-wide link-down window.
pub const LOSSY_FAULTS: &str = "loss=0.01,down=200us..500us";

/// Incast shape of `incast_mix` (Fig 18 at quick scale).
const INCAST_FAN_IN: usize = 32;
const INCAST_MSG: u64 = 64_000;
const INCAST_EVENTS: usize = 6;
const INCAST_GAP: Time = us(400);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ExpressPass+Aeolus on the oversubscribed fat-tree, Web Search Poisson
    /// at 40% core load: credits are packets, so this is the endpoint- and
    /// timer-heaviest, event-densest workload.
    CreditFattree,
    /// Homa+Aeolus on the heavy spine-leaf, Web Search at 50% plus 32-to-1
    /// incasts of 64 KB: selective dropping and the priority bank carry the
    /// load while endpoints do little.
    IncastMix,
    /// NDP+Aeolus on the two-tier tree with per-packet spraying, Web Search
    /// Poisson at 60%, under corruption loss and a link-down window: the
    /// same layers in recovery instead of steady state.
    LossySpray,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CreditFattree,
        Workload::IncastMix,
        Workload::LossySpray,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CreditFattree => "credit_fattree",
            Workload::IncastMix => "incast_mix",
            Workload::LossySpray => "lossy_spray",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The transport under test.
    pub fn scheme(self) -> Scheme {
        match self {
            Workload::CreditFattree => Scheme::ExpressPassAeolus,
            Workload::IncastMix => Scheme::HomaAeolus,
            Workload::LossySpray => Scheme::NdpAeolus,
        }
    }

    /// The topology, always at quick scale.
    pub fn topology(self) -> TopoSpec {
        match self {
            Workload::CreditFattree => ep_fat_tree(Scale::Quick),
            Workload::IncastMix => heavy_spine_leaf(Scale::Quick),
            Workload::LossySpray => homa_two_tier(Scale::Quick),
        }
    }

    /// Offered Poisson load as a fraction of host capacity.
    pub fn host_load(self) -> f64 {
        match self {
            Workload::CreditFattree => 0.4 / FAT_TREE_OVERSUB,
            Workload::IncastMix => 0.5,
            Workload::LossySpray => 0.6,
        }
    }

    /// Offered Web Search bytes per run (the input size). For `incast_mix`
    /// this is the background share; the incasts add a fixed
    /// 6 × 32 × 64 KB on top.
    pub fn default_bytes(self) -> u64 {
        match self {
            Workload::CreditFattree => 800_000_000,
            Workload::IncastMix => 600_000_000,
            Workload::LossySpray => 600_000_000,
        }
    }

    /// Scheme parameters as `run_workload` would normalize them: Homa
    /// cutoffs from the size distribution, plus the workload's buffer and
    /// fault plan. `seed` seeds the fault plan's corruption draws.
    pub fn params(self, seed: u64) -> SchemeParams {
        let mut p = SchemeParams::new(0);
        match self {
            Workload::CreditFattree => {}
            Workload::IncastMix => {
                p.homa_cutoffs = homa_cutoffs_for(SizeDist::WebSearch);
                p.port_buffer = 500_000;
            }
            Workload::LossySpray => {
                let mut plan: FaultPlan =
                    LOSSY_FAULTS.parse().expect("the fault spec is a constant");
                plan.seed = seed;
                p.faults = plan;
            }
        }
        p
    }

    /// The builder every run starts from.
    pub fn builder(self, seed: u64) -> SchemeBuilder {
        SchemeBuilder::new(self.scheme())
            .params(self.params(seed))
            .topology(self.topology())
    }

    /// Generate the flow list for `seed` against the built harness's hosts.
    pub fn generate(
        self,
        bytes: u64,
        seed: u64,
        hosts: &[NodeId],
        host_rate: Rate,
    ) -> Vec<FlowDesc> {
        let dist = SizeDist::WebSearch.dist();
        let poisson = |flows: usize| {
            let cfg = PoissonConfig {
                load: self.host_load(),
                host_rate,
                flows,
                seed,
                first_id: 1,
                start: 0,
            };
            poisson_flows(&cfg, hosts, &dist)
        };
        // The generator is sequential in its RNG, so the first n flows of a
        // longer draw are exactly the n-flow draw; find the budget's prefix.
        let mut draw = (2.0 * bytes as f64 / dist.mean()) as usize + 64;
        let (mut flows, n) = loop {
            let mut sum = 0;
            let flows = poisson(draw);
            if let Some(i) = flows.iter().position(|f| {
                sum += f.size;
                sum >= bytes
            }) {
                break (flows, i + 1);
            }
            draw *= 2;
        };
        if self != Workload::IncastMix {
            flows.truncate(n);
            return flows;
        }
        mixed_flows(
            &MixConfig {
                background_load: self.host_load(),
                host_rate,
                background_flows: n,
                incast_fan_in: INCAST_FAN_IN,
                incast_msg_size: INCAST_MSG,
                incast_events: INCAST_EVENTS,
                incast_gap: INCAST_GAP,
                seed,
            },
            hosts,
            &dist,
        )
    }
}

/// Host seconds of one set-up: flow generation and harness construction.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// `SchemeBuilder::build` (topology, queues, endpoints).
    pub build_s: f64,
    /// Flow generation.
    pub gen_s: f64,
}

/// Build the untraced harness and generate its flows, timing both.
pub fn set_up(w: Workload, bytes: u64, seed: u64) -> (Harness, Vec<FlowDesc>, Setup) {
    let t0 = Instant::now();
    let h = w.builder(seed).build();
    let t1 = Instant::now();
    let flows = w.generate(bytes, seed, h.hosts(), h.topo.host_rate);
    let t2 = Instant::now();
    let setup = Setup {
        build_s: (t1 - t0).as_secs_f64(),
        gen_s: (t2 - t1).as_secs_f64(),
    };
    (h, flows, setup)
}

/// Host seconds of one run, split at its phases.
#[derive(Debug, Clone, Copy)]
pub struct RunTimes {
    /// `Harness::schedule` plus `Harness::run`.
    pub sim_s: f64,
    /// `runner::collect` plus `FctAggregator::summary`.
    pub collect_s: f64,
}

impl RunTimes {
    /// Schedule through collect: the `run_s` metric.
    pub fn run_s(&self) -> f64 {
        self.sim_s + self.collect_s
    }
}

/// Schedule `flows`, run to the horizon and collect, timing each phase.
pub fn run<T: Tracer>(h: &mut Harness<T>, flows: &[FlowDesc]) -> (RunOutput, RunTimes) {
    let t0 = Instant::now();
    h.schedule(flows);
    let last_arrival = flows.iter().map(|f| f.start).max().unwrap_or(0);
    h.run(last_arrival + DRAIN);
    let t1 = Instant::now();
    let out = runner::collect(h);
    std::hint::black_box(out.agg.summary());
    let t2 = Instant::now();
    (
        out,
        RunTimes {
            sim_s: (t1 - t0).as_secs_f64(),
            collect_s: (t2 - t1).as_secs_f64(),
        },
    )
}
