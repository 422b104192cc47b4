//! A declarative scenario DSL: serving studies as **data**, not code.
//!
//! A [`ScenarioSpec`] captures everything one sweep cell needs — fleet
//! shape, arrival process, traffic model (mix / decode plans / sessions),
//! dispatch policy, admission / preemption / autoscaler knobs, a fault
//! schedule, a seed, and a request count — as a plain value with a JSON
//! representation ([`ScenarioSpec::to_json`] / [`ScenarioSpec::from_json`],
//! round-trippable through [`crate::json::Json::parse`]). Its
//! [`run`](ScenarioSpec::run) assembles the existing [`Simulation`]
//! builder from those fields, so a spec produces **byte-identical**
//! reports to the hand-built equivalent: the DSL adds no simulation
//! semantics of its own, it only names the ones the simulator already
//! has. `serve_sweep`'s ten scenarios are expressed as spec values, and
//! the `capacity_plan` autotuner searches over a spec template's free
//! axes (fleet size, shard width, autoscaling, batching mode).
//!
//! Validation has one source of truth per rule. The spec itself owns
//! only four: the fleet has a group, no group is empty, `requests` is
//! positive, and every fault names a card of the fleet.
//! [`ScenarioSpec::validate`] checks those and then delegates each
//! component to the fallible check its own panicking constructor uses
//! ([`ArrivalProcess::validate`], [`DecodeMix::validate`],
//! [`MemoryInterface::try_new`], [`PreemptionControl::validate`], …), so
//! a spec that validates never trips a constructor panic and the two can
//! never drift apart. [`run`](ScenarioSpec::run) also turns arrival or
//! fault times that overflow to infinity into a diagnostic. The JSON
//! loader reads every field through one typed reader whose diagnostics
//! name the field's path (`traffic.heavy_pct`) and that rejects an
//! integer too large for its field instead of truncating it.
//!
//! # Examples
//!
//! ```
//! use swat_serve::scenario::{FleetSpec, ScenarioSpec, TrafficModel};
//! use swat_serve::arrival::ArrivalProcess;
//! use swat_workloads::RequestMix;
//!
//! let spec = ScenarioSpec {
//!     name: "smoke".to_string(),
//!     fleet: FleetSpec::standard(2),
//!     arrivals: ArrivalProcess::poisson(10.0),
//!     traffic: TrafficModel::mix(RequestMix::Production),
//!     requests: 100,
//!     seed: 7,
//!     ..ScenarioSpec::default()
//! };
//! // The JSON representation round-trips exactly.
//! let json = spec.to_json();
//! let back = ScenarioSpec::from_json(&json).unwrap();
//! assert_eq!(back, spec);
//! // And running it is just running the simulator it describes.
//! let report = spec.run().unwrap();
//! assert_eq!(report.offered, 100);
//! ```

use crate::arrival::ArrivalProcess;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::fleet::{CardGroup, FleetConfig};
use crate::json::{read_fields, Fields, FromJson, Json, ReadError};
use crate::metrics::ServeReport;
use crate::policy::{
    validate_max_shards, DispatchPolicy, Fifo, HeadAffinity, LeastLoaded, SessionAffinity,
    ShardedLeastLoaded, ShardedShortestJobFirst, ShortestJobFirst,
};
use crate::request::Request;
use crate::scale::AutoscalerConfig;
use crate::session::SessionTraffic;
use crate::sim::{AdmissionControl, DecodeBatching, PreemptionControl, Simulation, TrafficSpec};
use crate::trace::KernelCounters;
use swat::SwatConfig;
use swat_hw::MemoryInterface;
use swat_workloads::{DecodeMix, RequestClass, RequestMix, SessionProfile};

/// A named card design the DSL can instantiate. The two variants cover
/// every deployed fleet in the sweep: the paper's highest-throughput
/// dual-pipeline FP16 point and the accuracy-tier single-pipeline FP32
/// point `FleetConfig::mixed_precision` pairs it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CardDesign {
    /// Dual-pipeline BigBird FP16 ([`SwatConfig::bigbird_dual_fp16`]).
    Fp16Dual,
    /// Single-pipeline BigBird FP32 (the `mixed_precision` slow tier).
    Fp32Single,
}

impl CardDesign {
    /// The DSL name (`"fp16-dual"` / `"fp32-single"`).
    pub fn name(&self) -> &'static str {
        match self {
            CardDesign::Fp16Dual => "fp16-dual",
            CardDesign::Fp32Single => "fp32-single",
        }
    }

    /// Instantiates the accelerator configuration.
    pub fn config(&self) -> SwatConfig {
        match self {
            CardDesign::Fp16Dual => SwatConfig::bigbird_dual_fp16(),
            CardDesign::Fp32Single => SwatConfig {
                precision: swat::config::Precision::Fp32,
                pipelines: 1,
                ..SwatConfig::bigbird_dual_fp16()
            },
        }
    }
}

/// A card group's off-chip memory interface, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemorySpec {
    /// HBM2 at 460 GB/s ([`MemoryInterface::hbm2`]).
    Hbm2,
    /// An explicit sustained bandwidth — e.g. the bandwidth-binned
    /// 1.2 GB/s cards the adaptive-width scenario stresses.
    BytesPerSec(f64),
}

impl MemorySpec {
    /// Instantiates the interface (panicking with
    /// [`MemoryInterface::try_new`]'s diagnostic on a bad bandwidth).
    pub fn interface(&self) -> MemoryInterface {
        match *self {
            MemorySpec::Hbm2 => MemoryInterface::hbm2(),
            MemorySpec::BytesPerSec(bps) => MemoryInterface::new(bps),
        }
    }

    fn to_json(self) -> Json {
        match self {
            MemorySpec::Hbm2 => Json::Str("hbm2".into()),
            MemorySpec::BytesPerSec(bps) => Json::Num(bps),
        }
    }
}

/// One homogeneous group of cards in a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardGroupSpec {
    /// Cards in the group (must be at least 1).
    pub count: usize,
    /// The card design.
    pub design: CardDesign,
    /// The per-card memory interface.
    pub memory: MemorySpec,
}

/// A fleet shape: an ordered list of card groups. The host link is
/// always PCIe Gen4 ×16 ([`MemoryInterface::pcie4_x16`]), matching every
/// fleet the simulator has ever benchmarked.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Card groups; fleet card indices run group by group in this order.
    pub groups: Vec<CardGroupSpec>,
}

impl FleetSpec {
    /// `cards` dual-pipeline FP16 cards on HBM2 —
    /// [`FleetConfig::standard`] as data.
    pub fn standard(cards: usize) -> FleetSpec {
        FleetSpec {
            groups: vec![CardGroupSpec {
                count: cards,
                design: CardDesign::Fp16Dual,
                memory: MemorySpec::Hbm2,
            }],
        }
    }

    /// `fp16_dual` FP16 duals next to `fp32_single` FP32 singles —
    /// [`FleetConfig::mixed_precision`] as data.
    pub fn mixed_precision(fp16_dual: usize, fp32_single: usize) -> FleetSpec {
        FleetSpec {
            groups: vec![
                CardGroupSpec {
                    count: fp16_dual,
                    design: CardDesign::Fp16Dual,
                    memory: MemorySpec::Hbm2,
                },
                CardGroupSpec {
                    count: fp32_single,
                    design: CardDesign::Fp32Single,
                    memory: MemorySpec::Hbm2,
                },
            ],
        }
    }

    /// `cards` FP16 duals behind an explicitly binned memory interface —
    /// the adaptive-width and decode scenarios' contention-rich fleet.
    pub fn binned(cards: usize, bytes_per_sec: f64) -> FleetSpec {
        FleetSpec {
            groups: vec![CardGroupSpec {
                count: cards,
                design: CardDesign::Fp16Dual,
                memory: MemorySpec::BytesPerSec(bytes_per_sec),
            }],
        }
    }

    /// Total cards across all groups.
    pub fn cards(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Instantiates the [`FleetConfig`] this spec describes (panicking
    /// as [`MemorySpec::interface`] does on a bad bandwidth).
    pub fn config(&self) -> FleetConfig {
        FleetConfig {
            groups: self
                .groups
                .iter()
                .map(|g| CardGroup::new(g.count, g.design.config(), g.memory.interface()))
                .collect(),
            host_link: MemoryInterface::pcie4_x16(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([(
            "groups",
            Json::arr(self.groups.iter().map(|g| {
                Json::obj([
                    ("count", Json::Int(g.count as i64)),
                    ("design", Json::Str(g.design.name().into())),
                    ("memory", g.memory.to_json()),
                ])
            })),
        )])
    }
}

/// What the requests are: a seeded shape mix (optionally with token-level
/// decode plans layered on) or multi-turn conversations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// One-shot (or decode-looped) requests drawn from a
    /// [`RequestMix`]. `requests` counts requests.
    Mix {
        /// The shape/class population.
        mix: RequestMix,
        /// Optional decode plans, layered over the unchanged base trace
        /// on a decorrelated substream ([`TrafficSpec::decode_requests`]).
        decode: Option<DecodeMix>,
    },
    /// Open-loop multi-turn conversations ([`SessionTraffic`]).
    /// `requests` counts **sessions**, not turns.
    Sessions {
        /// The conversation population.
        profile: SessionProfile,
    },
}

impl TrafficModel {
    /// A plain one-shot mix with no decode plans.
    pub fn mix(mix: RequestMix) -> TrafficModel {
        TrafficModel::Mix { mix, decode: None }
    }

    fn to_json(self) -> Json {
        match self {
            TrafficModel::Mix { mix, decode } => Json::obj([
                ("kind", Json::Str("mix".into())),
                ("mix", Json::Str(mix.name().into())),
                (
                    "decode",
                    Json::maybe(decode, |d| {
                        Json::obj([
                            ("min_steps", Json::Int(d.min_steps as i64)),
                            ("max_steps", Json::Int(d.max_steps as i64)),
                            ("exit_prob", Json::Num(d.exit_prob)),
                        ])
                    }),
                ),
            ]),
            TrafficModel::Sessions { profile } => Json::obj([
                ("kind", Json::Str("sessions".into())),
                ("min_turns", Json::Int(profile.min_turns as i64)),
                ("max_turns", Json::Int(profile.max_turns as i64)),
                ("think_mean_s", Json::Num(profile.think_mean_s)),
                ("heavy_pct", Json::Int(profile.heavy_pct as i64)),
            ]),
        }
    }
}

/// A dispatch policy, as data. [`build`](PolicySpec::build) instantiates
/// the live policy object (with whatever per-run mutable state it keeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// First-in, first-out ([`Fifo`]).
    Fifo,
    /// Least backlog ([`LeastLoaded`]).
    LeastLoaded,
    /// Smallest service estimate first ([`ShortestJobFirst`]).
    ShortestJobFirst,
    /// Deterministic head-family homes ([`HeadAffinity`]).
    HeadAffinity,
    /// Split-aware least-loaded ([`ShardedLeastLoaded`]).
    ShardedLeastLoaded {
        /// Fan-out cap per request.
        max_shards: usize,
        /// Cost-model adaptive width (`new`) vs always-fan (`fixed`).
        adaptive: bool,
    },
    /// Split-aware SJF ([`ShardedShortestJobFirst`]).
    ShardedShortestJobFirst {
        /// Fan-out cap per request.
        max_shards: usize,
        /// Cost-model adaptive width (`new`) vs always-fan (`fixed`).
        adaptive: bool,
    },
    /// Sticky session→card residency ([`SessionAffinity`]).
    SessionAffinity {
        /// Bound sessions per card before LRU eviction.
        capacity_per_card: usize,
    },
}

impl PolicySpec {
    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn DispatchPolicy> {
        match *self {
            PolicySpec::Fifo => Box::new(Fifo),
            PolicySpec::LeastLoaded => Box::new(LeastLoaded),
            PolicySpec::ShortestJobFirst => Box::new(ShortestJobFirst),
            PolicySpec::HeadAffinity => Box::new(HeadAffinity),
            PolicySpec::ShardedLeastLoaded {
                max_shards,
                adaptive,
            } => Box::new(if adaptive {
                ShardedLeastLoaded::new(max_shards)
            } else {
                ShardedLeastLoaded::fixed(max_shards)
            }),
            PolicySpec::ShardedShortestJobFirst {
                max_shards,
                adaptive,
            } => Box::new(if adaptive {
                ShardedShortestJobFirst::new(max_shards)
            } else {
                ShardedShortestJobFirst::fixed(max_shards)
            }),
            PolicySpec::SessionAffinity { capacity_per_card } => {
                Box::new(SessionAffinity::new(capacity_per_card))
            }
        }
    }

    /// The spec's `kind` string (also the policy family name in JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            PolicySpec::Fifo => "fifo",
            PolicySpec::LeastLoaded => "least-loaded",
            PolicySpec::ShortestJobFirst => "shortest-job-first",
            PolicySpec::HeadAffinity => "head-affinity",
            PolicySpec::ShardedLeastLoaded { .. } => "sharded-least-loaded",
            PolicySpec::ShardedShortestJobFirst { .. } => "sharded-shortest-job-first",
            PolicySpec::SessionAffinity { .. } => "session-affinity",
        }
    }

    fn to_json(self) -> Json {
        let mut pairs = vec![("kind", Json::Str(self.kind().into()))];
        match self {
            PolicySpec::ShardedLeastLoaded {
                max_shards,
                adaptive,
            }
            | PolicySpec::ShardedShortestJobFirst {
                max_shards,
                adaptive,
            } => {
                pairs.push(("max_shards", Json::Int(max_shards as i64)));
                pairs.push(("adaptive", Json::Bool(adaptive)));
            }
            PolicySpec::SessionAffinity { capacity_per_card } => {
                pairs.push(("capacity_per_card", Json::Int(capacity_per_card as i64)));
            }
            _ => {}
        }
        Json::obj(pairs)
    }
}

/// Preemption control, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreemptionSpec {
    /// Never preempt.
    Disabled,
    /// Youngest-victim checkpoint-and-requeue once an interactive
    /// request has waited `threshold_s`.
    AfterWait {
        /// Patience before preempting, seconds; strictly positive and
        /// finite ([`PreemptionControl::validate`]).
        threshold_s: f64,
    },
    /// Cheapest-victim (cost-model-priced) variant.
    CostAware {
        /// Patience before preempting, seconds; strictly positive and
        /// finite ([`PreemptionControl::validate`]).
        threshold_s: f64,
    },
}

impl PreemptionSpec {
    /// Instantiates the [`PreemptionControl`].
    ///
    /// # Panics
    ///
    /// Panics with [`PreemptionControl::validate`]'s diagnostic.
    pub fn control(&self) -> PreemptionControl {
        self.try_control().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Instantiates the [`PreemptionControl`].
    ///
    /// # Errors
    ///
    /// Returns [`PreemptionControl::validate`]'s diagnostic.
    pub fn try_control(&self) -> Result<PreemptionControl, String> {
        let control = match *self {
            PreemptionSpec::Disabled => PreemptionControl::disabled(),
            PreemptionSpec::AfterWait { threshold_s }
            | PreemptionSpec::CostAware { threshold_s } => PreemptionControl {
                wait_threshold_s: Some(threshold_s),
                cost_aware_victims: matches!(self, PreemptionSpec::CostAware { .. }),
            },
        };
        control.validate().map(|()| control)
    }

    fn to_json(self) -> Json {
        match self {
            PreemptionSpec::Disabled => Json::obj([("kind", Json::Str("disabled".into()))]),
            PreemptionSpec::AfterWait { threshold_s } => Json::obj([
                ("kind", Json::Str("after-wait".into())),
                ("threshold_s", Json::Num(threshold_s)),
            ]),
            PreemptionSpec::CostAware { threshold_s } => Json::obj([
                ("kind", Json::Str("cost-aware".into())),
                ("threshold_s", Json::Num(threshold_s)),
            ]),
        }
    }
}

/// One scheduled fault, with its time expressed as a **fraction of the
/// trace's arrival span** (`t0 + at_frac × span`), so the same spec
/// lands faults at the same phase of the traffic pattern at any request
/// count — exactly how the hand-coded fault scenario derived its times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fault time as a fraction of the trace span (0 = first arrival).
    pub at_frac: f64,
    /// Target card (fleet index).
    pub card: usize,
    /// What happens.
    pub kind: FaultKindSpec,
}

/// The kind of scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKindSpec {
    /// The card dies; in-flight shards are evicted and requeued.
    Kill,
    /// The card's calibration stretches by `factor` (absolute, ≥ 1).
    Degrade {
        /// Service-time multiplier.
        factor: f64,
    },
    /// A dead card comes back, dispatchable after `warmup_s`.
    Revive {
        /// Warm-up before the revived card takes work, seconds.
        warmup_s: f64,
    },
}

impl FaultSpec {
    fn to_json(self) -> Json {
        let mut pairs = vec![
            ("at_frac", Json::Num(self.at_frac)),
            ("card", Json::Int(self.card as i64)),
        ];
        match self.kind {
            FaultKindSpec::Kill => pairs.push(("kind", Json::Str("kill".into()))),
            FaultKindSpec::Degrade { factor } => {
                pairs.push(("kind", Json::Str("degrade".into())));
                pairs.push(("factor", Json::Num(factor)));
            }
            FaultKindSpec::Revive { warmup_s } => {
                pairs.push(("kind", Json::Str("revive".into())));
                pairs.push(("warmup_s", Json::Num(warmup_s)));
            }
        }
        Json::obj(pairs)
    }

    /// The fault resolved against a trace whose arrivals start at `t0`
    /// and span `span` seconds.
    fn event(&self, t0: f64, span: f64) -> FaultEvent {
        let kind = match self.kind {
            FaultKindSpec::Kill => FaultKind::Death,
            FaultKindSpec::Degrade { factor } => FaultKind::Degrade { factor },
            FaultKindSpec::Revive { warmup_s } => FaultKind::Revive { warmup_s },
        };
        FaultEvent {
            time: t0 + span * self.at_frac,
            card: self.card,
            kind,
        }
    }
}

/// A complete, declarative description of one serving-simulation cell.
///
/// Everything a sweep or autotuner cell needs lives here as plain data;
/// [`run`](ScenarioSpec::run) assembles the [`Simulation`] builder from
/// it. See the [module docs](self) for the JSON schema and guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// A free-form label (cell name in sweeps, config key in planners).
    pub name: String,
    /// Fleet shape.
    pub fleet: FleetSpec,
    /// The arrival process (of requests, or of session starts).
    pub arrivals: ArrivalProcess,
    /// What arrives.
    pub traffic: TrafficModel,
    /// How work is dispatched.
    pub policy: PolicySpec,
    /// Per-class admission queue caps.
    pub admission: AdmissionControl,
    /// Preemption control.
    pub preemption: PreemptionSpec,
    /// Autoscaler law, or `None` for a statically powered fleet.
    pub autoscale: Option<AutoscalerConfig>,
    /// Scheduled faults (span-relative times), applied in list order.
    pub faults: Vec<FaultSpec>,
    /// How decode remnants re-enter at step boundaries.
    pub batching: DecodeBatching,
    /// The cell's seed: traffic, decode plans, and sessions all derive
    /// their substreams from it.
    pub seed: u64,
    /// Trace size: requests for [`TrafficModel::Mix`], sessions for
    /// [`TrafficModel::Sessions`]. Must be positive.
    pub requests: usize,
}

impl Default for ScenarioSpec {
    /// A minimal valid spec: one standard card, Poisson(1) production
    /// traffic, least-loaded dispatch, every control at its inert
    /// default, 1 request, seed 0.
    fn default() -> ScenarioSpec {
        ScenarioSpec {
            name: String::new(),
            fleet: FleetSpec::standard(1),
            arrivals: ArrivalProcess::poisson(1.0),
            traffic: TrafficModel::mix(RequestMix::Production),
            policy: PolicySpec::LeastLoaded,
            admission: AdmissionControl::admit_all(),
            preemption: PreemptionSpec::Disabled,
            autoscale: None,
            faults: Vec::new(),
            batching: DecodeBatching::Continuous,
            seed: 0,
            requests: 1,
        }
    }
}

impl ScenarioSpec {
    /// Checks the spec: the rules it owns itself, then each component's
    /// own `validate` — the same rule the component's panicking
    /// constructor enforces, so a spec that validates never panics one.
    /// Builds nothing: the fleet and trace are only instantiated by
    /// [`run`](ScenarioSpec::run).
    ///
    /// # Errors
    ///
    /// Returns a human-readable diagnostic naming the offending field —
    /// a fleet with no groups or an empty group, an empty trace, a fault
    /// aimed at a card outside the fleet, or whatever the component
    /// rejects (a non-finite rate, an inverted step range, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.fleet.groups.is_empty() {
            return Err("fleet has no card groups".to_string());
        }
        for (i, g) in self.fleet.groups.iter().enumerate() {
            if g.count == 0 {
                return Err(format!("fleet group {i} has zero cards"));
            }
            if let MemorySpec::BytesPerSec(bps) = g.memory {
                MemoryInterface::try_new(bps).map_err(|e| format!("fleet group {i} memory {e}"))?;
            }
        }
        if self.requests == 0 {
            return Err("requests must be positive (the trace would be empty)".to_string());
        }
        self.arrivals.validate()?;
        match self.traffic {
            TrafficModel::Mix {
                decode: Some(d), ..
            } => d.validate()?,
            TrafficModel::Mix { decode: None, .. } => {}
            TrafficModel::Sessions { profile } => profile.validate()?,
        }
        match self.policy {
            PolicySpec::ShardedLeastLoaded { max_shards, .. }
            | PolicySpec::ShardedShortestJobFirst { max_shards, .. } => {
                validate_max_shards(max_shards)?
            }
            PolicySpec::SessionAffinity {
                capacity_per_card: c,
            } => SessionAffinity::validate_capacity(c)?,
            _ => {}
        }
        self.preemption.try_control()?;
        if let Some(cfg) = &self.autoscale {
            cfg.validate()?;
        }
        for (i, f) in self.faults.iter().enumerate() {
            // Resolved against a unit span from t = 0, a fault is due at its `at_frac`.
            let event = f.event(0.0, 1.0);
            event
                .validate_card(self.fleet.cards())
                .map_err(|e| format!("fault {i} {e}"))?;
            event.validate().map_err(|e| format!("fault {i}: {e}"))?;
        }
        Ok(())
    }

    /// The report's arrivals label — `"{process}/{mix}"` for mix
    /// traffic, `"{process}/sessions"` for conversations; exactly the
    /// labels the hand-coded sweep used.
    pub fn arrivals_label(&self) -> String {
        match &self.traffic {
            TrafficModel::Mix { mix, .. } => self.mix_traffic(*mix).label(),
            TrafficModel::Sessions { .. } => format!("{}/sessions", self.arrivals.name()),
        }
    }

    /// This spec's arrivals and seed drawing shapes from `mix`.
    fn mix_traffic(&self, mix: RequestMix) -> TrafficSpec {
        TrafficSpec {
            arrivals: self.arrivals,
            mix,
            seed: self.seed,
        }
    }

    /// Generates the seeded request trace this spec describes. Call
    /// [`validate`](ScenarioSpec::validate) first.
    pub fn trace(&self) -> Vec<Request> {
        match &self.traffic {
            TrafficModel::Mix { mix, decode } => {
                let spec = self.mix_traffic(*mix);
                match decode {
                    None => spec.requests(self.requests),
                    Some(d) => spec.decode_requests(self.requests, d),
                }
            }
            TrafficModel::Sessions { profile } => SessionTraffic {
                arrivals: self.arrivals,
                profile: *profile,
                seed: self.seed,
            }
            .requests(self.requests),
        }
    }

    /// Resolves the span-relative fault schedule against a generated
    /// trace, in list order (order is observable: the kernel breaks
    /// same-instant fault ties by insertion). Fails if a resolved time
    /// is not finite (a huge `at_frac` on a long trace).
    fn fault_plan(&self, trace: &[Request]) -> Result<FaultPlan, String> {
        let (t0, last) = (trace[0].arrival, trace[trace.len() - 1].arrival);
        let span = last - t0;
        let resolve = |plan: FaultPlan, (i, f): (usize, &FaultSpec)| {
            plan.try_push(f.event(t0, span))
                .map_err(|e| format!("fault {i}: {e}"))
        };
        self.faults
            .iter()
            .enumerate()
            .try_fold(FaultPlan::none(), resolve)
    }

    /// Runs the scenario and returns its report.
    ///
    /// Assembles the [`Simulation`] builder field by field from this
    /// spec, so the report is byte-identical to the hand-built
    /// equivalent — the refactor guarantee `serve_sweep` relies on.
    ///
    /// # Errors
    ///
    /// Returns [`validate`](ScenarioSpec::validate)'s diagnostic if the
    /// spec is invalid, or a diagnostic if its arrival or fault times
    /// overflow to infinity.
    pub fn run(&self) -> Result<ServeReport, String> {
        self.run_profiled().map(|(report, _)| report)
    }

    /// [`run`](ScenarioSpec::run), plus the kernel's self-profiling
    /// counters (for events/sec accounting in sweeps and planners).
    ///
    /// # Errors
    ///
    /// As [`run`](ScenarioSpec::run).
    pub fn run_profiled(&self) -> Result<(ServeReport, KernelCounters), String> {
        self.validate()?;
        let fleet = self.fleet.config();
        let trace = self.trace();
        // Arrival times never decrease, so the last one overflows first.
        let last = trace[trace.len() - 1].arrival;
        if !last.is_finite() {
            return Err(format!("arrival times overflow to {last} s"));
        }
        let plan = self.fault_plan(&trace)?;
        let mut policy = self.policy.build();
        let mut sim = Simulation::new(&fleet)
            .arrivals_label(self.arrivals_label())
            .admission(self.admission)
            .preemption(self.preemption.control())
            .decode_batching(self.batching)
            .faults(plan);
        if let Some(cfg) = self.autoscale {
            sim = sim.autoscale(cfg);
        }
        Ok(sim.run_profiled(&mut *policy, trace))
    }

    /// The spec's JSON representation — see the [module docs](self).
    /// [`from_json`](ScenarioSpec::from_json) inverts it exactly, and
    /// the text form round-trips through [`Json::parse`].
    pub fn to_json(&self) -> Json {
        let caps = &self.admission.queue_caps;
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("fleet", self.fleet.to_json()),
            ("arrivals", arrivals_to_json(&self.arrivals)),
            ("traffic", self.traffic.to_json()),
            ("policy", self.policy.to_json()),
            (
                "admission",
                Json::Obj(
                    RequestClass::ALL
                        .iter()
                        .zip(caps.iter())
                        .map(|(class, cap)| {
                            (
                                class.name().to_string(),
                                Json::maybe(*cap, |c| Json::Int(c as i64)),
                            )
                        })
                        .collect(),
                ),
            ),
            ("preemption", self.preemption.to_json()),
            (
                "autoscale",
                Json::maybe(self.autoscale, |cfg| {
                    Json::obj([
                        ("min_cards", Json::Int(cfg.min_cards as i64)),
                        ("up_queue_per_card", Json::Int(cfg.up_queue_per_card as i64)),
                        ("down_idle_s", Json::Num(cfg.down_idle_s)),
                        ("warmup_s", Json::Num(cfg.warmup_s)),
                    ])
                }),
            ),
            ("faults", Json::arr(self.faults.iter().map(|f| f.to_json()))),
            ("batching", Json::Str(self.batching.name().into())),
            ("seed", Json::UInt(self.seed)),
            ("requests", Json::Int(self.requests as i64)),
        ])
    }

    /// Parses a spec from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the path of the missing, mistyped or
    /// out-of-range field (`traffic.heavy_pct: 300 is out of range for
    /// u8`). The parsed spec is *structurally* sound but not yet
    /// validated — call [`validate`](ScenarioSpec::validate) (or just
    /// [`run`](ScenarioSpec::run), which validates) before trusting the
    /// numbers in it.
    pub fn from_json(json: &Json) -> Result<ScenarioSpec, String> {
        <ScenarioSpec as FromJson>::from_json(json).map_err(|e| e.to_string())
    }
}

fn arrivals_to_json(arrivals: &ArrivalProcess) -> Json {
    match *arrivals {
        ArrivalProcess::Poisson { rate_per_sec } => Json::obj([
            ("kind", Json::Str("poisson".into())),
            ("rate_per_sec", Json::Num(rate_per_sec)),
        ]),
        ArrivalProcess::Bursty {
            base_rate,
            burst_rate,
            mean_burst_s,
            mean_gap_s,
        } => Json::obj([
            ("kind", Json::Str("bursty".into())),
            ("base_rate", Json::Num(base_rate)),
            ("burst_rate", Json::Num(burst_rate)),
            ("mean_burst_s", Json::Num(mean_burst_s)),
            ("mean_gap_s", Json::Num(mean_gap_s)),
        ]),
        ArrivalProcess::Diurnal {
            base_rate,
            peak_rate,
            period_s,
        } => Json::obj([
            ("kind", Json::Str("diurnal".into())),
            ("base_rate", Json::Num(base_rate)),
            ("peak_rate", Json::Num(peak_rate)),
            ("period_s", Json::Num(period_s)),
        ]),
        ArrivalProcess::FlashCrowd {
            base_rate,
            peak_rate,
            onset_s,
            decay_s,
        } => Json::obj([
            ("kind", Json::Str("flash-crowd".into())),
            ("base_rate", Json::Num(base_rate)),
            ("peak_rate", Json::Num(peak_rate)),
            ("onset_s", Json::Num(onset_s)),
            ("decay_s", Json::Num(decay_s)),
        ]),
    }
}

// ---- the spec loader: every type's JSON reader, in schema order ----

/// `FromJson` for a struct stored as one JSON object, each field under
/// its own name.
macro_rules! struct_from_json {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl<'a> FromJson<'a> for $ty {
            fn from_json(json: &'a Json) -> Result<$ty, ReadError> {
                let obj = Fields::from_json(json)?;
                Ok(read_fields!(obj, $ty { $($field),* }))
            }
        }
    )*};
}

struct_from_json! {
    ScenarioSpec {
        name, fleet, arrivals, traffic, policy, admission, preemption, autoscale, faults,
        batching, seed, requests
    }
    FleetSpec { groups }
    CardGroupSpec { count, design, memory }
    DecodeMix { min_steps, max_steps, exit_prob }
    SessionProfile { min_turns, max_turns, think_mean_s, heavy_pct }
    AutoscalerConfig { min_cards, up_queue_per_card, down_idle_s, warmup_s }
}

impl<'a> FromJson<'a> for CardDesign {
    fn from_json(json: &'a Json) -> Result<CardDesign, ReadError> {
        let designs = [CardDesign::Fp16Dual, CardDesign::Fp32Single];
        by_name(json, "card design", &designs, CardDesign::name)
    }
}

impl<'a> FromJson<'a> for MemorySpec {
    fn from_json(json: &'a Json) -> Result<MemorySpec, ReadError> {
        match json {
            Json::Str(s) if s == "hbm2" => Ok(MemorySpec::Hbm2),
            Json::Str(s) => Err(ReadError::unknown("memory spec", s)),
            other => f64::from_json(other).map(MemorySpec::BytesPerSec),
        }
    }
}

impl<'a> FromJson<'a> for ArrivalProcess {
    fn from_json(json: &'a Json) -> Result<ArrivalProcess, ReadError> {
        let obj = Fields::from_json(json)?;
        Ok(match obj.get("kind")? {
            "poisson" => read_fields!(obj, ArrivalProcess::Poisson { rate_per_sec }),
            "bursty" => read_fields! {
                obj, ArrivalProcess::Bursty { base_rate, burst_rate, mean_burst_s, mean_gap_s }
            },
            "diurnal" => read_fields! {
                obj, ArrivalProcess::Diurnal { base_rate, peak_rate, period_s }
            },
            "flash-crowd" => read_fields! {
                obj, ArrivalProcess::FlashCrowd { base_rate, peak_rate, onset_s, decay_s }
            },
            other => return Err(ReadError::unknown("arrival kind", other)),
        })
    }
}

impl<'a> FromJson<'a> for TrafficModel {
    fn from_json(json: &'a Json) -> Result<TrafficModel, ReadError> {
        let obj = Fields::from_json(json)?;
        Ok(match obj.get("kind")? {
            "mix" => read_fields!(obj, TrafficModel::Mix { mix, decode }),
            // A session profile's fields sit beside `kind`.
            "sessions" => TrafficModel::Sessions {
                profile: SessionProfile::from_json(json)?,
            },
            other => return Err(ReadError::unknown("traffic kind", other)),
        })
    }
}

impl<'a> FromJson<'a> for RequestMix {
    fn from_json(json: &'a Json) -> Result<RequestMix, ReadError> {
        by_name(json, "request mix", &RequestMix::ALL, RequestMix::name)
    }
}

impl<'a> FromJson<'a> for PolicySpec {
    fn from_json(json: &'a Json) -> Result<PolicySpec, ReadError> {
        let obj = Fields::from_json(json)?;
        Ok(match obj.get("kind")? {
            "fifo" => PolicySpec::Fifo,
            "least-loaded" => PolicySpec::LeastLoaded,
            "shortest-job-first" => PolicySpec::ShortestJobFirst,
            "head-affinity" => PolicySpec::HeadAffinity,
            "sharded-least-loaded" => read_fields! {
                obj, PolicySpec::ShardedLeastLoaded { max_shards, adaptive }
            },
            "sharded-shortest-job-first" => read_fields! {
                obj, PolicySpec::ShardedShortestJobFirst { max_shards, adaptive }
            },
            "session-affinity" => {
                read_fields!(obj, PolicySpec::SessionAffinity { capacity_per_card })
            }
            other => return Err(ReadError::unknown("policy kind", other)),
        })
    }
}

impl<'a> FromJson<'a> for AdmissionControl {
    fn from_json(json: &'a Json) -> Result<AdmissionControl, ReadError> {
        let obj = Fields::from_json(json)?;
        let mut admission = AdmissionControl::admit_all();
        for (cap, class) in admission.queue_caps.iter_mut().zip(RequestClass::ALL) {
            *cap = obj.get(class.name())?;
        }
        Ok(admission)
    }
}

impl<'a> FromJson<'a> for PreemptionSpec {
    fn from_json(json: &'a Json) -> Result<PreemptionSpec, ReadError> {
        let obj = Fields::from_json(json)?;
        Ok(match obj.get("kind")? {
            "disabled" => PreemptionSpec::Disabled,
            "after-wait" => read_fields!(obj, PreemptionSpec::AfterWait { threshold_s }),
            "cost-aware" => read_fields!(obj, PreemptionSpec::CostAware { threshold_s }),
            other => return Err(ReadError::unknown("preemption kind", other)),
        })
    }
}

impl<'a> FromJson<'a> for FaultSpec {
    fn from_json(json: &'a Json) -> Result<FaultSpec, ReadError> {
        let obj = Fields::from_json(json)?;
        let kind = match obj.get("kind")? {
            "kill" => FaultKindSpec::Kill,
            "degrade" => read_fields!(obj, FaultKindSpec::Degrade { factor }),
            "revive" => read_fields!(obj, FaultKindSpec::Revive { warmup_s }),
            other => return Err(ReadError::unknown("fault kind", other)),
        };
        let (at_frac, card) = (obj.get("at_frac")?, obj.get("card")?);
        Ok(FaultSpec {
            at_frac,
            card,
            kind,
        })
    }
}

impl<'a> FromJson<'a> for DecodeBatching {
    fn from_json(json: &'a Json) -> Result<DecodeBatching, ReadError> {
        let modes = [DecodeBatching::Continuous, DecodeBatching::WholeJob];
        by_name(json, "batching mode", &modes, DecodeBatching::name)
    }
}

/// Reads a string naming one of `values` (by `name`).
fn by_name<T: Copy>(
    json: &Json,
    what: &str,
    values: &[T],
    name: fn(&T) -> &'static str,
) -> Result<T, ReadError> {
    let wanted = <&str>::from_json(json)?;
    let found = values.iter().find(|v| name(v) == wanted);
    found
        .copied()
        .ok_or_else(|| ReadError::unknown(what, wanted))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit".to_string(),
            fleet: FleetSpec::mixed_precision(2, 1),
            arrivals: ArrivalProcess::bursty(4.0),
            traffic: TrafficModel::Mix {
                mix: RequestMix::Production,
                decode: Some(DecodeMix {
                    min_steps: 2,
                    max_steps: 4,
                    exit_prob: 0.25,
                }),
            },
            policy: PolicySpec::ShardedShortestJobFirst {
                max_shards: 4,
                adaptive: true,
            },
            admission: AdmissionControl::shed_background_at(16),
            preemption: PreemptionSpec::AfterWait { threshold_s: 0.2 },
            autoscale: Some(AutoscalerConfig::standard().with_min_cards(2)),
            faults: vec![
                FaultSpec {
                    at_frac: 0.4,
                    card: 0,
                    kind: FaultKindSpec::Kill,
                },
                FaultSpec {
                    at_frac: 0.7,
                    card: 0,
                    kind: FaultKindSpec::Revive { warmup_s: 2.0 },
                },
            ],
            batching: DecodeBatching::WholeJob,
            seed: 0x5EED,
            requests: 50,
        }
    }

    #[test]
    fn json_round_trips_through_text() {
        let spec = spec();
        let text = spec.to_json().pretty();
        let back = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn spec_run_matches_the_hand_built_simulation() {
        // The DSL's whole contract: a spec's run() is byte-identical to
        // assembling the builder by hand.
        let spec = ScenarioSpec {
            name: "parity".to_string(),
            fleet: FleetSpec::standard(2),
            arrivals: ArrivalProcess::bursty(2.5),
            traffic: TrafficModel::mix(RequestMix::Production),
            preemption: PreemptionSpec::AfterWait { threshold_s: 0.1 },
            seed: 0x5EED,
            requests: 200,
            ..ScenarioSpec::default()
        };
        let by_spec = spec.run().unwrap();
        let fleet = FleetConfig::standard(2);
        let traffic = TrafficSpec {
            arrivals: ArrivalProcess::bursty(2.5),
            mix: RequestMix::Production,
            seed: 0x5EED,
        };
        let by_hand = Simulation::new(&fleet)
            .arrivals_label("bursty/production")
            .preemption(PreemptionControl::after_wait(0.1))
            .run(&mut LeastLoaded, &traffic.requests(200));
        assert_eq!(by_spec.to_json().pretty(), by_hand.to_json().pretty());
    }

    #[test]
    fn invalid_specs_are_rejected_with_diagnostics() {
        let zero_cards = ScenarioSpec {
            fleet: FleetSpec { groups: vec![] },
            ..ScenarioSpec::default()
        };
        let err = zero_cards.run().unwrap_err();
        assert!(err.contains("no card groups"), "{err}");

        let zero_group = ScenarioSpec {
            fleet: FleetSpec::standard(0),
            ..ScenarioSpec::default()
        };
        let err = zero_group.run().unwrap_err();
        assert!(err.contains("zero cards"), "{err}");

        let empty_trace = ScenarioSpec {
            requests: 0,
            ..ScenarioSpec::default()
        };
        let err = empty_trace.run().unwrap_err();
        assert!(err.contains("requests must be positive"), "{err}");

        let bad_rate = ScenarioSpec {
            arrivals: ArrivalProcess::poisson(f64::NAN),
            ..ScenarioSpec::default()
        };
        let err = bad_rate.run().unwrap_err();
        assert!(err.contains("rate_per_sec"), "{err}");

        let stray_fault = ScenarioSpec {
            faults: vec![FaultSpec {
                at_frac: 0.5,
                card: 9,
                kind: FaultKindSpec::Kill,
            }],
            ..ScenarioSpec::default()
        };
        let err = stray_fault.run().unwrap_err();
        assert!(err.contains("9"), "{err}");

        let bad_exit = ScenarioSpec {
            traffic: TrafficModel::Mix {
                mix: RequestMix::Interactive,
                decode: Some(DecodeMix {
                    min_steps: 1,
                    max_steps: 4,
                    exit_prob: 1.5,
                }),
            },
            ..ScenarioSpec::default()
        };
        let err = bad_exit.run().unwrap_err();
        assert!(err.contains("exit_prob"), "{err}");
    }

    #[test]
    fn from_json_names_the_path_of_a_bad_field() {
        let load_with_faults = |faults: Json| {
            let mut json = spec().to_json();
            if let Json::Obj(pairs) = &mut json {
                pairs.iter_mut().find(|(k, _)| k == "faults").unwrap().1 = faults;
            }
            ScenarioSpec::from_json(&json).unwrap_err()
        };
        let kill = spec().faults[0].to_json();
        let revive = Json::obj([("kind", Json::Str("revive".into()))]);
        assert_eq!(
            load_with_faults(Json::arr([kill.clone(), revive])),
            "faults[1].warmup_s: missing field"
        );
        assert_eq!(
            load_with_faults(Json::arr([kill, Json::Int(-1)])),
            "faults[1]: expected an object, got Int(-1)"
        );
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let mut json = spec().to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "policy");
        }
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.contains("policy"), "{err}");
    }
}
