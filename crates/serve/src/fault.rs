//! Seeded fault plans: card deaths, calibration degradation, revival.
//!
//! A [`FaultPlan`] is a declarative schedule of hardware faults injected
//! into a run via [`Simulation::faults`](crate::sim::Simulation::faults).
//! Faults become first-class kernel events — pushed into the same
//! deterministic heap as arrivals and completions, ordered after every
//! other kind at an equal instant — so a faulted run is exactly as
//! seeded and byte-reproducible as a healthy one. The plan is built
//! either explicitly ([`FaultPlan::kill`]/[`FaultPlan::degrade`]/
//! [`FaultPlan::revive`]) or drawn from a seeded generator
//! ([`FaultPlan::storm`]) for chaos testing.
//!
//! Semantics at delivery (see `sim.rs` for the mechanics):
//!
//! - **Death** loses every in-flight shard on the card. Each shard's
//!   checkpointed jobs survive (checkpoints live off-card, the same
//!   durability preemption assumes) and its unfinished tail requeues as
//!   a remnant through the existing preemption/remnant machinery, owing
//!   one restart penalty. The card stops accruing powered/idle time and
//!   no policy can route to it. Killing an already-dead card is a no-op.
//! - **Degrade** multiplies the card's calibrated service times by a
//!   factor ≥ 1 from the next admission on (in-flight work keeps its
//!   admitted finish time). The fleet's shared
//!   [`CostModel`](crate::cost::CostModel) is re-snapshotted at delivery
//!   so planners and admission keep charging identical floats. Degrading a dead
//!   card still shifts its calibration — it serves slower if revived.
//! - **Revive** returns a dead card to service cold (residency lost),
//!   after the same warm-up an autoscaler wake pays. Reviving a live
//!   card is a no-op.

use swat_numeric::SplitMix64;

/// What a scheduled fault does to its card.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The card fails: in-flight shards lost, capacity gone.
    Death,
    /// The card's calibration shifts: service times stretch by `factor`.
    Degrade {
        /// Service-time multiplier (finite, ≥ 1).
        factor: f64,
    },
    /// A dead card returns to service cold after `warmup_s`.
    Revive {
        /// Seconds before the revived card is dispatchable.
        warmup_s: f64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time the fault fires (clamped to the first arrival if
    /// earlier — a fault cannot precede the trace).
    pub time: f64,
    /// The card it hits.
    pub card: usize,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Checks the fault's own parameters.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if the time is negative or not finite, a
    /// degrade factor is below 1 or not finite, or a revival warm-up is
    /// negative or not finite.
    pub fn validate(&self) -> Result<(), String> {
        let non_negative = |what: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                return Ok(());
            }
            Err(format!("{what} must be non-negative and finite, got {v}"))
        };
        non_negative("fault times", self.time)?;
        match self.kind {
            FaultKind::Degrade { factor } if !(factor.is_finite() && factor >= 1.0) => Err(
                format!("degrade factors must be finite and at least 1, got {factor}"),
            ),
            FaultKind::Revive { warmup_s } => non_negative("revival warm-up", warmup_s),
            _ => Ok(()),
        }
    }

    /// Checks the fault names a card of a `cards`-card fleet.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the card if it is outside the fleet.
    pub fn validate_card(&self, cards: usize) -> Result<(), String> {
        if self.card >= cards {
            return Err(format!("names card {} of a {cards}-card fleet", self.card));
        }
        Ok(())
    }
}

/// A declarative, seeded schedule of faults for one run.
///
/// # Examples
///
/// ```
/// use swat_serve::fault::FaultPlan;
///
/// let plan = FaultPlan::none()
///     .degrade(0.5, 1, 1.8)
///     .kill(1.0, 0)
///     .revive(3.0, 0, 2.0);
/// assert_eq!(plan.events().len(), 3);
/// assert!(FaultPlan::none().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a run under it is bitwise identical to a run with
    /// no plan at all (the zero-fault reduction test pins this).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled faults, in insertion order (the kernel heap orders
    /// delivery by time regardless).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Schedules the death of `card` at `time`.
    ///
    /// # Panics
    ///
    /// Panics with [`FaultEvent::validate`]'s diagnostic.
    pub fn kill(self, time: f64, card: usize) -> FaultPlan {
        self.push(time, card, FaultKind::Death)
    }

    /// Schedules a calibration shift of `card` to `factor`× at `time`.
    /// Factors are absolute, not cumulative: a later degrade event
    /// replaces the card's current factor.
    ///
    /// # Panics
    ///
    /// Panics with [`FaultEvent::validate`]'s diagnostic.
    pub fn degrade(self, time: f64, card: usize, factor: f64) -> FaultPlan {
        self.push(time, card, FaultKind::Degrade { factor })
    }

    /// Schedules the revival of `card` at `time`, dispatchable after
    /// `warmup_s` more seconds.
    ///
    /// # Panics
    ///
    /// Panics with [`FaultEvent::validate`]'s diagnostic.
    pub fn revive(self, time: f64, card: usize, warmup_s: f64) -> FaultPlan {
        self.push(time, card, FaultKind::Revive { warmup_s })
    }

    fn push(self, time: f64, card: usize, kind: FaultKind) -> FaultPlan {
        self.try_push(FaultEvent { time, card, kind })
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Appends `event` to the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`FaultEvent::validate`]'s diagnostic instead of scheduling
    /// an invalid fault.
    pub fn try_push(mut self, event: FaultEvent) -> Result<FaultPlan, String> {
        event.validate()?;
        self.events.push(event);
        Ok(self)
    }

    /// A seeded fault storm for chaos testing: `n` faults drawn over
    /// `[0, horizon)` across a fleet of `cards`. Roughly half are
    /// degrades (factor in `[1, 3)`), the rest deaths; every death is
    /// followed by a revival half-way to the horizon later (so storms
    /// exercise recovery, not just attrition). Same seed, same storm.
    ///
    /// # Panics
    ///
    /// Panics if `cards` is zero or `horizon` is not positive and finite.
    pub fn storm(seed: u64, cards: usize, horizon: f64, n: usize) -> FaultPlan {
        assert!(cards > 0, "a storm needs at least one card");
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "storm horizon must be positive and finite"
        );
        let mut rng = SplitMix64::new(seed ^ 0x0FA0_17ED);
        let unit =
            |rng: &mut SplitMix64| (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut plan = FaultPlan::none();
        for _ in 0..n {
            let time = unit(&mut rng) * horizon;
            let card = (rng.next_u64() % cards as u64) as usize;
            if rng.next_u64().is_multiple_of(2) {
                let factor = 1.0 + 2.0 * unit(&mut rng);
                plan = plan.degrade(time, card, factor);
            } else {
                plan = plan.kill(time, card);
                plan = plan.revive(time + horizon * 0.5, card, 2.0);
            }
        }
        plan
    }

    /// Validates every scheduled card index against a fleet of `cards`.
    ///
    /// # Panics
    ///
    /// Panics with [`FaultEvent::validate_card`]'s diagnostic.
    pub fn validate(&self, cards: usize) {
        for e in &self.events {
            if let Err(problem) = e.validate_card(cards) {
                panic!("fault at t={} {problem}", e.time);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_in_order() {
        let plan = FaultPlan::none()
            .kill(1.0, 2)
            .degrade(0.5, 0, 2.0)
            .revive(4.0, 2, 1.0);
        assert_eq!(plan.events().len(), 3);
        assert_eq!(plan.events()[0].kind, FaultKind::Death);
        assert_eq!(plan.events()[1].kind, FaultKind::Degrade { factor: 2.0 });
        assert_eq!(plan.events()[2].kind, FaultKind::Revive { warmup_s: 1.0 });
        assert!(!plan.is_empty());
        plan.validate(3);
    }

    #[test]
    fn storms_are_seeded_and_deterministic() {
        let a = FaultPlan::storm(9, 4, 10.0, 6);
        let b = FaultPlan::storm(9, 4, 10.0, 6);
        assert_eq!(a, b);
        let c = FaultPlan::storm(10, 4, 10.0, 6);
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(
            a.events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::Death))
                .count(),
            a.events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::Revive { .. }))
                .count(),
            "every storm death schedules a revival"
        );
        for e in a.events() {
            assert!(e.card < 4);
            assert!(e.time >= 0.0 && e.time < 15.0);
            if let FaultKind::Degrade { factor } = e.kind {
                assert!((1.0..3.0).contains(&factor));
            }
        }
        a.validate(4);
    }

    #[test]
    #[should_panic(expected = "names card 5")]
    fn validation_rejects_out_of_fleet_cards() {
        FaultPlan::none().kill(1.0, 5).validate(3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn speedup_degrades_rejected() {
        let _ = FaultPlan::none().degrade(0.0, 0, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn negative_fault_times_rejected() {
        let _ = FaultPlan::none().kill(-1.0, 0);
    }
}
