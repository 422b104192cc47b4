//! Session-stateful traffic: multi-turn conversations over an arrival
//! process.
//!
//! [`SessionTraffic`] composes three existing pieces into a conversation
//! trace: an [`ArrivalProcess`] supplies when each **session** starts
//! (not each request), a [`SessionProfile`] draws each session's shape —
//! turn count, heavy-tenant membership, per-turn context growth — and a
//! per-session [`SplitMix64`] substream spaces the turns with
//! exponential think-time gaps. Turn arrivals are **open-loop**: turn
//! `k+1` arrives a think-time after turn `k`'s *arrival*, not its
//! completion, so the trace is a pure function of `(arrivals, profile,
//! seed)` and two runs under different policies, fault plans, or fleet
//! sizes see byte-identical traffic — the property every A/B comparison
//! and chaos reduction test in this crate leans on.
//!
//! The flattened trace is sorted by arrival time and re-numbered with
//! sequential ids (the simulator's queue discipline keys on id within a
//! class), while each request keeps its 1-based session tag for the
//! affinity policy ([`crate::policy::SessionAffinity`]) and the
//! per-session fairness block in the report
//! ([`crate::metrics::SessionSummary`]).

use crate::arrival::{exp_sample, ArrivalProcess};
use crate::request::Request;
use swat_numeric::SplitMix64;
pub use swat_workloads::SessionProfile;

/// Seed-substream tag for the per-session randomness, keeping session
/// draws independent of the arrival process's own substream.
const SESSION_STREAM: u64 = 0x5E55_10A5;

/// A seeded conversation-trace generator. See the module docs for the
/// open-loop arrival model.
///
/// # Examples
///
/// ```
/// use swat_serve::arrival::ArrivalProcess;
/// use swat_serve::session::{SessionProfile, SessionTraffic};
///
/// let traffic = SessionTraffic {
///     arrivals: ArrivalProcess::poisson(10.0),
///     profile: SessionProfile::standard(),
///     seed: 7,
/// };
/// let requests = traffic.requests(50);
/// assert!(requests.len() >= 100, "2+ turns per session");
/// assert!(requests.iter().all(|r| r.session >= 1));
/// assert_eq!(requests, traffic.requests(50), "same seed, same trace");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionTraffic {
    /// When sessions (conversations) begin.
    pub arrivals: ArrivalProcess,
    /// How sessions are shaped once begun.
    pub profile: SessionProfile,
    /// Master seed; session substreams derive from it.
    pub seed: u64,
}

impl SessionTraffic {
    /// Generates the full request trace for the first `sessions`
    /// conversations: arrival-sorted, sequentially numbered, each request
    /// tagged with its 1-based session id.
    pub fn requests(&self, sessions: usize) -> Vec<Request> {
        self.profile.validate().unwrap_or_else(|e| panic!("{e}"));
        let starts = self.arrivals.times(sessions, self.seed);
        let mut master = SplitMix64::new(self.seed ^ SESSION_STREAM);
        let mut trace: Vec<Request> = Vec::new();
        for (i, &start) in starts.iter().enumerate() {
            let session = (i + 1) as u64;
            // One substream per session: a session's turn shapes do not
            // depend on how many turns its predecessors drew.
            let mut rng = SplitMix64::new(master.next_u64());
            let turn_count = self.profile.draw_turns(&mut rng);
            let heavy = self.profile.draw_heavy(&mut rng);
            let mut t = start;
            for turn in 0..turn_count {
                let (shape, class) = self.profile.turn_shape(&mut rng, heavy, turn);
                let drawn = trace.len() as u64;
                trace.push(Request::classed(drawn, t, shape, class).with_session(session));
                t += exp_sample(&mut rng, 1.0 / self.profile.think_mean_s);
            }
        }
        // Arrival order, with (session, turn) as a total tie-break so the
        // sort — and therefore the id assignment — is deterministic even
        // under exact arrival-time collisions. Ids hold draw order until
        // here, which within a session is turn order; the key is unique,
        // so the unstable sort (no scratch buffer) orders as a stable one.
        trace.sort_unstable_by(|a, b| {
            (a.arrival.total_cmp(&b.arrival)).then((a.session, a.id).cmp(&(b.session, b.id)))
        });
        trace.iter_mut().zip(0..).for_each(|(r, id)| r.id = id);
        trace
    }

    /// The same trace with every session tag stripped — identical ids,
    /// arrivals, shapes, and classes, but `session == 0` throughout. The
    /// control arm for affinity experiments and the reduction tests that
    /// pin "sessions off" to the historical sessionless output.
    pub fn requests_sessionless(&self, sessions: usize) -> Vec<Request> {
        self.requests(sessions)
            .into_iter()
            .map(|r| r.with_session(0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swat_workloads::RequestClass;

    fn traffic(seed: u64) -> SessionTraffic {
        SessionTraffic {
            arrivals: ArrivalProcess::poisson(20.0),
            profile: SessionProfile::standard(),
            seed,
        }
    }

    #[test]
    fn traces_are_deterministic_sorted_and_numbered() {
        let a = traffic(9).requests(100);
        let b = traffic(9).requests(100);
        assert_eq!(a, b);
        assert_ne!(a, traffic(10).requests(100), "varies with seed");
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i as u64, "sequential ids after the sort");
        }
        assert!(
            a.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "arrival-sorted"
        );
    }

    /// Building final requests in place and sorting them unstably gives
    /// the trace that stable-sorting `(arrival, session, turn)` tuples and
    /// numbering afterwards gives.
    #[test]
    fn in_place_build_matches_the_tuple_sort() {
        let t = traffic(11);
        let mut master = SplitMix64::new(t.seed ^ SESSION_STREAM);
        let mut turns = Vec::new();
        for (i, &start) in t.arrivals.times(200, t.seed).iter().enumerate() {
            let mut rng = SplitMix64::new(master.next_u64());
            let turn_count = t.profile.draw_turns(&mut rng);
            let heavy = t.profile.draw_heavy(&mut rng);
            let mut at = start;
            for turn in 0..turn_count {
                let (shape, class) = t.profile.turn_shape(&mut rng, heavy, turn);
                turns.push((at, (i + 1) as u64, turn, shape, class));
                at += exp_sample(&mut rng, 1.0 / t.profile.think_mean_s);
            }
        }
        turns.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let reference: Vec<Request> = (turns.into_iter().enumerate())
            .map(|(id, (arrival, session, _, shape, class))| {
                Request::classed(id as u64, arrival, shape, class).with_session(session)
            })
            .collect();
        assert_eq!(t.requests(200), reference);
    }

    #[test]
    fn sessions_are_contiguous_with_bounded_turns() {
        let p = SessionProfile::standard();
        let requests = traffic(3).requests(60);
        let mut turn_counts = vec![0usize; 61];
        for r in &requests {
            assert!((1..=60).contains(&(r.session as usize)));
            turn_counts[r.session as usize] += 1;
        }
        for (s, &n) in turn_counts.iter().enumerate().skip(1) {
            assert!(
                (p.min_turns..=p.max_turns).contains(&n),
                "session {s} drew {n} turns"
            );
        }
    }

    #[test]
    fn turns_within_a_session_are_spaced_by_think_time() {
        let requests = traffic(5).requests(40);
        for s in 1..=40u64 {
            let times: Vec<f64> = requests
                .iter()
                .filter(|r| r.session == s)
                .map(|r| r.arrival)
                .collect();
            assert!(
                times.windows(2).all(|w| w[1] > w[0]),
                "session {s} turns strictly ordered"
            );
        }
    }

    #[test]
    fn heavy_tenants_carry_batch_class_and_interactive_sessions_do_not() {
        let requests = traffic(11).requests(200);
        // Within one session the class never changes, and the two
        // populations both occur at the standard 10% heavy share.
        let mut classes: Vec<Option<RequestClass>> = vec![None; 201];
        for r in &requests {
            let slot = &mut classes[r.session as usize];
            match slot {
                None => *slot = Some(r.class),
                Some(c) => assert_eq!(*c, r.class, "class is a session property"),
            }
        }
        let heavy = classes
            .iter()
            .flatten()
            .filter(|&&c| c == RequestClass::Batch)
            .count();
        assert!(heavy > 0, "some heavy tenants at 10%");
        assert!(heavy < 80, "heavy tenants stay the minority: {heavy}");
    }

    #[test]
    fn sessionless_variant_differs_only_in_tags() {
        let tagged = traffic(13).requests(30);
        let plain = traffic(13).requests_sessionless(30);
        assert_eq!(tagged.len(), plain.len());
        for (a, b) in tagged.iter().zip(&plain) {
            assert_eq!(b.session, 0);
            assert_eq!(a.with_session(0), *b, "everything else identical");
        }
    }

    #[test]
    fn flash_crowd_sessions_compose() {
        let crowd = SessionTraffic {
            arrivals: ArrivalProcess::flash_crowd(5.0, 100.0, 10.0, 3.0),
            profile: SessionProfile::standard(),
            seed: 21,
        };
        let requests = crowd.requests(80);
        assert!(requests.len() >= 160);
        // The crowd of session *starts* lands after the onset: more
        // first-turns in [10, 15) than in [5, 10).
        let sessions_started = |lo: f64, hi: f64| {
            let mut seen = std::collections::BTreeSet::new();
            for r in requests
                .iter()
                .filter(|r| r.arrival >= lo && r.arrival < hi)
            {
                seen.insert(r.session);
            }
            seen.len()
        };
        assert!(sessions_started(10.0, 15.0) > sessions_started(5.0, 10.0));
    }
}
