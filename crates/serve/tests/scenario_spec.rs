//! Property tests for the declarative scenario DSL: any valid
//! [`ScenarioSpec`] round-trips exactly through its JSON text, `run()`
//! is byte-deterministic across double runs, and invalid specs come
//! back as diagnostics, never panics.

use proptest::prelude::*;
use swat_serve::arrival::ArrivalProcess;
use swat_serve::json::Json;
use swat_serve::scale::AutoscalerConfig;
use swat_serve::scenario::{
    CardDesign, CardGroupSpec, FaultKindSpec, FaultSpec, FleetSpec, MemorySpec, PolicySpec,
    PreemptionSpec, ScenarioSpec, TrafficModel,
};
use swat_serve::sim::{AdmissionControl, DecodeBatching};
use swat_workloads::{DecodeMix, RequestMix, SessionProfile};

/// `Option` strategy: the vendored proptest subset has no
/// `prop::option`, so build it from a one-of.
fn maybe<S>(inner: S) -> BoxedStrategy<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), inner.prop_map(Some)].boxed()
}

fn any_fleet() -> impl Strategy<Value = FleetSpec> {
    proptest::collection::vec(
        (
            1usize..3,
            prop_oneof![Just(CardDesign::Fp16Dual), Just(CardDesign::Fp32Single)],
            prop_oneof![
                Just(MemorySpec::Hbm2),
                (1e8f64..1e10).prop_map(MemorySpec::BytesPerSec),
            ],
        )
            .prop_map(|(count, design, memory)| CardGroupSpec {
                count,
                design,
                memory,
            }),
        1..3,
    )
    .prop_map(|groups| FleetSpec { groups })
}

fn any_arrivals() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (0.5f64..50.0).prop_map(ArrivalProcess::poisson),
        (0.5f64..20.0).prop_map(ArrivalProcess::bursty),
        // Peak at least base by construction, so every draw validates.
        (0.5f64..10.0, 1.0f64..4.0)
            .prop_map(|(base, over)| ArrivalProcess::diurnal(base, base * over)),
        (0.5f64..10.0, 1.0f64..4.0, 1.0f64..60.0, 1.0f64..20.0).prop_map(
            |(base, over, onset, decay)| ArrivalProcess::flash_crowd(
                base,
                base * over,
                onset,
                decay
            )
        ),
    ]
}

fn any_traffic() -> impl Strategy<Value = TrafficModel> {
    prop_oneof![
        (
            prop_oneof![
                Just(RequestMix::Interactive),
                Just(RequestMix::Document),
                Just(RequestMix::Batch),
                Just(RequestMix::Production),
            ],
            maybe(
                (1u32..4, 0u32..5, 0.0f64..0.9).prop_map(|(min_steps, extra, exit_prob)| {
                    DecodeMix {
                        min_steps,
                        max_steps: min_steps + extra,
                        exit_prob,
                    }
                })
            )
        )
            .prop_map(|(mix, decode)| TrafficModel::Mix { mix, decode }),
        (1usize..3, 0usize..6, 0.5f64..5.0, 0u8..51).prop_map(
            |(min_turns, extra, think_mean_s, heavy_pct)| TrafficModel::Sessions {
                profile: SessionProfile {
                    min_turns,
                    max_turns: min_turns + extra,
                    think_mean_s,
                    heavy_pct,
                },
            }
        ),
    ]
}

fn any_policy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::Fifo),
        Just(PolicySpec::LeastLoaded),
        Just(PolicySpec::ShortestJobFirst),
        Just(PolicySpec::HeadAffinity),
        (1usize..5, any::<bool>()).prop_map(|(max_shards, adaptive)| {
            PolicySpec::ShardedLeastLoaded {
                max_shards,
                adaptive,
            }
        }),
        (1usize..5, any::<bool>()).prop_map(|(max_shards, adaptive)| {
            PolicySpec::ShardedShortestJobFirst {
                max_shards,
                adaptive,
            }
        }),
        (1usize..65)
            .prop_map(|capacity_per_card| PolicySpec::SessionAffinity { capacity_per_card }),
    ]
}

fn any_admission() -> impl Strategy<Value = AdmissionControl> {
    proptest::collection::vec(maybe(1usize..64), 3).prop_map(|caps| {
        let mut admission = AdmissionControl::admit_all();
        admission.queue_caps.copy_from_slice(&caps);
        admission
    })
}

fn any_preemption() -> impl Strategy<Value = PreemptionSpec> {
    prop_oneof![
        Just(PreemptionSpec::Disabled),
        (0.0f64..1.0).prop_map(|threshold_s| PreemptionSpec::AfterWait { threshold_s }),
        (0.0f64..1.0).prop_map(|threshold_s| PreemptionSpec::CostAware { threshold_s }),
    ]
}

fn any_autoscale() -> impl Strategy<Value = Option<AutoscalerConfig>> {
    maybe((1usize..4, 1usize..8, 0.0f64..30.0, 0.0f64..5.0).prop_map(
        |(min_cards, up_queue_per_card, down_idle_s, warmup_s)| AutoscalerConfig {
            min_cards,
            up_queue_per_card,
            down_idle_s,
            warmup_s,
        },
    ))
}

/// Faults target card 0, which every generated fleet has; times are span
/// fractions, valid at any trace length.
fn any_faults() -> impl Strategy<Value = Vec<FaultSpec>> {
    proptest::collection::vec(
        (
            0.0f64..1.0,
            prop_oneof![
                Just(FaultKindSpec::Kill),
                (1.0f64..4.0).prop_map(|factor| FaultKindSpec::Degrade { factor }),
                (0.0f64..5.0).prop_map(|warmup_s| FaultKindSpec::Revive { warmup_s }),
            ],
        )
            .prop_map(|(at_frac, kind)| FaultSpec {
                at_frac,
                card: 0,
                kind,
            }),
        0..3,
    )
}

fn any_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (
            any::<u16>(),
            any_fleet(),
            any_arrivals(),
            any_traffic(),
            any_policy(),
        ),
        (any_admission(), any_preemption(), any_autoscale()),
        (any_faults(), any::<bool>(), any::<u64>(), 1usize..40),
    )
        .prop_map(
            |(
                (name_tag, fleet, arrivals, traffic, policy),
                (admission, preemption, autoscale),
                (faults, whole_job, seed, requests),
            )| ScenarioSpec {
                name: format!("spec-{name_tag}"),
                fleet,
                arrivals,
                traffic,
                policy,
                admission,
                preemption,
                autoscale,
                faults,
                batching: if whole_job {
                    DecodeBatching::WholeJob
                } else {
                    DecodeBatching::Continuous
                },
                seed,
                requests,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every valid spec validates, and survives spec → JSON → text →
    /// JSON → spec exactly — including a second hop through the printed
    /// bytes, so the text form is a faithful interchange format.
    #[test]
    fn valid_specs_round_trip_through_json_text(spec in any_spec()) {
        prop_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        let text = spec.to_json().pretty();
        let parsed = Json::parse(&text).expect("writer output parses");
        let back = ScenarioSpec::from_json(&parsed).expect("parsed spec loads");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json().pretty(), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Running the same spec twice gives byte-identical reports: the DSL
    /// adds no hidden state over the simulator's seeded determinism.
    #[test]
    fn run_is_byte_deterministic(spec in any_spec()) {
        let first = spec.run().expect("generated specs are valid");
        let second = spec.run().expect("generated specs are valid");
        prop_assert_eq!(first.to_json().pretty(), second.to_json().pretty());
        prop_assert_eq!(first.offered, second.offered);
    }
}

#[test]
fn zero_card_fleet_is_a_diagnostic_not_a_panic() {
    let spec = ScenarioSpec {
        fleet: FleetSpec { groups: Vec::new() },
        ..ScenarioSpec::default()
    };
    let err = spec.run().unwrap_err();
    assert!(err.contains("no card groups"), "{err}");
}

#[test]
fn empty_mix_is_a_diagnostic_not_a_panic() {
    let spec = ScenarioSpec {
        requests: 0,
        ..ScenarioSpec::default()
    };
    let err = spec.run().unwrap_err();
    assert!(err.contains("requests must be positive"), "{err}");
}

#[test]
fn bad_decode_mix_is_a_diagnostic_not_a_panic() {
    let spec = ScenarioSpec {
        traffic: TrafficModel::Mix {
            mix: RequestMix::Production,
            decode: Some(DecodeMix {
                min_steps: 3,
                max_steps: 2,
                exit_prob: 0.1,
            }),
        },
        ..ScenarioSpec::default()
    };
    let err = spec.run().unwrap_err();
    assert!(err.contains("max_steps"), "{err}");
}

#[test]
fn out_of_fleet_fault_is_a_diagnostic_not_a_panic() {
    let spec = ScenarioSpec {
        faults: vec![FaultSpec {
            at_frac: 0.5,
            card: 3,
            kind: FaultKindSpec::Kill,
        }],
        ..ScenarioSpec::default()
    };
    let err = spec.run().unwrap_err();
    assert!(err.contains("card 3"), "{err}");
}

/// Bytes a JSON document is made of, so arbitrary byte strings reach
/// past the first token often enough to exercise the whole parser.
const JSON_BYTES: &[u8] = b"{}[]:,\"\\ -+.0123456789eEtrufalsn\n";

/// An arbitrary JSON value, two levels deep: every scalar kind, with
/// the small integers and enum-like strings a spec field expects mixed
/// in among the wild ones.
fn any_json() -> BoxedStrategy<Json> {
    let leaf = || {
        prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            (-3i64..5).prop_map(Json::Int),
            any::<i64>().prop_map(Json::Int),
            any::<u64>().prop_map(Json::UInt),
            any::<u64>().prop_map(|bits| {
                let x = f64::from_bits(bits);
                Json::Num(if x.is_finite() { x } else { -0.5 })
            }),
            prop_oneof![
                Just(""),
                Just("poisson"),
                Just("production"),
                Just("fp16-dual"),
                Just("kill"),
                Just("least-loaded"),
            ]
            .prop_map(|s| Json::Str(s.to_string())),
        ]
    };
    let key = prop_oneof![Just("rate"), Just("count"), Just("kind"), Just("x")];
    prop_oneof![
        leaf(),
        proptest::collection::vec(leaf(), 0..4).prop_map(Json::Arr),
        proptest::collection::vec((key, leaf()), 0..4).prop_map(|fields| {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }),
    ]
    .boxed()
}

/// The values below `json`: object fields and array elements, at any
/// depth.
fn count_values(json: &Json) -> usize {
    match json {
        Json::Arr(items) => items.iter().map(|v| 1 + count_values(v)).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| 1 + count_values(v)).sum(),
        _ => 0,
    }
}

/// Replaces the `n`-th value below `json` (object fields and array
/// elements, in pre-order) with `value`; returns whether one was found.
fn replace_nth(json: &mut Json, n: &mut usize, value: &Json) -> bool {
    let children: Vec<&mut Json> = match json {
        Json::Arr(items) => items.iter_mut().collect(),
        Json::Obj(fields) => fields.iter_mut().map(|(_, v)| v).collect(),
        _ => return false,
    };
    for child in children {
        if *n == 0 {
            *child = value.clone();
            return true;
        }
        *n -= 1;
        if replace_nth(child, n, value) {
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile text never panics the parser: arbitrary bytes, decoded as
    /// lossy UTF-8, parse to a value or a diagnostic — and whatever
    /// parses loads as a spec or a diagnostic too.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in proptest::collection::vec(
            prop_oneof![
                any::<u8>(),
                (0..JSON_BYTES.len()).prop_map(|i| JSON_BYTES[i]),
            ],
            0..96,
        ),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(json) = Json::parse(&text) {
            if let Ok(spec) = ScenarioSpec::from_json(&json) {
                let _ = spec.validate();
            }
        }
    }

    /// Well-formed but wrong JSON never panics the loader: a valid spec
    /// with one field (at any depth) replaced by an arbitrary value
    /// loads and validates to `Ok` or a diagnostic.
    #[test]
    fn one_wrong_field_never_panics_the_loader(
        spec in any_spec(),
        field in any::<usize>(),
        value in any_json(),
    ) {
        let mut json = spec.to_json();
        let mut n = field % count_values(&json);
        prop_assert!(replace_nth(&mut json, &mut n, &value));
        if let Ok(spec) = ScenarioSpec::from_json(&json) {
            let _ = spec.validate();
        }
    }
}

/// A zero preemption threshold used to pass `validate()` (which allowed
/// `>= 0`) and then panic in `run()` (the constructor wants `> 0`). The
/// constructor's rule is the one rule now: both kinds are diagnostics.
#[test]
fn zero_preemption_threshold_is_a_diagnostic_not_a_panic() {
    for preemption in [
        PreemptionSpec::AfterWait { threshold_s: 0.0 },
        PreemptionSpec::CostAware { threshold_s: 0.0 },
    ] {
        let spec = ScenarioSpec {
            preemption,
            ..ScenarioSpec::default()
        };
        let err = spec.run().unwrap_err();
        assert!(err.contains("threshold_s"), "{preemption:?}: {err}");
    }
}

/// Sets the field at `path` (object keys) inside `json`.
fn set_field(json: &mut Json, path: &[&str], value: Json) {
    let Json::Obj(fields) = json else {
        panic!("{path:?} runs through a non-object");
    };
    let (_, child) = fields
        .iter_mut()
        .find(|(k, _)| k == path[0])
        .expect("field exists");
    match path {
        [_] => *child = value,
        [_, rest @ ..] => set_field(child, rest, value),
        [] => unreachable!(),
    }
}

#[test]
fn out_of_range_heavy_pct_is_rejected_not_truncated() {
    let mut json = ScenarioSpec {
        traffic: TrafficModel::Sessions {
            profile: SessionProfile::standard(),
        },
        ..ScenarioSpec::default()
    }
    .to_json();
    // 300 used to load as 300 mod 256 = 44, a valid percentage.
    set_field(&mut json, &["traffic", "heavy_pct"], Json::Int(300));
    let err = ScenarioSpec::from_json(&json).unwrap_err();
    assert!(err.contains("traffic.heavy_pct"), "{err}");
}

#[test]
fn out_of_range_min_steps_is_rejected_not_truncated() {
    let decode = DecodeMix {
        min_steps: 1,
        max_steps: 2,
        exit_prob: 0.0,
    };
    let mut json = ScenarioSpec {
        traffic: TrafficModel::Mix {
            mix: RequestMix::Production,
            decode: Some(decode),
        },
        ..ScenarioSpec::default()
    }
    .to_json();
    // 2^32 + 1 used to load as 1.
    let path = ["traffic", "decode", "min_steps"];
    set_field(&mut json, &path, Json::Int((1 << 32) + 1));
    let err = ScenarioSpec::from_json(&json).unwrap_err();
    assert!(err.contains("traffic.decode.min_steps"), "{err}");
}

/// Inputs whose every field is in range but whose arrival or fault times
/// overflow to infinity: each used to pass `validate()` and then panic
/// (or, for the thinned and phased processes, never finish) in `run()`.
#[test]
fn overflowing_times_are_diagnostics_not_panics() {
    let cases = [
        (
            "fault at_frac 1e308",
            ScenarioSpec {
                faults: vec![FaultSpec {
                    at_frac: 1e308,
                    card: 0,
                    kind: FaultKindSpec::Kill,
                }],
                requests: 50,
                ..ScenarioSpec::default()
            },
            "fault 0",
        ),
        (
            "poisson rate 5e-324",
            ScenarioSpec {
                arrivals: ArrivalProcess::poisson(5e-324),
                requests: 2,
                ..ScenarioSpec::default()
            },
            "arrival times overflow",
        ),
        (
            "diurnal rate 5e-324",
            ScenarioSpec {
                arrivals: ArrivalProcess::diurnal(5e-324, 5e-324),
                requests: 2,
                ..ScenarioSpec::default()
            },
            "arrival times overflow",
        ),
        (
            "bursty rate 5e-324",
            ScenarioSpec {
                arrivals: ArrivalProcess::bursty(5e-324),
                requests: 2,
                ..ScenarioSpec::default()
            },
            "arrival times overflow",
        ),
        (
            "think_mean_s 1e308",
            ScenarioSpec {
                traffic: TrafficModel::Sessions {
                    profile: SessionProfile {
                        think_mean_s: 1e308,
                        ..SessionProfile::standard()
                    },
                },
                requests: 4,
                ..ScenarioSpec::default()
            },
            "arrival times overflow",
        ),
    ];
    for (case, spec, expected) in cases {
        assert!(spec.validate().is_ok(), "{case}: every field is in range");
        let err = spec.run().unwrap_err();
        assert!(err.contains(expected), "{case}: {err}");
    }
}

/// `max_shards` is a cap, not a size: `usize::MAX` plans exactly what a
/// cap of the fleet's pipeline count does (it used to abort allocating
/// a `usize::MAX`-capacity plan).
#[test]
fn unbounded_max_shards_runs_like_the_widest_real_cap() {
    for adaptive in [true, false] {
        let spec = |max_shards| ScenarioSpec {
            fleet: FleetSpec::standard(2),
            arrivals: ArrivalProcess::poisson(8.0),
            policy: PolicySpec::ShardedShortestJobFirst {
                max_shards,
                adaptive,
            },
            requests: 60,
            seed: 11,
            ..ScenarioSpec::default()
        };
        let unbounded = spec(usize::MAX).run().expect("runs to completion");
        let widest = spec(4).run().unwrap();
        assert_eq!(unbounded.offered, 60);
        assert_eq!(unbounded.to_json().pretty(), widest.to_json().pretty());
    }
}
