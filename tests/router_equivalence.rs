//! Decision equivalence and pinned whole-run digests for the estimating
//! routing policies (min-incoming, min-average, smoothed min-average and
//! island-aware).
//!
//! A live router is long-lived: it sees every class A arrival of a run,
//! at every site, and may keep state between decisions. Whatever it keeps,
//! each decision must equal the one derived from a fresh
//! [`estimate_route_cases`] on the parameters and observation of that
//! call. The sweep below switches the parameters under one router every
//! few calls and moves between sites with different link delays, so a
//! router that reuses an estimate built for other parameters, or for
//! another site's delay, decides differently somewhere and fails.
//!
//! The golden grid (`golden_metrics.rs`) pins only `min-average-n`; the
//! digests here pin whole runs of the other estimating policies.

use hls_analytic::estimate_route_cases;
use hls_core::{
    run_simulation, Observed, Route, RouteCtx, RouterSpec, RunMetrics, SystemConfig, SystemParams,
    UtilizationEstimator,
};
use hls_sim::{SimRng, SimTime};

const SITES: usize = 10;

/// Decisions per router in the sweep.
const CALLS: usize = 1_200;

/// Calls between parameter switches.
const SWITCH_EVERY: usize = 3;

/// FNV-1a over the bytes of `m`'s `{:#?}` rendering.
fn digest(m: &RunMetrics) -> u64 {
    format!("{m:#?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The estimating specs: every policy that consults the analytic model,
/// each with both utilization estimators.
fn estimating_specs() -> Vec<RouterSpec> {
    let mut specs = Vec::new();
    for estimator in [
        UtilizationEstimator::QueueLength,
        UtilizationEstimator::NumInSystem,
    ] {
        specs.push(RouterSpec::MinIncoming { estimator });
        specs.push(RouterSpec::MinAverage { estimator });
        specs.push(RouterSpec::SmoothedMinAverage {
            estimator,
            scale: 0.2,
        });
        specs.push(RouterSpec::IslandAware { estimator });
    }
    specs
}

/// Island-aware site delays: sites 0–4 share the central complex's
/// island, sites 5–9 pay the inter-island premium.
fn site_delays() -> Vec<f64> {
    (0..SITES)
        .map(|site| if site < 5 { 0.05 } else { 0.8 })
        .collect()
}

/// The two parameter sets the sweep alternates between.
fn param_sets() -> [SystemParams; 2] {
    let base = SystemParams::paper_default();
    let variant = SystemParams {
        comm_delay: 0.5,
        lockspace: 4096.0,
        ..base
    };
    [base, variant]
}

/// A random observed state, with non-nominal CPU speeds some of the time.
fn random_observed(rng: &mut SimRng) -> Observed {
    const LOCAL_SPEEDS: [f64; 4] = [1.0, 1.0, 0.5, 2.5];
    const CENTRAL_SPEEDS: [f64; 3] = [1.0, 1.0, 1.75];
    let q_local = f64::from(rng.random_range(0..16));
    let q_central = f64::from(rng.random_range(0..12));
    Observed {
        q_local,
        q_central,
        n_local: q_local + f64::from(rng.random_range(0..5)),
        n_central: q_central + f64::from(rng.random_range(0..60)),
        locks_local: rng.random::<f64>() * 120.0,
        locks_central: rng.random::<f64>() * 1_500.0,
        local_speed: LOCAL_SPEEDS[rng.random_range(0..4) as usize],
        central_speed: CENTRAL_SPEEDS[rng.random_range(0..3) as usize],
    }
}

fn ship_if(ship: bool) -> Route {
    if ship {
        Route::Central
    } else {
        Route::Local
    }
}

/// The decision `spec` must make, derived from a fresh estimate of the
/// call's parameters (with the site's own delay for island-aware). The
/// smoothed policy draws from `twin`, seeded like the router's stream.
fn expected_decision(
    spec: RouterSpec,
    params: &SystemParams,
    site: usize,
    obs: &Observed,
    twin: &mut SimRng,
) -> Route {
    match spec {
        RouterSpec::MinIncoming { estimator } => {
            ship_if(estimate_route_cases(params, obs, estimator).prefer_ship_incoming())
        }
        RouterSpec::MinAverage { estimator } => {
            ship_if(estimate_route_cases(params, obs, estimator).prefer_ship_average(obs))
        }
        RouterSpec::SmoothedMinAverage { estimator, scale } => {
            let advantage =
                estimate_route_cases(params, obs, estimator).average_advantage_of_shipping(obs);
            let p_ship = 1.0 / (1.0 + (-advantage / scale).exp());
            ship_if(twin.random::<f64>() < p_ship)
        }
        RouterSpec::IslandAware { estimator } => {
            let at_site = SystemParams {
                comm_delay: site_delays()[site],
                ..*params
            };
            ship_if(estimate_route_cases(&at_site, obs, estimator).prefer_ship_average(obs))
        }
        other => panic!("{} does not estimate", other.label()),
    }
}

/// One long-lived router per estimating spec, driven through a seeded
/// sweep of observations and sites while the parameters switch under it
/// every few calls: every decision equals the fresh estimate's.
#[test]
fn long_lived_routers_decide_like_a_fresh_estimate() {
    let params = param_sets();
    for (i, spec) in estimating_specs().into_iter().enumerate() {
        let mut router = spec.build_topo(SITES, &site_delays());
        let mut sweep = SimRng::seed_from_u64(0x5eed_0000 + i as u64);
        let mut route_rng = SimRng::seed_from_u64(0xc0ff_ee00 + i as u64);
        let mut twin = route_rng.clone();
        let (mut shipped, mut sensitive) = (0, 0);
        for call in 0..CALLS {
            let which = (call / SWITCH_EVERY) % 2;
            let site = sweep.random_range(0..SITES as u32) as usize;
            let obs = random_observed(&mut sweep);
            let want = expected_decision(spec, &params[which], site, &obs, &mut twin);
            let got = router.decide(&mut RouteCtx {
                now: SimTime::ZERO,
                site,
                obs,
                params: &params[which],
                rng: &mut route_rng,
            });
            assert_eq!(
                got,
                want,
                "{} call {call} (site {site}, params set {which}) diverged from a fresh estimate",
                spec.label()
            );
            shipped += usize::from(got == Route::Central);
            // Would the other parameter set, or the other island's delay,
            // have decided differently? Skipped for the smoothed policy,
            // whose decision is a random draw.
            if !matches!(spec, RouterSpec::SmoothedMinAverage { .. }) {
                let other_params =
                    expected_decision(spec, &params[1 - which], site, &obs, &mut twin.clone());
                let other_site = expected_decision(
                    spec,
                    &params[which],
                    (site + SITES / 2) % SITES,
                    &obs,
                    &mut twin.clone(),
                );
                sensitive += usize::from(other_params != want || other_site != want);
            }
        }
        assert!(
            shipped > 0 && shipped < CALLS,
            "{}: the sweep never exercised both routes ({shipped} of {CALLS} shipped)",
            spec.label()
        );
        if !matches!(spec, RouterSpec::SmoothedMinAverage { .. }) {
            assert!(
                sensitive > 0,
                "{}: no decision in the sweep depended on the parameters",
                spec.label()
            );
        }
    }
}

/// `golden_metrics`' `light` configuration.
fn light() -> SystemConfig {
    SystemConfig::paper_default()
        .with_total_rate(18.0)
        .with_horizon(40.0, 8.0)
        .with_seed(42)
}

/// Whole-run digests of the estimating policies the golden grid skips.
#[test]
fn estimating_policies_reproduce_pinned_digests() {
    let pinned = [
        (
            RouterSpec::MinIncoming {
                estimator: UtilizationEstimator::QueueLength,
            },
            0xabae_7719_76b6_bac7,
        ),
        (
            RouterSpec::MinAverage {
                estimator: UtilizationEstimator::QueueLength,
            },
            0x2abe_2fb7_20f3_700f,
        ),
        (
            RouterSpec::SmoothedMinAverage {
                estimator: UtilizationEstimator::NumInSystem,
                scale: 0.2,
            },
            0x131f_f01b_9f53_c653,
        ),
    ];
    for (spec, want) in pinned {
        let got = digest(&run_simulation(light(), spec).expect("light config is valid"));
        assert_eq!(
            got,
            want,
            "{}: RunMetrics digest {got:#018x} diverged from the pinned run",
            spec.label()
        );
    }
}
