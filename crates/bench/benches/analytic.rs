//! Microbenchmarks of the analytic model. The dynamic routers build a
//! `RouteModel` once per parameter set and call `RouteModel::estimate` on
//! every class A arrival (`route_model_estimate_*`); the one-shot
//! `estimate_route_cases` (`route_estimate_*`) builds the model as well.

use hls_analytic::{
    estimate_route_cases, optimal_static_ship, solve_static, Observed, RouteModel, SystemParams,
    UtilizationEstimator,
};
use hls_bench::microbench::bench;
use std::hint::black_box;

fn bench_solve_static() {
    let params = SystemParams::paper_default();
    bench("analytic/solve_static", || {
        solve_static(&params, black_box(2.0), black_box(0.4))
    });
}

fn bench_optimizer() {
    let params = SystemParams::paper_default();
    bench("analytic/optimal_static_ship_grid50", || {
        optimal_static_ship(&params, black_box(2.0), 50)
    });
}

const ESTIMATORS: [(&str, UtilizationEstimator); 2] = [
    ("queue", UtilizationEstimator::QueueLength),
    ("num", UtilizationEstimator::NumInSystem),
];

const OBSERVED: Observed = Observed {
    q_local: 4.0,
    q_central: 6.0,
    n_local: 5.0,
    n_central: 20.0,
    locks_local: 40.0,
    locks_central: 180.0,
    local_speed: 1.0,
    central_speed: 1.0,
};

fn bench_route_estimate() {
    let params = SystemParams::paper_default();
    for (name, est) in ESTIMATORS {
        bench(&format!("analytic/route_estimate_{name}"), || {
            estimate_route_cases(&params, black_box(&OBSERVED), est)
        });
    }
}

fn bench_route_model_estimate() {
    let model = RouteModel::new(&SystemParams::paper_default());
    for (name, est) in ESTIMATORS {
        bench(&format!("analytic/route_model_estimate_{name}"), || {
            model.estimate(black_box(&OBSERVED), est)
        });
    }
}

fn main() {
    bench_solve_static();
    bench_optimizer();
    bench_route_estimate();
    bench_route_model_estimate();
}
