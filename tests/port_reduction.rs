//! Sweep-level contracts of the regulator-port reduction: Monte-Carlo,
//! fault and cascade sweeps seeded from the exact port prediction agree
//! with exact direct solves, and keep the serial == parallel, reused ==
//! fresh and metrics-on == metrics-off bitwise contracts.

use vertical_power_delivery::core::{
    run_tolerance, run_tolerance_with, AnalysisOptions, AnalysisSession, Architecture,
    CascadeLadder, CascadeSettings, DcPlanMode, FaultScenario, FaultSweep, McSettings,
};
use vertical_power_delivery::obs;
use vertical_power_delivery::prelude::*;

const A2: Architecture = Architecture::InterposerEmbedded;

fn paper() -> (SystemSpec, Calibration) {
    (SystemSpec::paper_default(), Calibration::paper_default())
}

fn fault_sweep() -> FaultSweep {
    let (spec, calib) = paper();
    FaultSweep::new(A2, VrTopologyKind::Dsch, &spec, &calib).unwrap()
}

/// N-1 over all 48 modules plus random 3-fault draws (region faults
/// included, which the reduction does not cover).
fn mixed_scenarios(sweep: &FaultSweep) -> Vec<FaultScenario> {
    let mut scenarios = FaultScenario::n_minus_1(sweep.vr_count());
    scenarios.extend(FaultScenario::random_k(
        3,
        16,
        0x5EED,
        sweep.vr_count(),
        sweep.grid_side(),
    ));
    scenarios
}

fn mc_settings(threads: usize) -> McSettings {
    McSettings {
        samples: 32,
        threads,
        ..McSettings::default()
    }
}

fn mc_fresh(threads: usize) -> vertical_power_delivery::core::McSummary {
    let (spec, calib) = paper();
    run_tolerance(
        A2,
        VrTopologyKind::Dsch,
        &spec,
        &calib,
        &mc_settings(threads),
    )
    .unwrap()
}

fn ladder() -> CascadeLadder {
    let (spec, calib) = paper();
    CascadeLadder::new(
        A2,
        VrTopologyKind::Dsch,
        &spec,
        &calib,
        &CascadeSettings::default(),
    )
    .unwrap()
}

#[test]
fn fault_sweep_matches_direct_solves_and_stays_deterministic() {
    let mut sweep = fault_sweep();
    let scenarios = mixed_scenarios(&sweep);
    let cg = sweep.run(&scenarios, 1).unwrap();
    // Every module fault is predicted exactly: CG accepts the start.
    for o in &cg.outcomes[..48] {
        assert_eq!(o.iterations, 0, "{}", o.name);
    }
    assert_eq!(cg.fallback_count, 0);
    for threads in [2, 5] {
        assert_eq!(
            cg,
            sweep.run(&scenarios, threads).unwrap(),
            "threads = {threads}"
        );
    }

    sweep.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
    let direct = sweep.run(&scenarios, 1).unwrap();
    for (a, b) in cg.outcomes.iter().zip(&direct.outcomes) {
        assert!(
            (a.worst_drop.value() - b.worst_drop.value()).abs() < 1e-8,
            "{}: {} vs {}",
            a.name,
            a.worst_drop,
            b.worst_drop
        );
        assert!((a.spread - b.spread).abs() < 1e-6, "{}", a.name);
    }
}

#[test]
fn small_fault_sweeps_keep_the_anchored_start() {
    // Eight solves do not repay a reduction of 48 ports.
    let sweep = fault_sweep();
    let scenarios: Vec<_> = FaultScenario::n_minus_1(8);
    let report = sweep.run(&scenarios, 1).unwrap();
    assert!(report.outcomes.iter().all(|o| o.iterations > 0));
}

#[test]
fn monte_carlo_matches_direct_solves_and_reused_sessions() {
    let (spec, calib) = paper();
    let fresh = mc_fresh(1);
    for threads in [3, 8] {
        assert_eq!(fresh, mc_fresh(threads), "threads = {threads}");
    }
    // A session reused across runs gives the fresh session's bits.
    let opts = AnalysisOptions::default();
    let mut session = AnalysisSession::new(A2, &spec, &calib, &opts).unwrap();
    for _ in 0..2 {
        let reused =
            run_tolerance_with(&mut session, VrTopologyKind::Dsch, &calib, &mc_settings(2))
                .unwrap();
        assert_eq!(fresh, reused);
    }

    let direct_opts = AnalysisOptions {
        solve_mode: DcPlanMode::DirectCholesky,
        ..AnalysisOptions::default()
    };
    let mut direct = AnalysisSession::new(A2, &spec, &calib, &direct_opts).unwrap();
    let exact =
        run_tolerance_with(&mut direct, VrTopologyKind::Dsch, &calib, &mc_settings(1)).unwrap();
    assert!(
        (exact.mean - fresh.mean).abs() < 1e-6,
        "{exact:?} vs {fresh:?}"
    );
    assert!((exact.std_dev - fresh.std_dev).abs() < 1e-6);
    assert!((exact.p95 - fresh.p95).abs() < 1e-6);
}

#[test]
fn cascade_matches_direct_solves_and_stays_deterministic() {
    let mut ladder = ladder();
    let scenarios = FaultScenario::n_minus_1(ladder.vr_count());
    let cg = ladder.run(&scenarios, 1).unwrap();
    assert_eq!(cg, ladder.run(&scenarios, 3).unwrap());

    ladder.set_solve_mode(DcPlanMode::DirectCholesky).unwrap();
    let direct = ladder.run(&scenarios, 1).unwrap();
    assert_eq!(cg.survives, direct.survives);
    assert_eq!(cg.converged, direct.converged);
    for (a, b) in cg.outcomes.iter().zip(&direct.outcomes) {
        assert_eq!(a.iterations, b.iterations, "{}", a.name);
        assert_eq!(a.termination.converged(), b.termination.converged());
        assert!(
            (a.worst_drop.value() - b.worst_drop.value()).abs() < 1e-8,
            "{}",
            a.name
        );
        assert!((a.peak_temperature.value() - b.peak_temperature.value()).abs() < 1e-6);
        assert_eq!(a.overloaded_modules, b.overloaded_modules);
    }
}

#[test]
fn metrics_never_change_reduced_sweeps() {
    let sweep = fault_sweep();
    let scenarios = mixed_scenarios(&sweep);
    let ladder = ladder();
    let n1 = FaultScenario::n_minus_1(ladder.vr_count());
    let run = || {
        (
            sweep.run(&scenarios, 2).unwrap(),
            mc_fresh(2),
            ladder.run(&n1, 2).unwrap(),
        )
    };
    let off = run();
    obs::set_enabled(true);
    obs::reset();
    let on = run();
    let snapshot = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(off, on);
    // All three sweeps went through the reduction.
    assert!(snapshot.counter("reduction.builds").unwrap_or(0) >= 3);
    assert!(snapshot.counter("reduction.predictions").unwrap_or(0) >= 48 + 32 + 48);
}
