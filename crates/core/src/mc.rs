//! Monte-Carlo tolerance analysis: how robust are the Figure 7
//! conclusions to uncertainty in the calibrated resistances and the
//! converter curves?
//!
//! The sweep is built for throughput and reproducibility at once:
//!
//! * One [`AnalysisSession`] per run compiles the die-grid solve plan
//!   once; every sample merely restamps element values.
//! * The nominal solution is solved first and **anchored** — every
//!   sample's conjugate gradient warm-starts from that same point, so a
//!   sample's result depends only on its own perturbed calibration,
//!   never on which sample ran before it.
//! * Every sample draws from its own RNG stream derived from
//!   `(seed, sample index)`.
//! * A run long enough to repay it also reduces the nominal mesh onto
//!   its regulator nodes ([`vpd_circuit::PortReduction`]). A sample
//!   moves only the sheet resistance and the droops, so its solve
//!   starts at the exact answer instead of the anchor, and CG accepts
//!   it at iteration zero. The reduction depends on the nominal mesh
//!   alone, like the anchor.
//!
//! Together those make the parallel run ([`McSettings::threads`])
//! bitwise-identical to the serial one for the same seed.

use crate::arch::{AnalysisOptions, AnalysisSession, Architecture};
use crate::par::par_map_with;
use crate::{Calibration, CoreError, SystemSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpd_converters::VrTopologyKind;
use vpd_units::Ohms;

/// Monte-Carlo settings.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct McSettings {
    /// Number of samples.
    pub samples: usize,
    /// Relative tolerance on every calibrated resistance (uniform
    /// `±tol`).
    pub resistance_tolerance: f64,
    /// Relative tolerance on the conversion-loss magnitude.
    pub conversion_tolerance: f64,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
    /// Worker threads (0 = auto). Any value yields bitwise-identical
    /// summaries for the same seed.
    pub threads: usize,
}

impl Default for McSettings {
    fn default() -> Self {
        Self {
            samples: 200,
            resistance_tolerance: 0.20,
            conversion_tolerance: 0.10,
            seed: 0x5eed,
            threads: 0,
        }
    }
}

/// Distribution summary of total-loss percent over the samples.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct McSummary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
    /// 5th percentile (linearly interpolated).
    pub p5: f64,
    /// 95th percentile (linearly interpolated).
    pub p95: f64,
}

impl McSummary {
    fn from_samples(mut xs: Vec<f64>) -> Self {
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        // Linear interpolation between closest ranks (the "C = 1"
        // definition, numpy's default), not nearest-rank: a percentile
        // of a small sample set should move continuously with q.
        let pick = |q: f64| {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
        };
        Self {
            mean,
            std_dev: var.sqrt(),
            min: xs[0],
            max: xs[n - 1],
            p5: pick(0.05),
            p95: pick(0.95),
        }
    }
}

fn perturb(r: Ohms, rng: &mut StdRng, tol: f64) -> Ohms {
    r * (1.0 + rng.gen_range(-tol..=tol))
}

/// The RNG stream for one sample: a SplitMix64-style avalanche over
/// `(seed, index)`, so consecutive indices give decorrelated streams and
/// a sample's draws never depend on how work was divided among threads.
pub(crate) fn sample_rng(seed: u64, index: usize) -> StdRng {
    let mut z = seed.wrapping_add(
        (index as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Runs the tolerance analysis for one configuration, returning the
/// loss-percent distribution summary.
///
/// The summary is a pure function of the configuration and
/// `settings.seed`: neither `settings.threads` nor the host's core count
/// changes a single bit of it.
///
/// # Errors
///
/// Propagates the first analysis failure (a nominal-feasible
/// configuration stays feasible under resistance perturbation, so
/// failures indicate a genuinely infeasible configuration).
pub fn run_tolerance(
    architecture: Architecture,
    topology: VrTopologyKind,
    spec: &SystemSpec,
    base: &Calibration,
    settings: &McSettings,
) -> Result<McSummary, CoreError> {
    let opts = AnalysisOptions::default();
    let mut session = AnalysisSession::new(architecture, spec, base, &opts)?;
    run_tolerance_with(&mut session, topology, base, settings)
}

/// [`run_tolerance`] over a caller-provided session, letting a compiled
/// grid plan be amortized across runs (the serve-layer scenario cache).
///
/// The summary is bitwise-identical to [`run_tolerance`] for the same
/// configuration whether the session is freshly built or reused: the
/// nominal point is re-solved and re-anchored here, and a warm re-solve
/// of an identical system converges at iteration zero to the anchored
/// solution, so every sample starts from the same point either way.
/// The port reduction is rebuilt here from that nominal mesh, too.
///
/// # Errors
///
/// As for [`run_tolerance`].
pub fn run_tolerance_with(
    session: &mut AnalysisSession,
    topology: VrTopologyKind,
    base: &Calibration,
    settings: &McSettings,
) -> Result<McSummary, CoreError> {
    let _span = vpd_obs::span("mc.run_ns");
    let timer = vpd_obs::is_enabled().then(std::time::Instant::now);
    // Solve the nominal point once and anchor it: every sample then
    // warm-starts from the same solution, so per-sample results are
    // independent of sample order and worker assignment.
    session.analyze(topology, base)?;
    session.anchor();
    let reduction = session.sweep_reduction(settings.samples)?;

    let indices: Vec<usize> = (0..settings.samples).collect();
    let rt = settings.resistance_tolerance;
    let ct = settings.conversion_tolerance;
    let sample = |sess: &mut AnalysisSession, &i: &usize| -> Result<f64, CoreError> {
        let mut rng = sample_rng(settings.seed, i);
        let calib = Calibration {
            horizontal_pol_resistance: perturb(base.horizontal_pol_resistance, &mut rng, rt),
            horizontal_hv_resistance: perturb(base.horizontal_hv_resistance, &mut rng, rt),
            interposer_bus_resistance: perturb(base.interposer_bus_resistance, &mut rng, rt),
            grid_sheet_resistance: perturb(base.grid_sheet_resistance, &mut rng, rt),
            vr_droop_periphery: perturb(base.vr_droop_periphery, &mut rng, rt),
            vr_droop_below_die: perturb(base.vr_droop_below_die, &mut rng, rt),
            ..*base
        };
        let report = sess.analyze_with(topology, &calib, reduction.as_ref())?;
        // Conversion-curve uncertainty applied as a multiplicative factor
        // on the conversion share of the total.
        let conv_factor = 1.0 + rng.gen_range(-ct..=ct);
        let b = &report.breakdown;
        let loss = b.total().value() + b.conversion_loss().value() * (conv_factor - 1.0);
        Ok(100.0 * loss / b.pol_power().value())
    };
    let results = par_map_with(settings.threads, &indices, &*session, sample);
    let mut samples = Vec::with_capacity(results.len());
    for r in results {
        samples.push(r?);
    }
    // Accounting only: recorded after all samples are computed, so the
    // summary bits cannot depend on whether metrics are enabled.
    vpd_obs::incr("mc.runs");
    vpd_obs::add("mc.samples", samples.len() as u64);
    if let Some(start) = timer {
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            vpd_obs::gauge_set("mc.samples_per_sec", samples.len() as f64 / secs);
        }
    }
    Ok(McSummary::from_samples(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(arch: Architecture) -> McSummary {
        run_tolerance(
            arch,
            VrTopologyKind::Dsch,
            &SystemSpec::paper_default(),
            &Calibration::paper_default(),
            &McSettings {
                samples: 60,
                ..McSettings::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn distributions_bracket_the_nominal() {
        let a0 = summary(Architecture::Reference);
        assert!(a0.min < 43.3 && 43.3 < a0.max, "{a0:?}");
        assert!(a0.p5 <= a0.mean && a0.mean <= a0.p95);
        assert!(a0.std_dev > 0.2, "resistance tolerance must show up");
    }

    #[test]
    fn conclusion_is_robust_a0_always_worst() {
        // Even at the 5th/95th percentiles, A0 loses to A1 — the paper's
        // headline conclusion survives the tolerances.
        let a0 = summary(Architecture::Reference);
        let a1 = summary(Architecture::InterposerPeriphery);
        assert!(a0.p5 > a1.p95, "A0 p5 {:.1} vs A1 p95 {:.1}", a0.p5, a1.p95);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let a = summary(Architecture::InterposerEmbedded);
        let b = summary(Architecture::InterposerEmbedded);
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_interpolate_linearly() {
        // 11 equally spaced values 0..=10: the interpolated p5 sits at
        // rank 0.5 and p95 at rank 9.5 — nearest-rank would snap both to
        // the adjacent integers.
        let s = McSummary::from_samples((0..11).map(f64::from).collect());
        assert!((s.p5 - 0.5).abs() < 1e-12, "p5 {}", s.p5);
        assert!((s.p95 - 9.5).abs() < 1e-12, "p95 {}", s.p95);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!((s.min, s.max), (0.0, 10.0));
    }

    #[test]
    fn direct_mode_sessions_match_warm_cg_and_stay_deterministic() {
        use vpd_circuit::DcPlanMode;
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let settings = McSettings {
            samples: 24,
            threads: 1,
            ..McSettings::default()
        };
        let cg = run_tolerance(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &settings,
        )
        .unwrap();

        let opts = AnalysisOptions {
            solve_mode: DcPlanMode::DirectCholesky,
            ..AnalysisOptions::default()
        };
        let mut session =
            AnalysisSession::new(Architecture::InterposerEmbedded, &spec, &calib, &opts).unwrap();
        assert_eq!(session.solve_mode(), DcPlanMode::DirectCholesky);
        let direct =
            run_tolerance_with(&mut session, VrTopologyKind::Dsch, &calib, &settings).unwrap();
        // Exact per-sample solves land within solver tolerance of CG.
        assert!((direct.mean - cg.mean).abs() < 1e-6, "{direct:?} vs {cg:?}");
        assert!((direct.p95 - cg.p95).abs() < 1e-6);

        // And the thread-count independence contract holds per mode.
        for threads in [3, 8] {
            let par = run_tolerance_with(
                &mut session,
                VrTopologyKind::Dsch,
                &calib,
                &McSettings {
                    threads,
                    ..settings
                },
            )
            .unwrap();
            assert_eq!(direct, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_runs_are_bitwise_identical_to_serial() {
        let spec = SystemSpec::paper_default();
        let calib = Calibration::paper_default();
        let base = McSettings {
            samples: 24,
            threads: 1,
            ..McSettings::default()
        };
        let serial = run_tolerance(
            Architecture::InterposerEmbedded,
            VrTopologyKind::Dsch,
            &spec,
            &calib,
            &base,
        )
        .unwrap();
        for threads in [2, 3, 8] {
            let par = run_tolerance(
                Architecture::InterposerEmbedded,
                VrTopologyKind::Dsch,
                &spec,
                &calib,
                &McSettings { threads, ..base },
            )
            .unwrap();
            // Bitwise: every field, exact f64 equality.
            assert_eq!(serial, par, "threads = {threads}");
        }
    }
}
