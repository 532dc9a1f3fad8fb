//! Preconditioned conjugate gradient for sparse SPD systems.

use crate::vector::{norm2, SUM_ZERO};
use crate::{CsrMatrix, NumericError};

/// Iterations without meaningful residual improvement before CG declares
/// itself stagnated (scaled up to `n / 4` for large systems).
const STAGNATION_WINDOW: usize = 50;

/// A residual must shrink below this fraction of the best seen so far to
/// count as progress for the stagnation watchdog.
const STAGNATION_IMPROVEMENT: f64 = 0.99;

/// Preconditioner choice for [`conjugate_gradient`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub enum Preconditioner {
    /// No preconditioning.
    None,
    /// Diagonal (Jacobi) scaling — the right default for grid Laplacians,
    /// whose diagonal varies with local via density.
    #[default]
    Jacobi,
}

/// Settings for the conjugate-gradient solver.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CgSettings {
    /// Relative residual target `‖r‖/‖b‖`.
    pub tolerance: f64,
    /// Iteration cap; `None` defaults to `10·n`.
    pub max_iterations: Option<usize>,
    /// Preconditioner.
    pub preconditioner: Preconditioner,
}

impl Default for CgSettings {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: None,
            preconditioner: Preconditioner::Jacobi,
        }
    }
}

/// Convergence report returned alongside the solution
/// ([C-INTERMEDIATE]).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CgReport {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A·x‖ / ‖b‖`.
    pub relative_residual: f64,
}

/// Reusable scratch space for [`conjugate_gradient_into`].
///
/// CG needs four working vectors plus the inverted diagonal; allocating
/// them per solve dominates the cost of small repeated systems. A
/// workspace is sized lazily on first use and reused across solves of
/// any dimension (resizing only when the dimension grows or shrinks).
#[derive(Clone, Debug, Default)]
pub struct CgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    inv_diag: Vec<f64>,
}

impl CgWorkspace {
    /// An empty workspace; buffers are sized on first solve.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
        self.inv_diag.resize(n, 0.0);
    }
}

/// Solves the SPD system `A·x = b` by preconditioned conjugate gradient.
///
/// Returns the solution together with a [`CgReport`]. A zero right-hand
/// side returns the zero vector immediately.
///
/// ```
/// use vpd_numeric::{conjugate_gradient, CgSettings, CooMatrix};
///
/// # fn main() -> Result<(), vpd_numeric::NumericError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0);
/// coo.push(1, 1, 3.0);
/// coo.push(0, 1, 1.0);
/// coo.push(1, 0, 1.0);
/// let a = coo.to_csr();
/// let (x, report) = conjugate_gradient(&a, &[1.0, 2.0], &CgSettings::default())?;
/// assert!(report.relative_residual < 1e-10);
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`NumericError::DimensionMismatch`] — non-square `A` or wrong `b`
///   length.
/// * [`NumericError::NoConvergence`] — the iteration cap was reached
///   before the tolerance, or the residual stagnated (no meaningful
///   improvement over a trailing window); the report fields — including
///   the `stagnated` flag — are embedded in the error.
/// * [`NumericError::NotPositiveDefinite`] — a breakdown (`pᵀAp ≤ 0`)
///   revealed an indefinite matrix.
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    settings: &CgSettings,
) -> Result<(Vec<f64>, CgReport), NumericError> {
    let mut x = vec![0.0; a.rows()];
    let mut ws = CgWorkspace::new();
    let report = conjugate_gradient_into(a, b, &mut x, settings, &mut ws)?;
    Ok((x, report))
}

/// Solves `A·x = b` in place, warm-starting from the incoming `x` and
/// reusing caller-owned scratch space.
///
/// On entry `x` holds the initial guess (zeros reproduce the cold
/// [`conjugate_gradient`] path exactly); on successful exit it holds the
/// solution. When the guess is close — a previous solve of a slightly
/// perturbed system, as in Monte-Carlo sampling or design sweeps — CG
/// starts with a small residual and converges in a fraction of the cold
/// iteration count; a guess already within tolerance returns after zero
/// iterations. The workspace removes every per-solve allocation, so a
/// restamp + warm solve does no heap work at all.
///
/// On error `x` is left in an unspecified (partially updated) state;
/// refill it before warm-starting the next solve.
///
/// # Errors
///
/// Same contract as [`conjugate_gradient`]: `DimensionMismatch` on shape
/// errors (including a wrong `x` length), `NoConvergence` on hitting the
/// iteration cap, `NotPositiveDefinite` on breakdown.
pub fn conjugate_gradient_into(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    settings: &CgSettings,
    ws: &mut CgWorkspace,
) -> Result<CgReport, NumericError> {
    let result = cg_run(a, b, x, settings, ws);
    // Observation only: integer counters after the fact, so the iterate
    // arithmetic (and therefore the result bits) cannot depend on
    // whether metrics are enabled.
    if vpd_obs::is_enabled() {
        match &result {
            Ok(rep) => {
                vpd_obs::incr("cg.solves");
                vpd_obs::add("cg.iterations", rep.iterations as u64);
                vpd_obs::observe("cg.iterations_per_solve", rep.iterations as u64);
                if rep.iterations == 0 {
                    vpd_obs::incr("cg.warm_hits");
                }
            }
            Err(NumericError::NoConvergence {
                iterations,
                stagnated,
                ..
            }) => {
                vpd_obs::incr("cg.failures");
                vpd_obs::add("cg.iterations", *iterations as u64);
                if *stagnated {
                    vpd_obs::incr("cg.stagnations");
                }
            }
            Err(_) => vpd_obs::incr("cg.failures"),
        }
    }
    result
}

fn cg_run(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    settings: &CgSettings,
    ws: &mut CgWorkspace,
) -> Result<CgReport, NumericError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(NumericError::DimensionMismatch {
            expected: "square matrix".into(),
            found: format!("{}x{}", a.rows(), a.cols()),
        });
    }
    if b.len() != n {
        return Err(NumericError::DimensionMismatch {
            expected: format!("rhs of length {n}"),
            found: format!("length {}", b.len()),
        });
    }
    if x.len() != n {
        return Err(NumericError::DimensionMismatch {
            expected: format!("initial guess of length {n}"),
            found: format!("length {}", x.len()),
        });
    }

    let b_norm = norm2(b);
    if b_norm == 0.0 {
        x.fill(0.0);
        return Ok(CgReport {
            iterations: 0,
            relative_residual: 0.0,
        });
    }

    ws.ensure(n);
    let jacobi = settings.preconditioner == Preconditioner::Jacobi;
    if jacobi {
        a.diagonal_into(&mut ws.inv_diag);
        for d in &mut ws.inv_diag {
            *d = if *d != 0.0 { 1.0 / *d } else { 1.0 };
        }
    }
    // Equal-length views: indexing `0..n` over them needs no bounds
    // checks.
    let b = &b[..n];
    let x = &mut x[..n];
    let r = &mut ws.r[..n];
    let z = &mut ws.z[..n];
    let p = &mut ws.p[..n];
    let ap = &mut ws.ap[..n];
    let inv_diag = &ws.inv_diag[..n];

    // r = b − A·x0, z = M⁻¹·r, p = z, accumulating rᵀz and rᵀr. A zero
    // guess multiplies out to exactly 0.0 per row, so the cold path
    // stays bitwise identical to r = b.
    a.matvec_into(x, ap);
    let mut rz = SUM_ZERO;
    let mut rr = SUM_ZERO;
    for i in 0..n {
        let ri = b[i] - ap[i];
        let zi = if jacobi { ri * inv_diag[i] } else { ri };
        r[i] = ri;
        z[i] = zi;
        p[i] = zi;
        rz += ri * zi;
        rr += ri * ri;
    }

    let max_iters = settings.max_iterations.unwrap_or(10 * n.max(1));
    // Stagnation watchdog: CG residuals are not monotone, so only call
    // the iteration stalled after a generous window with no meaningful
    // improvement over the best residual seen. Monitoring never touches
    // the iterate arithmetic, so converging solves stay bitwise
    // identical with or without it.
    let stagnation_window = STAGNATION_WINDOW.max(n / 4);
    let mut best_rel = f64::INFINITY;
    let mut since_improved = 0usize;
    for iter in 0..max_iters {
        let rel = rr.sqrt() / b_norm;
        if rel <= settings.tolerance {
            return Ok(CgReport {
                iterations: iter,
                relative_residual: rel,
            });
        }
        if rel < STAGNATION_IMPROVEMENT * best_rel {
            best_rel = rel;
            since_improved = 0;
        } else {
            since_improved += 1;
            if since_improved >= stagnation_window {
                return Err(NumericError::NoConvergence {
                    iterations: iter,
                    residual: rel,
                    stagnated: true,
                });
            }
        }
        // Pass 1: Ap = A·p and pᵀAp.
        let pap = a.matvec_dot_into(p, ap);
        if pap <= 0.0 {
            return Err(NumericError::NotPositiveDefinite {
                pivot: iter,
                value: pap,
            });
        }
        // Pass 2: step x and r, precondition, and accumulate rᵀz and
        // the next iteration's rᵀr.
        let alpha = rz / pap;
        let neg_alpha = -alpha;
        let mut rz_new = SUM_ZERO;
        rr = SUM_ZERO;
        for i in 0..n {
            x[i] += alpha * p[i];
            let ri = r[i] + neg_alpha * ap[i];
            let zi = if jacobi { ri * inv_diag[i] } else { ri };
            r[i] = ri;
            z[i] = zi;
            rz_new += ri * zi;
            rr += ri * ri;
        }
        // Pass 3: the new search direction.
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    let rel = rr.sqrt() / b_norm;
    if rel <= settings.tolerance {
        return Ok(CgReport {
            iterations: max_iters,
            relative_residual: rel,
        });
    }
    Err(NumericError::NoConvergence {
        iterations: max_iters,
        residual: rel,
        stagnated: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CholeskyFactor, CooMatrix, DenseMatrix};
    use proptest::prelude::*;

    /// 1-D grounded Laplacian chain of `n` nodes with conductance `g` and a
    /// ground leak `gl` on each node.
    fn chain(n: usize, g: f64, gl: f64) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let mut diag = gl;
            if i > 0 {
                coo.push(i, i - 1, -g);
                diag += g;
            }
            if i + 1 < n {
                coo.push(i, i + 1, -g);
                diag += g;
            }
            coo.push(i, i, diag);
        }
        coo.to_csr()
    }

    #[test]
    fn solves_chain_laplacian() {
        let a = chain(50, 1.0, 0.1);
        let b = vec![1.0; 50];
        let (x, report) = conjugate_gradient(&a, &b, &CgSettings::default()).unwrap();
        assert!(report.relative_residual < 1e-10);
        // Residual check
        let ax = a.matvec(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = chain(5, 1.0, 0.1);
        let (x, report) = conjugate_gradient(&a, &[0.0; 5], &CgSettings::default()).unwrap();
        assert_eq!(x, vec![0.0; 5]);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn iteration_cap_reports_no_convergence() {
        let a = chain(100, 1.0, 1e-6); // poorly conditioned
        let settings = CgSettings {
            tolerance: 1e-14,
            max_iterations: Some(2),
            preconditioner: Preconditioner::None,
        };
        let err = conjugate_gradient(&a, &vec![1.0; 100], &settings).unwrap_err();
        assert!(matches!(
            err,
            NumericError::NoConvergence { iterations: 2, .. }
        ));
    }

    #[test]
    fn iteration_exhaustion_embeds_full_diagnostics() {
        // Regression: the default `10·n` cap must not silently truncate —
        // exhaustion has to return the full embedded report (iterations,
        // finite residual, stagnation flag) so callers can climb the
        // resilience ladder instead of guessing what went wrong.
        let a = chain(100, 1.0, 1e-6);
        let settings = CgSettings {
            tolerance: 1e-14,
            max_iterations: Some(7),
            preconditioner: Preconditioner::None,
        };
        match conjugate_gradient(&a, &vec![1.0; 100], &settings) {
            Err(NumericError::NoConvergence {
                iterations,
                residual,
                stagnated,
            }) => {
                assert_eq!(iterations, 7);
                assert!(residual.is_finite() && residual > 1e-14);
                assert!(!stagnated, "7 iterations is too few to stall");
            }
            other => panic!("expected embedded NoConvergence report, got {other:?}"),
        }
    }

    #[test]
    fn residual_plateau_reports_stagnation() {
        // κ ≈ 4·10¹⁶: roundoff destroys conjugacy and the residual
        // plateaus far above tolerance; the watchdog must cut the run off
        // with `stagnated` well before the iteration cap burns out.
        let a = chain(200, 1e8, 1e-8);
        let settings = CgSettings {
            tolerance: 1e-16,
            max_iterations: Some(200_000),
            preconditioner: Preconditioner::None,
        };
        match conjugate_gradient(&a, &vec![1.0; 200], &settings) {
            Err(NumericError::NoConvergence {
                iterations,
                stagnated,
                ..
            }) => {
                assert!(stagnated, "plateau must be flagged as stagnation");
                assert!(iterations < 10_000, "watchdog must fire early");
            }
            other => panic!("expected stagnation error, got {other:?}"),
        }
    }

    #[test]
    fn indefinite_matrix_breaks_down() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -1.0);
        let err =
            conjugate_gradient(&coo.to_csr(), &[0.0, 1.0], &CgSettings::default()).unwrap_err();
        assert!(matches!(err, NumericError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn wrong_rhs_rejected() {
        let a = chain(3, 1.0, 0.1);
        assert!(conjugate_gradient(&a, &[1.0], &CgSettings::default()).is_err());
    }

    #[test]
    fn jacobi_beats_unpreconditioned_on_scaled_system() {
        // Wildly varying diagonal: Jacobi should converge in far fewer
        // iterations.
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        let edge = |i: usize| if i.is_multiple_of(2) { 1.0 } else { 1e4 };
        let mut diag = vec![0.0; n];
        for i in 0..n - 1 {
            let g = edge(i);
            coo.push(i, i + 1, -g);
            coo.push(i + 1, i, -g);
            diag[i] += g;
            diag[i + 1] += g;
        }
        for (i, d) in diag.iter().enumerate() {
            // Ground leak scaled with the local edge weight keeps the
            // diagonal wildly varying without breaking symmetry.
            coo.push(i, i, d + 0.01 * edge(i));
        }
        let a = coo.to_csr();
        assert_eq!(a.asymmetry().unwrap(), 0.0);
        let b = vec![1.0; n];
        let jacobi = conjugate_gradient(
            &a,
            &b,
            &CgSettings {
                preconditioner: Preconditioner::Jacobi,
                ..CgSettings::default()
            },
        )
        .unwrap()
        .1;
        let plain = conjugate_gradient(
            &a,
            &b,
            &CgSettings {
                preconditioner: Preconditioner::None,
                max_iterations: Some(10 * n),
                ..CgSettings::default()
            },
        );
        if let Ok((_, rep)) = plain {
            assert!(jacobi.iterations <= rep.iterations);
        } // plain CG failing outright also proves the point
    }

    #[test]
    fn warm_start_from_solution_converges_instantly() {
        let a = chain(50, 1.0, 0.1);
        let b = vec![1.0; 50];
        let (mut x, cold) = conjugate_gradient(&a, &b, &CgSettings::default()).unwrap();
        assert!(cold.iterations > 0);
        let mut ws = CgWorkspace::new();
        let warm =
            conjugate_gradient_into(&a, &b, &mut x, &CgSettings::default(), &mut ws).unwrap();
        assert_eq!(warm.iterations, 0, "exact guess must be accepted as-is");
    }

    #[test]
    fn warm_start_across_perturbed_systems_converges_faster() {
        // The Monte-Carlo pattern: solve a nominal system, then a
        // slightly perturbed one warm-started from the nominal solution.
        let nominal = chain(200, 1.0, 0.5);
        let perturbed = chain(200, 1.004, 0.5);
        let b = vec![1.0; 200];
        let settings = CgSettings::default();

        let (x_nominal, _) = conjugate_gradient(&nominal, &b, &settings).unwrap();
        let (x_cold, cold) = conjugate_gradient(&perturbed, &b, &settings).unwrap();

        let mut x = x_nominal;
        let mut ws = CgWorkspace::new();
        let warm = conjugate_gradient_into(&perturbed, &b, &mut x, &settings, &mut ws).unwrap();
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        for (w, c) in x.iter().zip(&x_cold) {
            assert!((w - c).abs() < 1e-7);
        }
    }

    #[test]
    fn zero_guess_reproduces_cold_path_bitwise() {
        let a = chain(64, 2.0, 0.05);
        let b: Vec<f64> = (0..64).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let settings = CgSettings::default();
        let (x_cold, rep_cold) = conjugate_gradient(&a, &b, &settings).unwrap();

        let mut x = vec![0.0; 64];
        let mut ws = CgWorkspace::new();
        let rep = conjugate_gradient_into(&a, &b, &mut x, &settings, &mut ws).unwrap();
        assert_eq!(rep.iterations, rep_cold.iterations);
        for (a_, b_) in x.iter().zip(&x_cold) {
            assert_eq!(a_.to_bits(), b_.to_bits());
        }
    }

    #[test]
    fn workspace_is_reusable_across_sizes() {
        let mut ws = CgWorkspace::new();
        let settings = CgSettings::default();
        for n in [8usize, 32, 16] {
            let a = chain(n, 1.0, 0.1);
            let b = vec![1.0; n];
            let mut x = vec![0.0; n];
            let rep = conjugate_gradient_into(&a, &b, &mut x, &settings, &mut ws).unwrap();
            assert!(rep.relative_residual <= settings.tolerance);
        }
    }

    #[test]
    fn wrong_guess_length_rejected() {
        let a = chain(3, 1.0, 0.1);
        let mut x = vec![0.0; 2];
        let mut ws = CgWorkspace::new();
        assert!(
            conjugate_gradient_into(&a, &[1.0; 3], &mut x, &CgSettings::default(), &mut ws)
                .is_err()
        );
    }

    /// The unfused iteration the fused [`cg_run`] replaced — one
    /// `vector` kernel per step, about seven passes per iteration — kept
    /// as the bitwise oracle.
    fn cg_run_unfused(
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        settings: &CgSettings,
        ws: &mut CgWorkspace,
    ) -> Result<CgReport, NumericError> {
        use crate::vector::{axpy, dot};
        let n = a.rows();
        let b_norm = norm2(b);
        if b_norm == 0.0 {
            x.fill(0.0);
            return Ok(CgReport {
                iterations: 0,
                relative_residual: 0.0,
            });
        }
        ws.ensure(n);
        let jacobi = settings.preconditioner == Preconditioner::Jacobi;
        if jacobi {
            a.diagonal_into(&mut ws.inv_diag);
            for d in &mut ws.inv_diag {
                *d = if *d != 0.0 { 1.0 / *d } else { 1.0 };
            }
        }
        a.matvec_into(x, &mut ws.ap);
        for i in 0..n {
            ws.r[i] = b[i] - ws.ap[i];
        }
        if jacobi {
            for i in 0..n {
                ws.z[i] = ws.r[i] * ws.inv_diag[i];
            }
        } else {
            ws.z.copy_from_slice(&ws.r);
        }
        ws.p.copy_from_slice(&ws.z);
        let mut rz = dot(&ws.r, &ws.z);
        let max_iters = settings.max_iterations.unwrap_or(10 * n.max(1));
        let stagnation_window = STAGNATION_WINDOW.max(n / 4);
        let mut best_rel = f64::INFINITY;
        let mut since_improved = 0usize;
        for iter in 0..max_iters {
            let rel = norm2(&ws.r) / b_norm;
            if rel <= settings.tolerance {
                return Ok(CgReport {
                    iterations: iter,
                    relative_residual: rel,
                });
            }
            if rel < STAGNATION_IMPROVEMENT * best_rel {
                best_rel = rel;
                since_improved = 0;
            } else {
                since_improved += 1;
                if since_improved >= stagnation_window {
                    return Err(NumericError::NoConvergence {
                        iterations: iter,
                        residual: rel,
                        stagnated: true,
                    });
                }
            }
            a.matvec_into(&ws.p, &mut ws.ap);
            let pap = dot(&ws.p, &ws.ap);
            if pap <= 0.0 {
                return Err(NumericError::NotPositiveDefinite {
                    pivot: iter,
                    value: pap,
                });
            }
            let alpha = rz / pap;
            axpy(alpha, &ws.p, x);
            axpy(-alpha, &ws.ap, &mut ws.r);
            if jacobi {
                for i in 0..n {
                    ws.z[i] = ws.r[i] * ws.inv_diag[i];
                }
            } else {
                ws.z.copy_from_slice(&ws.r);
            }
            let rz_new = dot(&ws.r, &ws.z);
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..n {
                ws.p[i] = ws.z[i] + beta * ws.p[i];
            }
        }
        let rel = norm2(&ws.r) / b_norm;
        if rel <= settings.tolerance {
            return Ok(CgReport {
                iterations: max_iters,
                relative_residual: rel,
            });
        }
        Err(NumericError::NoConvergence {
            iterations: max_iters,
            residual: rel,
            stagnated: false,
        })
    }

    /// A CG outcome with every float as its bit pattern: `(variant,
    /// iterations or pivot, residual or pᵀAp bits, stagnated)`.
    fn outcome_bits(res: &Result<CgReport, NumericError>) -> (&'static str, usize, u64, bool) {
        match res {
            Ok(rep) => ("ok", rep.iterations, rep.relative_residual.to_bits(), false),
            Err(NumericError::NoConvergence {
                iterations,
                residual,
                stagnated,
            }) => (
                "no_convergence",
                *iterations,
                residual.to_bits(),
                *stagnated,
            ),
            Err(NumericError::NotPositiveDefinite { pivot, value }) => {
                ("not_positive_definite", *pivot, value.to_bits(), false)
            }
            Err(other) => panic!("unexpected CG error {other:?}"),
        }
    }

    /// Runs the fused solver and the unfused oracle from the same guess
    /// and asserts identical x bits and outcome; returns the outcome.
    fn assert_matches_oracle(
        a: &CsrMatrix,
        b: &[f64],
        guess: &[f64],
        settings: &CgSettings,
    ) -> Result<CgReport, NumericError> {
        let mut x = guess.to_vec();
        let fused = conjugate_gradient_into(a, b, &mut x, settings, &mut CgWorkspace::new());
        let mut x_oracle = guess.to_vec();
        let oracle = cg_run_unfused(a, b, &mut x_oracle, settings, &mut CgWorkspace::new());
        assert_eq!(outcome_bits(&fused), outcome_bits(&oracle));
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&x_oracle), "iterate bits differ");
        fused
    }

    /// Grounded `nx × ny` grid Laplacian: 4-neighbour conductances from
    /// `edges`, a ground leak from `leaks` on every node, and `shift`
    /// subtracted from node 0's diagonal (a large shift makes the
    /// matrix indefinite).
    fn grid(nx: usize, ny: usize, edges: &[f64], leaks: &[f64], shift: f64) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        let mut diag: Vec<f64> = leaks[..n].to_vec();
        diag[0] -= shift;
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                for (j, g) in [
                    (x + 1 < nx).then(|| (i + 1, edges[2 * i])),
                    (y + 1 < ny).then(|| (i + nx, edges[2 * i + 1])),
                ]
                .into_iter()
                .flatten()
                {
                    coo.push(i, j, -g);
                    coo.push(j, i, -g);
                    diag[i] += g;
                    diag[j] += g;
                }
            }
        }
        for (i, d) in diag.into_iter().enumerate() {
            coo.push(i, i, d);
        }
        coo.to_csr()
    }

    #[test]
    fn fused_matches_oracle_on_every_exit() {
        let plain = |tolerance, max_iterations| CgSettings {
            tolerance,
            max_iterations,
            preconditioner: Preconditioner::None,
        };
        // Converged, cold and warm from the solution.
        let a = chain(50, 1.0, 0.1);
        let b = vec![1.0; 50];
        let settings = CgSettings::default();
        let (x, _) = conjugate_gradient(&a, &b, &settings).unwrap();
        assert!(assert_matches_oracle(&a, &b, &[0.0; 50], &settings).is_ok());
        let warm = assert_matches_oracle(&a, &b, &x, &settings).unwrap();
        assert_eq!(warm.iterations, 0);
        // Iteration cap.
        let a = chain(100, 1.0, 1e-6);
        let b = vec![1.0; 100];
        let capped = assert_matches_oracle(&a, &b, &[0.0; 100], &plain(1e-14, Some(7)));
        assert!(matches!(
            capped,
            Err(NumericError::NoConvergence {
                iterations: 7,
                stagnated: false,
                ..
            })
        ));
        // Stagnation.
        let a = chain(200, 1e8, 1e-8);
        let b = vec![1.0; 200];
        let stalled = assert_matches_oracle(&a, &b, &[0.0; 200], &plain(1e-16, Some(200_000)));
        assert!(matches!(
            stalled,
            Err(NumericError::NoConvergence {
                stagnated: true,
                ..
            })
        ));
        // Breakdown on an indefinite grid.
        let a = grid(4, 4, &[1.0; 32], &[0.1; 16], 50.0);
        let b: Vec<f64> = (0..16).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        let broke = assert_matches_oracle(&a, &b, &[0.0; 16], &plain(1e-10, None));
        assert!(matches!(
            broke,
            Err(NumericError::NotPositiveDefinite { .. })
        ));
        // Zero right-hand side.
        assert!(assert_matches_oracle(&a, &[0.0; 16], &[1.0; 16], &plain(1e-10, None)).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fused iteration reproduces the unfused oracle bit for
        /// bit — iterate, iteration count, residual, and error variant
        /// with its fields — on random grid Laplacians, both
        /// preconditioners, cold/warm/exact guesses, capped, stagnating
        /// and indefinite runs.
        #[test]
        fn prop_fused_matches_unfused_oracle(
            nx in 1_usize..12,
            ny in 1_usize..12,
            edges in proptest::collection::vec(0.1_f64..10.0, 242),
            leaks in proptest::collection::vec(0.0_f64..1.0, 121),
            conditioning in 0_u8..3,
            indefinite in 0_u8..5,
            shift in 0.0_f64..40.0,
            load in proptest::collection::vec(-2.0_f64..2.0, 121),
            guess_noise in proptest::collection::vec(-1.0_f64..1.0, 121),
            guess in 0_u8..3,
            jacobi in 0_u8..2,
            tolerance in 0_usize..3,
            cap in 0_usize..16,
        ) {
            let n = nx * ny;
            // Conditioning: moderate, weakly grounded, or stiff enough
            // (κ ≈ 10¹⁶) that roundoff stalls the residual.
            let (edge_scale, leaks): (f64, Vec<f64>) = match conditioning {
                0 => (1.0, leaks.iter().map(|l| 1e-3 + l).collect()),
                1 => (1.0, leaks.iter().map(|l| 1e-3 + l * 1e-6).collect()),
                _ => (1e8, vec![1e-8; 121]),
            };
            let edges: Vec<f64> = edges.iter().map(|g| g * edge_scale).collect();
            let shift = if indefinite == 0 { shift } else { 0.0 };
            let a = grid(nx, ny, &edges, &leaks, shift);
            let b = &load[..n];
            let settings = CgSettings {
                tolerance: [1e-10, 1e-16, 0.0][tolerance],
                // Half the draws keep the default `10·n` cap.
                max_iterations: (cap < 8).then_some(cap),
                preconditioner: if jacobi == 1 {
                    Preconditioner::Jacobi
                } else {
                    Preconditioner::None
                },
            };
            let x0 = match guess {
                0 => vec![0.0; n],
                1 => guess_noise[..n].to_vec(),
                _ => {
                    let mut x = vec![0.0; n];
                    let _ = cg_run_unfused(&a, b, &mut x, &CgSettings::default(), &mut CgWorkspace::new());
                    x
                }
            };
            let _ = assert_matches_oracle(&a, b, &x0, &settings);
        }

        /// CG agrees with Cholesky on random grounded Laplacian chains.
        #[test]
        fn prop_cg_matches_cholesky(
            g in 0.5_f64..5.0,
            gl in 0.05_f64..1.0,
            load in proptest::collection::vec(-2.0_f64..2.0, 8),
        ) {
            let n = load.len();
            let a = chain(n, g, gl);
            let (x_cg, _) = conjugate_gradient(&a, &load, &CgSettings::default()).unwrap();
            let dense = DenseMatrix::from_fn(n, n, |i, j| a.get(i, j));
            let x_ch = CholeskyFactor::new(&dense).unwrap().solve(&load).unwrap();
            for (c, d) in x_cg.iter().zip(&x_ch) {
                prop_assert!((c - d).abs() < 1e-6);
            }
        }
    }
}
