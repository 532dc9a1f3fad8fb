//! Vector kernels used by the iterative solvers.

/// The value [`dot`] starts its sum from: `Iterator::sum` over `f64`
/// starts at `-0.0`. Fused kernels that must reproduce `dot` bitwise
/// start their reductions here too.
pub(crate) const SUM_ZERO: f64 = -0.0;

/// Dot product.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y ← y + alpha·x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy dimension mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm.
#[must_use]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Infinity norm.
#[must_use]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Elementwise product `z = a ⊙ b`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn hadamard(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "hadamard dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// Sum of all elements.
#[must_use]
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn hadamard_and_sum() {
        assert_eq!(hadamard(&[1.0, 2.0], &[3.0, 4.0]), vec![3.0, 8.0]);
        assert_eq!(sum(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    #[should_panic(expected = "dot dimension mismatch")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn sum_zero_is_where_dot_starts() {
        assert_eq!(dot(&[], &[]).to_bits(), SUM_ZERO.to_bits());
        assert_eq!(dot(&[-0.0], &[1.0]).to_bits(), (-0.0_f64).to_bits());
    }

    #[test]
    fn norms_of_empty() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }
}
