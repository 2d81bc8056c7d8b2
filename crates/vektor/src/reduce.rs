//! In-register reductions (building block 2) beyond the per-vector
//! `horizontal_sum`.
//!
//! The accumulation targets of the Tersoff kernel (total potential energy,
//! the six virial components, the force on the central atom `i`) are
//! *uniform across lanes*, so the reduction can stay in registers and only
//! one scalar add per vector hits memory — this is exactly the case the
//! paper distinguishes from OpenMP's reduction clause.

use crate::real::Real;
use crate::vector::SimdF;

/// Sum a slice the canonical way: one vector add per `W` elements into a
/// vector of partial sums, a masked tail, and a single horizontal reduction
/// at the end.
pub fn sum_slice<T: Real, const W: usize>(data: &[T]) -> T {
    let mut partial = SimdF::<T, W>::zero();
    let mut offset = 0;
    while offset + W <= data.len() {
        partial += SimdF::load(data, offset);
        offset += W;
    }
    if offset < data.len() {
        let (v, m) = SimdF::<T, W>::load_partial(data, offset, T::ZERO);
        partial += v.masked(m);
    }
    partial.horizontal_sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_slice_handles_tails() {
        let data: Vec<f64> = (1..=11).map(|x| x as f64).collect();
        assert_eq!(sum_slice::<f64, 4>(&data), 66.0);
        assert_eq!(sum_slice::<f64, 8>(&data), 66.0);
        assert_eq!(sum_slice::<f64, 16>(&data), 66.0);
        assert_eq!(sum_slice::<f64, 1>(&data), 66.0);
        assert_eq!(sum_slice::<f64, 4>(&[]), 0.0);
    }
}
