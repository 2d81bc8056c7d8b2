//! Orthogonal periodic simulation box.
//!
//! The silicon benchmarks of the paper use a fully periodic orthorhombic box.
//! [`SimBox`] provides wrapping of coordinates back into the box, the
//! minimum-image displacement used by the naive neighbor builder and the
//! tests, and the geometric queries (volume, per-dimension lengths) needed by
//! the binning code and the pressure computation.

/// An orthogonal simulation box `[lo, hi)` in each dimension with periodic
/// boundary conditions.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SimBox {
    /// Lower bounds of the box in x, y, z (Å).
    pub lo: [f64; 3],
    /// Upper bounds of the box in x, y, z (Å).
    pub hi: [f64; 3],
    /// Periodicity flags per dimension (the benchmarks are fully periodic,
    /// but the decomposition tests also exercise non-periodic dimensions).
    pub periodic: [bool; 3],
}

impl SimBox {
    /// A fully periodic box spanning `[0, l)` in each dimension.
    pub fn cubic(l: f64) -> Self {
        Self::orthogonal([0.0; 3], [l; 3])
    }

    /// A fully periodic box with the given bounds.
    pub fn orthogonal(lo: [f64; 3], hi: [f64; 3]) -> Self {
        assert!(
            (0..3).all(|d| hi[d] > lo[d]),
            "box upper bounds must exceed lower bounds: lo={lo:?} hi={hi:?}"
        );
        SimBox {
            lo,
            hi,
            periodic: [true; 3],
        }
    }

    /// Edge lengths in each dimension.
    #[inline]
    pub fn lengths(&self) -> [f64; 3] {
        [
            self.hi[0] - self.lo[0],
            self.hi[1] - self.lo[1],
            self.hi[2] - self.lo[2],
        ]
    }

    /// Box volume in Å³.
    #[inline]
    pub fn volume(&self) -> f64 {
        let l = self.lengths();
        l[0] * l[1] * l[2]
    }

    /// Wrap a position into the primary cell along every periodic dimension.
    #[inline]
    pub fn wrap(&self, mut x: [f64; 3]) -> [f64; 3] {
        let l = self.lengths();
        for d in 0..3 {
            if !self.periodic[d] {
                continue;
            }
            // Positions never drift more than a couple of box lengths between
            // calls, so a loop is both exact and fast.
            while x[d] >= self.hi[d] {
                x[d] -= l[d];
            }
            while x[d] < self.lo[d] {
                x[d] += l[d];
            }
        }
        x
    }

    /// Minimum-image displacement `b - a`.
    #[inline]
    pub fn min_image(&self, a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
        let l = self.lengths();
        let mut d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
        for k in 0..3 {
            if self.periodic[k] {
                if d[k] > 0.5 * l[k] {
                    d[k] -= l[k];
                } else if d[k] < -0.5 * l[k] {
                    d[k] += l[k];
                }
            }
        }
        d
    }

    /// Squared minimum-image distance between two points.
    #[inline]
    pub fn distance_sq(&self, a: [f64; 3], b: [f64; 3]) -> f64 {
        let d = self.min_image(a, b);
        d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    }

    /// True if `x` lies inside the box (half-open interval per dimension).
    #[inline]
    pub fn contains(&self, x: [f64; 3]) -> bool {
        (0..3).all(|d| x[d] >= self.lo[d] && x[d] < self.hi[d])
    }

    /// Split the box into an `nx × ny × nz` grid of equal sub-boxes; returns
    /// the sub-box with grid coordinates `(ix, iy, iz)`. Sub-boxes are
    /// non-periodic views used by the domain decomposition; periodicity of
    /// the parent box is handled by the ghost exchange.
    pub fn subdomain(&self, grid: [usize; 3], coord: [usize; 3]) -> SimBox {
        let l = self.lengths();
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for d in 0..3 {
            assert!(
                grid[d] >= 1 && coord[d] < grid[d],
                "invalid decomposition grid"
            );
            let step = l[d] / grid[d] as f64;
            lo[d] = self.lo[d] + coord[d] as f64 * step;
            hi[d] = if coord[d] + 1 == grid[d] {
                self.hi[d]
            } else {
                self.lo[d] + (coord[d] + 1) as f64 * step
            };
        }
        SimBox {
            lo,
            hi,
            periodic: [false; 3],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_volume() {
        let b = SimBox::orthogonal([1.0, 2.0, 3.0], [2.0, 5.0, 10.0]);
        assert_eq!(b.lengths(), [1.0, 3.0, 7.0]);
        assert_eq!(b.volume(), 21.0);
        assert_eq!(SimBox::cubic(3.0).volume(), 27.0);
    }

    #[test]
    #[should_panic(expected = "upper bounds must exceed")]
    fn degenerate_box_panics() {
        SimBox::orthogonal([0.0; 3], [1.0, 0.0, 1.0]);
    }

    #[test]
    fn wrap_brings_positions_inside() {
        let b = SimBox::cubic(10.0);
        assert_eq!(b.wrap([11.0, -0.5, 5.0]), [1.0, 9.5, 5.0]);
        assert_eq!(b.wrap([10.0, 0.0, 29.0]), [0.0, 0.0, 9.0]);
        assert!(b.contains(b.wrap([123.4, -77.0, 5.0])));
    }

    #[test]
    fn wrap_ignores_nonperiodic_dims() {
        let mut b = SimBox::cubic(10.0);
        b.periodic = [true, false, true];
        assert_eq!(b.wrap([11.0, 11.0, 11.0]), [1.0, 11.0, 1.0]);
    }

    #[test]
    fn min_image_prefers_nearest_copy() {
        let b = SimBox::cubic(10.0);
        // Straight-line distance 9, periodic image distance 1.
        let d = b.min_image([0.5, 0.0, 0.0], [9.5, 0.0, 0.0]);
        assert!((d[0] - -1.0).abs() < 1e-12);
        assert_eq!(b.distance_sq([0.5, 0.0, 0.0], [9.5, 0.0, 0.0]), 1.0);
        // Interior pair is unaffected.
        let d = b.min_image([2.0, 2.0, 2.0], [3.0, 4.0, 5.0]);
        assert_eq!(d, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn min_image_is_antisymmetric() {
        let b = SimBox::cubic(7.0);
        let a = [0.2, 6.9, 3.0];
        let c = [6.8, 0.1, 3.5];
        let dab = b.min_image(a, c);
        let dba = b.min_image(c, a);
        for k in 0..3 {
            assert!((dab[k] + dba[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn subdomain_tiles_the_box() {
        let b = SimBox::cubic(12.0);
        let grid = [2, 3, 1];
        let mut total = 0.0;
        for ix in 0..2 {
            for iy in 0..3 {
                let sd = b.subdomain(grid, [ix, iy, 0]);
                total += sd.volume();
                assert!(!sd.periodic.iter().any(|&p| p));
            }
        }
        assert!((total - b.volume()).abs() < 1e-9);
        // Last subdomain's upper bound is exactly the parent's.
        let last = b.subdomain(grid, [1, 2, 0]);
        assert_eq!(last.hi, b.hi);
    }

    #[test]
    #[should_panic(expected = "invalid decomposition grid")]
    fn subdomain_rejects_out_of_range_coord() {
        SimBox::cubic(1.0).subdomain([2, 2, 2], [2, 0, 0]);
    }
}
