//! Adjoint gridding engines.
//!
//! Gridding scatters each non-uniform sample's value, weighted by the
//! interpolation kernel, onto the `W^d` oversampled-grid points inside its
//! window (torus boundary conditions). This crate implements the full
//! lineage the paper discusses:
//!
//! | Engine | Paper analogue | Parallel model |
//! |---|---|---|
//! | [`SerialGridder`] | MIRT CPU baseline | input-driven, serial |
//! | [`NaiveOutputGridder`] | §II-C naive output-parallel | every point checks every sample |
//! | [`BinnedGridder`] | Impatient-style binning | presort + tile–bin pairs |
//! | [`SliceDiceGridder`] | the paper's contribution | stacked tiles, two-part check |
//!
//! All engines consume coordinates already mapped to oversampled-grid
//! units `u ∈ [0, G)` and quantized through the shared [`Decomposer`], and
//! all use the same [`KernelLut`]; consequently the deterministic engines
//! produce **bitwise identical** `f64` grids (verified by tests), because
//! every grid point accumulates the same weights in the same sample order.

pub mod binned;
pub mod naive;
pub mod serial;
pub mod slice_dice;

pub use binned::BinnedGridder;
pub use naive::NaiveOutputGridder;
pub use serial::{ExactGridder, LerpGridder, SerialGridder};
pub use slice_dice::{AtomicFloat, SliceDiceGridder, SliceDiceMode};

use crate::config::GridParams;
use crate::decomp::{Decomposer, DimDecomp};
use crate::lut::KernelLut;
use crate::stats::GridStats;
use crate::{Error, Result};
use jigsaw_num::{Complex, Float};

/// Maximum supported interpolation window width (per dimension). Engines
/// use fixed-size window scratch arrays; Table I's hardware range is 1–8.
pub const MAX_W: usize = 16;

/// An adjoint gridding engine: scatters samples onto the oversampled grid.
pub trait Gridder<T: Float, const D: usize>: Sync {
    /// Human-readable engine name (used by the bench harnesses).
    fn name(&self) -> &'static str;

    /// Accumulate `values` at `coords` (oversampled-grid units, `[0, G)`
    /// per dim) onto `out`, a row-major `[G; D]` grid. `out` is *not*
    /// cleared first, so multi-shot accumulation works.
    ///
    /// Returns instrumentation counters.
    fn grid(
        &self,
        p: &GridParams,
        lut: &KernelLut,
        coords: &[[f64; D]],
        values: &[Complex<T>],
        out: &mut [Complex<T>],
    ) -> GridStats;
}

/// Validate a sample batch against a grid configuration: matching lengths,
/// finite coordinates and values, and a correctly sized output buffer.
pub fn validate_batch<T: Float, const D: usize>(
    p: &GridParams,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    out: &[Complex<T>],
) -> Result<()> {
    if coords.len() != values.len() {
        return Err(Error::Data(format!(
            "coordinate count {} != value count {}",
            coords.len(),
            values.len()
        )));
    }
    if out.len() != p.grid.pow(D as u32) {
        return Err(Error::Data(format!(
            "output grid has {} points, expected {}^{} = {}",
            out.len(),
            p.grid,
            D,
            p.grid.pow(D as u32)
        )));
    }
    for (i, c) in coords.iter().enumerate() {
        if c.iter().any(|x| !x.is_finite()) {
            return Err(Error::Data(format!("non-finite coordinate at sample {i}")));
        }
    }
    for (i, v) in values.iter().enumerate() {
        if !v.is_finite() {
            return Err(Error::Data(format!("non-finite value at sample {i}")));
        }
    }
    Ok(())
}

/// One dimension of a sample's interpolation window, as the scatter and
/// gather kernels read it. Implemented by the materialized [`DimWindow`]
/// and by the planned paths' [`PhasedWindow`], which derives both values
/// on the fly; the kernels run identical floating-point operations in
/// identical order for either.
pub trait Window {
    /// Grid index of window point `j` (already torus-wrapped).
    fn index(&self, j: usize) -> usize;
    /// Kernel weight of window point `j`.
    fn weight(&self, j: usize) -> f64;
}

/// Per-dimension window of one sample: grid indices and kernel weights.
#[derive(Clone, Copy, Debug)]
pub struct DimWindow {
    /// Grid index of window point `j` (already torus-wrapped).
    pub idx: [u32; MAX_W],
    /// Kernel weight of window point `j`.
    pub weight: [f64; MAX_W],
}

impl Default for DimWindow {
    fn default() -> Self {
        Self {
            idx: [0; MAX_W],
            weight: [0.0; MAX_W],
        }
    }
}

impl Window for DimWindow {
    #[inline(always)]
    fn index(&self, j: usize) -> usize {
        self.idx[j] as usize
    }
    #[inline(always)]
    fn weight(&self, j: usize) -> f64 {
        self.weight[j]
    }
}

/// One sample's select-unit output in one dimension (§III, Fig. 4): the
/// window base `b` and the phase `φ` in half-LUT units. This is all a
/// planned trajectory stores per sample and dimension — 8 bytes; the
/// window's indices and weights are expanded from it by a
/// [`PhaseTable`] as the planned scatter and gather run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlannedWindow {
    /// Window base `b = ⌊u + W/2⌋ mod G`.
    pub(crate) base: u32,
    /// Phase `phi2 = 2·φ·L ∈ [0, 2L)`.
    pub(crate) phi2: u32,
}

impl PlannedWindow {
    /// Quantize and decompose one mapped coordinate `u` (oversampled-grid
    /// units) — the same decomposition [`sample_windows`] performs.
    #[inline]
    pub(crate) fn new(dec: &Decomposer, u: f64) -> Self {
        let d = dec.decompose(dec.quantize(u));
        Self {
            base: d.base,
            phi2: d.phi2,
        }
    }
}

/// The kernel weights of every window shape a grid configuration can
/// produce: row `phi2` holds `lut.lookup(lut_index(j, phi2))` for
/// `j ∈ [0, W)`. The table has `2L × W` entries (3 KiB at the defaults
/// `L = 32`, `W = 6`), the software analogue of the select unit reading
/// its small weight LUT instead of storing weights per sample.
#[derive(Clone, Debug)]
pub(crate) struct PhaseTable {
    grid: usize,
    width: usize,
    weights: Box<[f64]>,
}

impl PhaseTable {
    /// Tabulate the window weights of every phase for `p`.
    pub(crate) fn new(p: &GridParams, lut: &KernelLut) -> Self {
        let dec = Decomposer::new(p);
        let w = p.width as u32;
        let weights = (0..2 * p.table_oversampling as u32)
            .flat_map(|phi2| (0..w).map(move |j| lut.lookup(dec.lut_index(j, phi2))))
            .collect();
        Self {
            grid: p.grid,
            width: p.width,
            weights,
        }
    }

    /// Expand a planned window into its index/weight view.
    #[inline(always)]
    fn window(&self, pw: PlannedWindow) -> PhasedWindow<'_> {
        let row = pw.phi2 as usize * self.width;
        PhasedWindow {
            base: pw.base as usize,
            grid: self.grid,
            weights: &self.weights[row..row + self.width],
        }
    }

    /// Expand every dimension of one planned sample.
    #[inline(always)]
    pub(crate) fn windows<const D: usize>(
        &self,
        sample: &[PlannedWindow; D],
    ) -> [PhasedWindow<'_>; D] {
        sample.map(|pw| self.window(pw))
    }
}

/// A window expanded from a [`PlannedWindow`]: point `j` sits at grid
/// index `b − j` on the torus (one conditional add) and carries weight
/// `j` of its phase row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhasedWindow<'a> {
    base: usize,
    grid: usize,
    weights: &'a [f64],
}

impl Window for PhasedWindow<'_> {
    #[inline(always)]
    fn index(&self, j: usize) -> usize {
        if j <= self.base {
            self.base - j
        } else {
            self.base + self.grid - j
        }
    }
    #[inline(always)]
    fn weight(&self, j: usize) -> f64 {
        self.weights[j]
    }
}

/// Compute the per-dimension windows for one sample. Shared by the serial
/// and binned engines (the Slice-and-Dice engines use the select-unit
/// formulation instead, which tests prove equivalent).
#[inline]
pub fn sample_windows<const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    coord: &[f64; D],
) -> ([DimWindow; D], [DimDecomp; D]) {
    let w = dec.width() as usize;
    let mut wins = [DimWindow::default(); D];
    let mut decs = [DimDecomp {
        base: 0,
        rel: 0,
        tile: 0,
        phi2: 0,
    }; D];
    for d in 0..D {
        let dd = dec.decompose(dec.quantize(coord[d]));
        decs[d] = dd;
        for j in 0..w {
            let (k, t) = dec.window_point(&dd, j as u32);
            wins[d].idx[j] = k;
            wins[d].weight[j] = lut.lookup(t);
        }
    }
    (wins, decs)
}

/// Scatter one sample into a row-major grid given its per-dim windows.
/// Specialized inner loops for the 2-D and 3-D cases the paper targets.
#[inline]
pub fn scatter_rowmajor<T: Float, const D: usize, Wd: Window>(
    g: usize,
    w: usize,
    wins: &[Wd; D],
    value: Complex<T>,
    out: &mut [Complex<T>],
) {
    match D {
        1 => {
            for j in 0..w {
                let wt = T::from_f64(wins[0].weight(j));
                out[wins[0].index(j)] += value.scale(wt);
            }
        }
        2 => {
            // Dimension 0 is the row (slow axis), dimension 1 the column.
            for jy in 0..w {
                let row = wins[0].index(jy) * g;
                let wy = wins[0].weight(jy);
                for jx in 0..w {
                    let wt = T::from_f64(wy * wins[1].weight(jx));
                    out[row + wins[1].index(jx)] += value.scale(wt);
                }
            }
        }
        3 => {
            for jz in 0..w {
                let plane = wins[0].index(jz) * g * g;
                let wz = wins[0].weight(jz);
                for jy in 0..w {
                    let row = plane + wins[1].index(jy) * g;
                    let wyz = wz * wins[1].weight(jy);
                    for jx in 0..w {
                        let wt = T::from_f64(wyz * wins[2].weight(jx));
                        out[row + wins[2].index(jx)] += value.scale(wt);
                    }
                }
            }
        }
        _ => {
            // Generic odometer over the W^D window.
            let mut j = [0usize; D];
            loop {
                let mut idx = 0usize;
                let mut wt = 1.0;
                for d in 0..D {
                    idx = idx * g + wins[d].index(j[d]);
                    wt *= wins[d].weight(j[d]);
                }
                out[idx] += value.scale(T::from_f64(wt));
                let mut d = D;
                loop {
                    if d == 0 {
                        return;
                    }
                    d -= 1;
                    j[d] += 1;
                    if j[d] < w {
                        break;
                    }
                    j[d] = 0;
                }
            }
        }
    }
}

/// Number of worker threads to use for the parallel engines: explicit
/// request, else `available_parallelism`.
pub fn worker_threads(requested: Option<usize>) -> usize {
    requested
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
        .max(1)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::kernel::KernelKind;

    /// Standard small test configuration: G = 64, W = 6, L = 32, T = 8.
    pub fn small_params() -> GridParams {
        GridParams {
            grid: 64,
            width: 6,
            table_oversampling: 32,
            tile: 8,
            kernel: KernelKind::Auto.resolve(6, 2.0),
        }
    }

    /// Deterministic pseudo-random sample batch covering interior, edge
    /// (wrap), and exactly-on-grid coordinates.
    pub fn sample_batch<const D: usize>(
        m: usize,
        g: f64,
        seed: u64,
    ) -> (Vec<[f64; D]>, Vec<jigsaw_num::C64>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as f64 / u64::MAX as f64
        };
        let mut coords = Vec::with_capacity(m);
        let mut values = Vec::with_capacity(m);
        for i in 0..m {
            let mut c = [0.0; D];
            for x in c.iter_mut() {
                *x = match i % 7 {
                    0 => next() * 0.5,         // near the wrap edge
                    1 => g - next() * 0.5,     // near the other edge
                    2 => (next() * g).floor(), // exactly on a grid point
                    _ => next() * g,
                };
            }
            coords.push(c);
            values.push(jigsaw_num::C64::new(next() * 2.0 - 1.0, next() * 2.0 - 1.0));
        }
        (coords, values)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use jigsaw_num::C64;

    #[test]
    fn validate_batch_catches_mismatch() {
        let p = small_params();
        let coords = vec![[1.0, 2.0]];
        let values: Vec<C64> = vec![];
        let out = vec![C64::zeroed(); 64 * 64];
        assert!(validate_batch(&p, &coords, &values, &out).is_err());
    }

    #[test]
    fn validate_batch_catches_nonfinite() {
        let p = small_params();
        let out = vec![C64::zeroed(); 64 * 64];
        let bad_coord = vec![[f64::NAN, 1.0]];
        let v = vec![C64::one()];
        assert!(validate_batch(&p, &bad_coord, &v, &out).is_err());
        let good_coord = vec![[1.0, 1.0]];
        let bad_v = vec![C64::new(f64::INFINITY, 0.0)];
        assert!(validate_batch(&p, &good_coord, &bad_v, &out).is_err());
        assert!(validate_batch(&p, &good_coord, &v, &out).is_ok());
    }

    #[test]
    fn validate_batch_catches_wrong_grid_size() {
        let p = small_params();
        let out = vec![C64::zeroed(); 64]; // should be 64²
        assert!(validate_batch::<f64, 2>(&p, &[], &[], &out).is_err());
    }

    #[test]
    fn scatter_mass_conservation_2d() {
        // Total scattered mass = value × (Σ weights)².
        let p = small_params();
        let dec = crate::decomp::Decomposer::new(&p);
        let lut = KernelLut::from_params(&p);
        let coord = [17.3, 42.8];
        let (wins, _) = sample_windows(&dec, &lut, &coord);
        let mut out = vec![C64::zeroed(); 64 * 64];
        scatter_rowmajor(64, 6, &wins, C64::new(2.0, -1.0), &mut out);
        let total: C64 = out.iter().copied().sum();
        let wsum: f64 = (0..6).map(|j| wins[0].weight[j]).sum();
        let wsum2: f64 = (0..6).map(|j| wins[1].weight[j]).sum();
        let expect = C64::new(2.0, -1.0).scale(wsum * wsum2);
        assert!((total - expect).abs() < 1e-12);
    }

    use crate::lut::KernelLut;

    #[test]
    fn scatter_generic_matches_specialized_2d() {
        // The D = 2 fast path must agree with the generic odometer: compare
        // by running the odometer via a D = 2 call through the generic arm
        // — emulate by computing expected values manually.
        let p = small_params();
        let dec = crate::decomp::Decomposer::new(&p);
        let lut = KernelLut::from_params(&p);
        let coord = [5.5, 60.9]; // wraps in x
        let (wins, _) = sample_windows(&dec, &lut, &coord);
        let mut fast = vec![C64::zeroed(); 64 * 64];
        scatter_rowmajor(64, 6, &wins, C64::one(), &mut fast);
        let mut slow = vec![C64::zeroed(); 64 * 64];
        for jy in 0..6 {
            for jx in 0..6 {
                let idx = wins[0].idx[jy] as usize * 64 + wins[1].idx[jx] as usize;
                slow[idx] += C64::one().scale(wins[0].weight[jy] * wins[1].weight[jx]);
            }
        }
        assert_eq!(
            fast.iter().map(|z| z.re.to_bits()).collect::<Vec<_>>(),
            slow.iter().map(|z| z.re.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn phase_table_is_3_kib_at_the_defaults() {
        let p = crate::config::NufftConfig::with_n(256).grid_params();
        let table = PhaseTable::new(&p, &KernelLut::from_params(&p));
        assert_eq!(table.weights.len(), 2 * 32 * 6);
        assert_eq!(std::mem::size_of_val(&*table.weights), 3 * 1024);
    }

    #[test]
    fn phased_windows_equal_materialized_windows() {
        for (width, l) in [(6, 32), (5, 1), (8, 4)] {
            let mut p = small_params();
            p.width = width;
            p.table_oversampling = l;
            let dec = crate::decomp::Decomposer::new(&p);
            let lut = KernelLut::from_params(&p);
            let table = PhaseTable::new(&p, &lut);
            let (coords, _) = sample_batch::<2>(200, 64.0, 5);
            for c in &coords {
                let (wins, _) = sample_windows(&dec, &lut, c);
                let planned = [
                    PlannedWindow::new(&dec, c[0]),
                    PlannedWindow::new(&dec, c[1]),
                ];
                for (mat, phased) in wins.iter().zip(table.windows(&planned)) {
                    for j in 0..width {
                        assert_eq!(mat.index(j), phased.index(j), "W={width} L={l} at {c:?}");
                        assert_eq!(mat.weight[j].to_bits(), phased.weight(j).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn worker_threads_respects_request() {
        assert_eq!(worker_threads(Some(3)), 3);
        assert!(worker_threads(None) >= 1);
        assert_eq!(worker_threads(Some(0)), 1);
    }
}
