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
//!
//! The serial, density-compensation and planned scatters share
//! [`scatter_rowmajor`], which resolves the torus wrap once per sample, as
//! the paper's select unit does (§III, Figs. 4–5): when the innermost
//! window passes the run test ([`Window::run_start`], base `b ≥ W − 1`),
//! each row becomes one fixed-size `W`-lane update of contiguous grid
//! points — the software analogue of the pipeline array, where every
//! pipeline updates its own column with no further check. Wrapping
//! windows go tap by tap; both paths are bitwise identical.

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
    /// The run test: point `j` of a window with base `b` sits at `b − j`
    /// on the torus, so a base `b ≥ w − 1` covers the contiguous indices
    /// `b + 1 − w ..= b` without wrapping. Returns that run's first index
    /// (point `j` lands at `start + w − 1 − j`), or `None` when the window
    /// may wrap and must be visited tap by tap.
    fn run_start(&self, _w: usize) -> Option<usize> {
        None
    }
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
    #[inline(always)]
    fn run_start(&self, w: usize) -> Option<usize> {
        (self.idx[0] as usize + 1).checked_sub(w)
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
    #[inline(always)]
    fn run_start(&self, w: usize) -> Option<usize> {
        (self.base + 1).checked_sub(w)
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
///
/// Widths 2–8 (Table I's hardware range, less the single-tap `W = 1`)
/// take the `W`-lane row kernel whenever the innermost window passes the
/// run test ([`Window::run_start`]): its weights are reversed into a
/// `[f64; W]` once, and every row becomes one fixed-size update of `W`
/// contiguous grid points — the software analogue of the `T×T` pipelines
/// each updating its own column after the select unit resolved the base
/// once. Wrapping windows and other widths go tap by tap. Each grid point
/// receives `value.scale(T::from_f64(wy · wx_j))` once either way, so the
/// two paths are bitwise identical.
#[inline]
pub fn scatter_rowmajor<T: Float, const D: usize, Wd: Window>(
    g: usize,
    w: usize,
    wins: &[Wd; D],
    value: Complex<T>,
    out: &mut [Complex<T>],
) {
    match w {
        2 => scatter_runs::<T, D, Wd, 2>(g, wins, value, out),
        3 => scatter_runs::<T, D, Wd, 3>(g, wins, value, out),
        4 => scatter_runs::<T, D, Wd, 4>(g, wins, value, out),
        5 => scatter_runs::<T, D, Wd, 5>(g, wins, value, out),
        6 => scatter_runs::<T, D, Wd, 6>(g, wins, value, out),
        7 => scatter_runs::<T, D, Wd, 7>(g, wins, value, out),
        8 => scatter_runs::<T, D, Wd, 8>(g, wins, value, out),
        _ => scatter_taps(g, w, wins, value, out),
    }
}

/// Start of the innermost window's contiguous run when the row kernels
/// apply: `D` is 1–3 and that window passes the run test for width `w`.
#[inline(always)]
pub(crate) fn inner_run_start<const D: usize, Wd: Window>(
    wins: &[Wd; D],
    w: usize,
) -> Option<usize> {
    match D {
        1..=3 => wins[D - 1].run_start(w),
        _ => None,
    }
}

/// The `W` contiguous grid points starting at `start`.
#[inline(always)]
pub(crate) fn run<T, const W: usize>(grid: &[T], start: usize) -> &[T; W] {
    let len = grid.len();
    grid[start..]
        .first_chunk()
        .unwrap_or_else(|| panic!("run {start}+{W} overruns a {len}-point grid"))
}

#[inline(always)]
fn run_mut<T, const W: usize>(grid: &mut [T], start: usize) -> &mut [T; W] {
    let len = grid.len();
    grid[start..]
        .first_chunk_mut()
        .unwrap_or_else(|| panic!("run {start}+{W} overruns a {len}-point grid"))
}

/// One row of the row kernel: lane `k` adds `value · wts[k]` to its own
/// grid point, with no index arithmetic or wrap test inside the loop.
#[inline(always)]
fn scatter_row<T: Float, const W: usize>(
    row: &mut [Complex<T>; W],
    wts: &[f64; W],
    value: Complex<T>,
) {
    for (o, &wt) in row.iter_mut().zip(wts) {
        *o += value.scale(T::from_f64(wt));
    }
}

/// [`scatter_rowmajor`] monomorphised for width `W`.
#[inline(always)]
fn scatter_runs<T: Float, const D: usize, Wd: Window, const W: usize>(
    g: usize,
    wins: &[Wd; D],
    value: Complex<T>,
    out: &mut [Complex<T>],
) {
    let Some(x0) = inner_run_start(wins, W) else {
        return scatter_taps(g, W, wins, value, out);
    };
    // Column weights in run order: point `j` lands at `x0 + W − 1 − j`.
    let wx: [f64; W] = std::array::from_fn(|k| wins[D - 1].weight(W - 1 - k));
    match D {
        1 => scatter_row(run_mut(out, x0), &wx, value),
        2 => {
            for jy in 0..W {
                let wy = wins[0].weight(jy);
                let row = wins[0].index(jy) * g + x0;
                scatter_row(run_mut(out, row), &wx.map(|x| wy * x), value);
            }
        }
        _ => {
            for jz in 0..W {
                let plane = wins[0].index(jz) * g * g;
                let wz = wins[0].weight(jz);
                for jy in 0..W {
                    let row = plane + wins[1].index(jy) * g + x0;
                    let wyz = wz * wins[1].weight(jy);
                    scatter_row(run_mut(out, row), &wx.map(|x| wyz * x), value);
                }
            }
        }
    }
}

/// The per-tap scatter: every window point resolves its own (possibly
/// wrapped) grid index. Specialized inner loops for the 2-D and 3-D cases
/// the paper targets.
#[inline]
fn scatter_taps<T: Float, const D: usize, Wd: Window>(
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
        let mut next = uniform(seed);
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

    /// A xorshift stream of uniform draws in `[0, 1]`.
    pub fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as f64 / u64::MAX as f64
        }
    }

    /// Windows for the row-kernel property tests: the innermost dimension
    /// has base `inner`, the others pseudo-random bases, and every weight
    /// is a pseudo-random value in `[−1, 1)`.
    pub fn random_windows<const D: usize>(
        g: usize,
        w: usize,
        inner: usize,
        next: &mut impl FnMut() -> f64,
    ) -> [DimWindow; D] {
        std::array::from_fn(|d| {
            let base = if d == D - 1 {
                inner
            } else {
                (next() * g as f64) as usize % g
            };
            let mut win = DimWindow::default();
            for j in 0..w {
                win.idx[j] = ((base + g - j) % g) as u32;
                win.weight[j] = next() * 2.0 - 1.0;
            }
            win
        })
    }

    /// The inner-dimension bases the property tests cover for width `w`
    /// on a `g`-point grid: `w − 2` (wraps), `w − 1` (the first contiguous
    /// base) and `g − 1`.
    pub fn edge_bases(g: usize, w: usize) -> impl Iterator<Item = usize> {
        [w.checked_sub(2), Some(w - 1), Some(g - 1)]
            .into_iter()
            .flatten()
    }

    /// Bit patterns of a complex buffer, widened to `f64` (exact for `f32`).
    pub fn bits<T: Float>(zs: &[Complex<T>]) -> Vec<(u64, u64)> {
        zs.iter()
            .map(|z| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits()))
            .collect()
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

    /// Grid size for the row-kernel property tests: large enough for every
    /// width up to [`MAX_W`], small enough that 3-D stays cheap.
    const PROP_G: usize = 32;

    fn row_kernel_scatter_is_bitwise_per_tap<T: Float, const D: usize>() {
        let g = PROP_G;
        let mut next = uniform(0x5CA7 + D as u64);
        for w in 1..=MAX_W {
            for inner in edge_bases(g, w) {
                let wins = random_windows::<D>(g, w, inner, &mut next);
                assert_eq!(wins[D - 1].run_start(w).is_some(), inner + 1 >= w);
                let value = Complex::new(T::from_f64(next() - 0.5), T::from_f64(next() - 0.5));
                let init: Vec<Complex<T>> = (0..g.pow(D as u32))
                    .map(|_| Complex::new(T::from_f64(next()), T::from_f64(-next())))
                    .collect();
                let mut fast = init.clone();
                let mut taps = init;
                scatter_rowmajor(g, w, &wins, value, &mut fast);
                scatter_taps(g, w, &wins, value, &mut taps);
                assert_eq!(bits(&fast), bits(&taps), "D={D} W={w} inner base {inner}");
            }
        }
    }

    #[test]
    fn row_kernel_scatter_is_bitwise_per_tap_f64() {
        row_kernel_scatter_is_bitwise_per_tap::<f64, 1>();
        row_kernel_scatter_is_bitwise_per_tap::<f64, 2>();
        row_kernel_scatter_is_bitwise_per_tap::<f64, 3>();
    }

    #[test]
    fn row_kernel_scatter_is_bitwise_per_tap_f32() {
        row_kernel_scatter_is_bitwise_per_tap::<f32, 1>();
        row_kernel_scatter_is_bitwise_per_tap::<f32, 2>();
        row_kernel_scatter_is_bitwise_per_tap::<f32, 3>();
    }

    #[test]
    fn run_test_is_some_exactly_for_non_wrapping_bases() {
        let g = PROP_G;
        let weights = [0.0; MAX_W];
        for w in 1..=MAX_W {
            for base in 0..g {
                let phased = PhasedWindow {
                    base,
                    grid: g,
                    weights: &weights[..w],
                };
                let mut dim = DimWindow::default();
                for j in 0..w {
                    dim.idx[j] = phased.index(j) as u32;
                }
                let start = phased.run_start(w);
                assert_eq!(start.is_some(), base >= w - 1, "W={w} base {base}");
                assert_eq!(dim.run_start(w), start, "W={w} base {base}");
                if let Some(start) = start {
                    for j in 0..w {
                        assert_eq!(phased.index(j), start + w - 1 - j);
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
