//! Slice-and-Dice gridding — the paper's contribution (§III).
//!
//! The oversampled grid is split into virtual tiles of side `T`; the tiles
//! are conceptually *stacked* into "dice", so each of the `T^d` relative
//! positions — a *column* — appears once per tile. A sample's coordinate
//! decomposes (div/mod `T`) into a tile coordinate and a relative
//! coordinate; a two-part boundary check (forward mod-`T` distance `< W`,
//! wrap iff `rel < p`) determines, per column, whether the sample affects
//! it and in which tile. Because `W ≤ T`, each sample touches **at most
//! one point per column**, so column owners never interact: no presort, no
//! duplicate processing, `M·T^d` checks total.
//!
//! Three execution modes mirror the paper's software variants:
//!
//! * [`SliceDiceMode::Serial`] — one worker plays all columns (reference).
//! * [`SliceDiceMode::ColumnParallel`] — the pure output-driven model:
//!   workers own disjoint column sets of the dice, scan the whole sample
//!   stream, and never synchronize (JIGSAW's structure in software).
//! * [`SliceDiceMode::BlockAtomic`] — the paper's *GPU* scheme: the sample
//!   stream is split across blocks, every block runs the column structure
//!   on its subset, and updates to the shared grid use atomic adds ("We
//!   use atomic addition instructions to ensure proper synchronization").
//! * [`SliceDiceMode::BlockReduce`] — same input split, but with private
//!   per-block grids merged deterministically at the end (an ablation on
//!   the atomic traffic).

use super::{validate_batch, worker_threads, Gridder};
use crate::config::GridParams;
use crate::decomp::{Decomposer, DimDecomp};
use crate::engine::{keys, WorkerPool};
use crate::lut::KernelLut;
use crate::stats::GridStats;
use jigsaw_num::{Complex, Float};
use jigsaw_telemetry as telemetry;
use jigsaw_testkit::{cancel, faultpoint};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

/// Samples between cooperative-cancellation checkpoints in the gridding
/// inner loops (power-of-two-minus-one mask). 1024 samples of window
/// accumulation cost tens of microseconds, so a cancelled job stops well
/// inside one chunk; the per-sample cost is one predictable mask test
/// (plus one relaxed load every 1024th sample — see
/// [`jigsaw_testkit::cancel::cancelled`]).
pub(crate) const CANCEL_CHECK_MASK: usize = 1023;

/// Execution strategy for [`SliceDiceGridder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SliceDiceMode {
    /// Single worker, dice-structured traversal.
    Serial,
    /// Output-driven: workers own disjoint dice columns (default).
    #[default]
    ColumnParallel,
    /// Input-driven blocks with atomic accumulation into the shared grid
    /// (the paper's GPU mapping). Non-deterministic accumulation order.
    BlockAtomic,
    /// Input-driven blocks with private grids and a deterministic merge.
    BlockReduce,
}

/// The Slice-and-Dice gridder.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceDiceGridder {
    /// Execution mode.
    pub mode: SliceDiceMode,
    /// Worker thread / block count (`None` = available parallelism).
    ///
    /// This controls the *partition* of work (and therefore, for the
    /// non-deterministic block modes, the reduction shape) — not how many
    /// OS threads exist: the partition's jobs are multiplexed onto the
    /// persistent global [`WorkerPool`].
    pub threads: Option<usize>,
}

impl SliceDiceGridder {
    /// Convenience constructor.
    pub fn new(mode: SliceDiceMode) -> Self {
        Self {
            mode,
            threads: None,
        }
    }
}

/// Per-dimension select-unit precomputation for one sample: for each
/// pipeline index `p ∈ [0, T)`, whether it is affected, its kernel weight,
/// and the tile coordinate it writes.
struct DimSelect {
    weight: [f64; 16],
    tile: [u32; 16],
    affected: [bool; 16],
}

impl DimSelect {
    #[inline]
    fn compute(dec: &Decomposer, lut: &KernelLut, dd: &DimDecomp) -> Self {
        let t = dec.tile() as usize;
        let mut s = DimSelect {
            weight: [0.0; 16],
            tile: [0; 16],
            affected: [false; 16],
        };
        for p in 0..t {
            let dist = dec.forward_distance(dd.rel, p as u32);
            if dec.affects(dist) {
                s.affected[p] = true;
                s.weight[p] = lut.lookup(dec.lut_index(dist, dd.phi2));
                s.tile[p] = dec.tile_for_pipeline(dd, p as u32);
            }
        }
        s
    }
}

impl<T: AtomicFloat, const D: usize> Gridder<T, D> for SliceDiceGridder {
    fn name(&self) -> &'static str {
        match self.mode {
            SliceDiceMode::Serial => "slice-and-dice (serial)",
            SliceDiceMode::ColumnParallel => "slice-and-dice (column-parallel)",
            SliceDiceMode::BlockAtomic => "slice-and-dice (block-atomic GPU model)",
            SliceDiceMode::BlockReduce => "slice-and-dice (block-reduce)",
        }
    }

    fn grid(
        &self,
        p: &GridParams,
        lut: &KernelLut,
        coords: &[[f64; D]],
        values: &[Complex<T>],
        out: &mut [Complex<T>],
    ) -> GridStats {
        if let Err(e) = validate_batch(p, coords, values, out) {
            panic!("invalid sample batch: {e}");
        }
        let _span = telemetry::span!("gridding.slice_dice", {
            dim: D,
            m: coords.len(),
            tile: p.tile,
        });
        let stats = match self.mode {
            SliceDiceMode::Serial => grid_columns(p, lut, coords, values, out, 1),
            SliceDiceMode::ColumnParallel => {
                grid_columns(p, lut, coords, values, out, worker_threads(self.threads))
            }
            SliceDiceMode::BlockAtomic => {
                grid_block_atomic(p, lut, coords, values, out, worker_threads(self.threads))
            }
            SliceDiceMode::BlockReduce => {
                grid_block_reduce(p, lut, coords, values, out, worker_threads(self.threads))
            }
        };
        stats.mirror("slice_dice");
        stats
    }
}

/// One column-owner's job: scan the *full* sample stream and accumulate
/// into a private slab of `chunk.len() / col_len` dice columns starting
/// at global column `first_col`. Shared verbatim by the pooled jobs and
/// the serial fallback so their per-column arithmetic is identical
/// instruction for instruction — the bitwise-equality guarantee rests on
/// this.
#[allow(clippy::too_many_arguments)]
fn columns_worker<T: Float, const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    t: usize,
    tiles: usize,
    col_len: usize,
    first_col: usize,
    chunk: &mut [Complex<T>],
) -> (u64, u64) {
    let my_cols = chunk.len() / col_len;
    let mut n_checks = 0u64;
    let mut n_accums = 0u64;
    for (i, (c, &v)) in coords.iter().zip(values).enumerate() {
        if i & CANCEL_CHECK_MASK == 0 && cancel::cancelled() {
            // Cooperative cancellation: stop mid-stream. The partial
            // column slab is discarded by the budget owner; checkpoints
            // never panic (a panic would trigger the bitwise serial
            // *retry* and defeat the cancellation).
            return (n_checks, n_accums);
        }
        // Select-unit precomputation, once per sample per dim.
        let sel: [DimSelect; D] = core::array::from_fn(|d| {
            let dd = dec.decompose(dec.quantize(c[d]));
            DimSelect::compute(dec, lut, &dd)
        });
        n_checks += my_cols as u64;
        for (slot, col_buf) in chunk.chunks_mut(col_len).enumerate() {
            let col = first_col + slot;
            // Decode column → per-dim pipeline indices.
            let mut pidx = [0usize; D];
            let mut rem = col;
            for d in (0..D).rev() {
                pidx[d] = rem % t;
                rem /= t;
            }
            let mut wt = 1.0;
            let mut addr = 0usize;
            let mut hit = true;
            for d in 0..D {
                let sd = &sel[d];
                let pi = pidx[d];
                if !sd.affected[pi] {
                    hit = false;
                    break;
                }
                wt *= sd.weight[pi];
                addr = addr * tiles + sd.tile[pi] as usize;
            }
            if hit {
                col_buf[addr] += v.scale(T::from_f64(wt));
                n_accums += 1;
            }
        }
    }
    (n_checks, n_accums)
}

/// Merge one worker's dice chunk (columns `first_col..`) into the
/// row-major output. Every (column, tile-address) pair maps to a unique
/// grid index, so chunks can merge in any order without changing a single
/// bit of the result.
fn merge_column_chunk<T: Float, const D: usize>(
    g: usize,
    t: usize,
    tiles: usize,
    col_len: usize,
    first_col: usize,
    chunk: &[Complex<T>],
    out: &mut [Complex<T>],
) {
    for (slot, col_buf) in chunk.chunks(col_len).enumerate() {
        let col = first_col + slot;
        let mut pidx = [0usize; D];
        let mut rem = col;
        for d in (0..D).rev() {
            pidx[d] = rem % t;
            rem /= t;
        }
        for (addr, &v) in col_buf.iter().enumerate() {
            let mut q = [0usize; D];
            let mut rem = addr;
            for d in (0..D).rev() {
                q[d] = rem % tiles;
                rem /= tiles;
            }
            let mut idx = 0usize;
            for d in 0..D {
                idx = idx * g + q[d] * t + pidx[d];
            }
            out[idx] += v;
        }
    }
}

/// Column-owned execution: split the `T^d` dice columns across workers;
/// every worker scans the full sample stream and accumulates into its
/// private columns. Deterministic (per-point order = stream order) for
/// any thread count: the partition only decides which worker owns a
/// column, never the order of accumulations within it.
fn grid_columns<T: Float, const D: usize>(
    p: &GridParams,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    out: &mut [Complex<T>],
    nthreads: usize,
) -> GridStats {
    let dec = Decomposer::new(p);
    let g = p.grid;
    let t = p.tile;
    let tiles = p.tiles_per_dim();
    let ncols = t.pow(D as u32);
    let col_len = tiles.pow(D as u32);
    let nthreads = nthreads.min(ncols).max(1);
    let cols_per_thread = ncols.div_ceil(nthreads);
    let njobs = ncols.div_ceil(cols_per_thread);

    let start = Instant::now();
    let mut total_checks = 0u64;
    let mut total_accums = 0u64;
    // Jobs run on the global pool; column slabs come from (and return
    // to) the owning worker's scratch arena.
    let pool = WorkerPool::global();
    let coords_shared: Arc<[[f64; D]]> = coords.into();
    let values_shared: Arc<[Complex<T>]> = values.into();
    let lut_shared = lut.clone();
    let (tx, rx) = channel();
    let run = pool.try_run(njobs, move |tid, arena| {
        faultpoint!(crate::fault::GRIDDING_CHUNK);
        let first_col = tid * cols_per_thread;
        let my_cols = cols_per_thread.min(ncols - first_col);
        let mut chunk = arena.take_vec(
            keys::DICE_COLUMNS,
            my_cols * col_len,
            Complex::<T>::zeroed(),
        );
        let (chk, acc) = columns_worker(
            &dec,
            &lut_shared,
            &coords_shared,
            &values_shared,
            t,
            tiles,
            col_len,
            first_col,
            &mut chunk,
        );
        let _ = tx.send((tid, chunk, chk, acc));
    });
    if run.is_err() {
        // Contained job panic. The trait surface is infallible and
        // column chunks merge only in the drain below (never
        // reached), so `out` is pristine: redo all columns in one
        // serial pass — bitwise identical, the partition only
        // decides ownership.
        crate::engine::note_serial_fallback("gridding.slice_dice.columns");
        drop(rx);
        let dec = Decomposer::new(p);
        let mut dice = vec![Complex::<T>::zeroed(); ncols * col_len];
        let (chk, acc) = columns_worker(&dec, lut, coords, values, t, tiles, col_len, 0, &mut dice);
        merge_column_chunk::<T, D>(g, t, tiles, col_len, 0, &dice, out);
        total_checks = chk;
        total_accums = acc;
    } else {
        for _ in 0..njobs {
            let Ok((tid, chunk, chk, acc)) = rx.recv() else {
                unreachable!("pooled column job result missing after clean run");
            };
            merge_column_chunk::<T, D>(g, t, tiles, col_len, tid * cols_per_thread, &chunk, out);
            pool.restore(tid, keys::DICE_COLUMNS, chunk);
            total_checks += chk;
            total_accums += acc;
        }
    }
    GridStats {
        samples: coords.len(),
        samples_processed: coords.len(),
        boundary_checks: total_checks,
        kernel_accumulations: total_accums,
        presort_seconds: 0.0,
        gridding_seconds: start.elapsed().as_secs_f64(),
        fft_seconds: 0.0,
        apod_seconds: 0.0,
    }
}

/// A shared grid of atomically updatable floats (split re/im planes).
///
/// Models the GPU `atomicAdd` the paper's Slice-and-Dice kernel uses when
/// multiple blocks write the shared output grid. Implemented with a
/// compare-exchange loop on the bit pattern — no unsafe code.
/// Atomic `f32` complex grid (re/im planes of `AtomicU32`).
pub struct AtomicGrid32 {
    re: Vec<AtomicU32>,
    im: Vec<AtomicU32>,
}

/// Atomic `f64` complex grid (re/im planes of `AtomicU64`).
pub struct AtomicGrid64 {
    re: Vec<AtomicU64>,
    im: Vec<AtomicU64>,
}

/// Floats that support lock-free atomic accumulation via bit-pattern CAS.
pub trait AtomicFloat: Float {
    /// The shared-grid representation for this precision (`Send + Sync`
    /// so the pooled jobs can share it via `Arc` across `'static`
    /// jobs).
    type Grid: Send + Sync + 'static;
    /// Allocate a zeroed atomic grid of `n` complex points.
    fn alloc_grid(n: usize) -> Self::Grid;
    /// `grid[idx] += v`, atomically per component.
    fn fetch_add(grid: &Self::Grid, idx: usize, v: Complex<Self>);
    /// Drain the grid into a complex buffer (`out[i] += grid[i]`).
    fn drain(grid: &Self::Grid, out: &mut [Complex<Self>]);
}

impl AtomicFloat for f32 {
    type Grid = AtomicGrid32;
    fn alloc_grid(n: usize) -> AtomicGrid32 {
        AtomicGrid32 {
            re: (0..n).map(|_| AtomicU32::new(0f32.to_bits())).collect(),
            im: (0..n).map(|_| AtomicU32::new(0f32.to_bits())).collect(),
        }
    }
    #[inline]
    fn fetch_add(grid: &AtomicGrid32, idx: usize, v: Complex<f32>) {
        cas_add_f32(&grid.re[idx], v.re);
        cas_add_f32(&grid.im[idx], v.im);
    }
    fn drain(grid: &AtomicGrid32, out: &mut [Complex<f32>]) {
        for (i, o) in out.iter_mut().enumerate() {
            o.re += f32::from_bits(grid.re[i].load(Ordering::Relaxed));
            o.im += f32::from_bits(grid.im[i].load(Ordering::Relaxed));
        }
    }
}

impl AtomicFloat for f64 {
    type Grid = AtomicGrid64;
    fn alloc_grid(n: usize) -> AtomicGrid64 {
        AtomicGrid64 {
            re: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
            im: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
        }
    }
    #[inline]
    fn fetch_add(grid: &AtomicGrid64, idx: usize, v: Complex<f64>) {
        cas_add_f64(&grid.re[idx], v.re);
        cas_add_f64(&grid.im[idx], v.im);
    }
    fn drain(grid: &AtomicGrid64, out: &mut [Complex<f64>]) {
        for (i, o) in out.iter_mut().enumerate() {
            o.re += f64::from_bits(grid.re[i].load(Ordering::Relaxed));
            o.im += f64::from_bits(grid.im[i].load(Ordering::Relaxed));
        }
    }
}

#[inline]
fn cas_add_f32(atom: &AtomicU32, v: f32) {
    if v == 0.0 {
        return;
    }
    let mut cur = atom.load(Ordering::Relaxed);
    loop {
        let new = (f32::from_bits(cur) + v).to_bits();
        match atom.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[inline]
fn cas_add_f64(atom: &AtomicU64, v: f64) {
    if v == 0.0 {
        return;
    }
    let mut cur = atom.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + v).to_bits();
        match atom.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Per-sample dice-structured scatter used by the block modes: enumerate
/// the `W^d` affected (pipeline, tile) pairs straight from the select-unit
/// view and emit (row-major index, weight) pairs.
#[inline]
fn for_each_window_point<const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    coord: &[f64; D],
    g: usize,
    t: usize,
    mut f: impl FnMut(usize, f64),
) -> u64 {
    let w = dec.width() as usize;
    let dds: [DimDecomp; D] = core::array::from_fn(|d| dec.decompose(dec.quantize(coord[d])));
    // Per dim: the W affected pipelines, their weights and tiles.
    let mut pidx = [[0u32; 16]; D];
    let mut wts = [[0.0f64; 16]; D];
    let mut tls = [[0u32; 16]; D];
    for d in 0..D {
        for j in 0..w {
            let dist = j as u32;
            // Affected pipeline at forward distance j: p = (rel − j) mod T.
            let p = (dds[d].rel + t as u32 - dist) % t as u32;
            pidx[d][j] = p;
            wts[d][j] = lut.lookup(dec.lut_index(dist, dds[d].phi2));
            tls[d][j] = dec.tile_for_pipeline(&dds[d], p);
        }
    }
    let mut count = 0u64;
    let mut sel = [0usize; D];
    loop {
        let mut idx = 0usize;
        let mut wt = 1.0;
        for d in 0..D {
            idx = idx * g + tls[d][sel[d]] as usize * t + pidx[d][sel[d]] as usize;
            wt *= wts[d][sel[d]];
        }
        f(idx, wt);
        count += 1;
        let mut d = D;
        loop {
            if d == 0 {
                return count;
            }
            d -= 1;
            sel[d] += 1;
            if sel[d] < w {
                break;
            }
            sel[d] = 0;
        }
    }
}

/// One input-block's job for the atomic mode: grid samples `lo..hi` into
/// the shared atomic grid. Shared by the pooled jobs and the serial fallback.
#[allow(clippy::too_many_arguments)]
fn block_atomic_worker<T: AtomicFloat, const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    g: usize,
    t: usize,
    lo: usize,
    hi: usize,
    shared: &T::Grid,
) -> u64 {
    let mut n = 0u64;
    for i in lo..hi {
        if (i - lo) & CANCEL_CHECK_MASK == 0 && cancel::cancelled() {
            return n; // cancelled: partial grid discarded by the owner
        }
        let v = values[i];
        n += for_each_window_point(dec, lut, &coords[i], g, t, |idx, wt| {
            T::fetch_add(shared, idx, v.scale(T::from_f64(wt)));
        });
    }
    n
}

/// Block-parallel execution with atomic accumulation (the GPU scheme).
fn grid_block_atomic<T: AtomicFloat, const D: usize>(
    p: &GridParams,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    out: &mut [Complex<T>],
    nthreads: usize,
) -> GridStats {
    let dec = Decomposer::new(p);
    let npoints = p.grid.pow(D as u32);
    let g = p.grid;
    let t = p.tile;
    let start = Instant::now();
    let m = coords.len();
    let nthreads = nthreads.min(m.max(1)).max(1);
    let chunk = m.div_ceil(nthreads);
    let total_accums: u64;
    let mut shared = Arc::new(T::alloc_grid(npoints));
    let pool = WorkerPool::global();
    let coords_shared: Arc<[[f64; D]]> = coords.into();
    let values_shared: Arc<[Complex<T>]> = values.into();
    let lut_shared = lut.clone();
    let shared_jobs = Arc::clone(&shared);
    let (tx, rx) = channel();
    let run = pool.try_run(nthreads, move |tid, _arena| {
        faultpoint!(crate::fault::GRIDDING_CHUNK);
        let lo = tid * chunk;
        let hi = ((tid + 1) * chunk).min(m);
        let n = if lo < hi {
            block_atomic_worker::<T, D>(
                &dec,
                &lut_shared,
                &coords_shared,
                &values_shared,
                g,
                t,
                lo,
                hi,
                &shared_jobs,
            )
        } else {
            0
        };
        let _ = tx.send(n);
    });
    if run.is_err() {
        // Contained job panic. Surviving jobs accumulated into the
        // shared atomic grid, so discard it wholesale and redo all
        // blocks in one serial pass over a fresh grid.
        crate::engine::note_serial_fallback("gridding.slice_dice.atomic");
        drop(rx);
        shared = Arc::new(T::alloc_grid(npoints));
        let dec = Decomposer::new(p);
        total_accums = block_atomic_worker::<T, D>(&dec, lut, coords, values, g, t, 0, m, &shared);
    } else {
        total_accums = (0..nthreads).map(|_| rx.recv().unwrap_or(0)).sum();
    }
    T::drain(&shared, out);
    GridStats {
        samples: m,
        samples_processed: m,
        boundary_checks: (m * p.tile.pow(D as u32)) as u64,
        kernel_accumulations: total_accums,
        presort_seconds: 0.0,
        gridding_seconds: start.elapsed().as_secs_f64(),
        fft_seconds: 0.0,
        apod_seconds: 0.0,
    }
}

/// One input-block's job for the reduce mode: grid samples `lo..hi` into
/// a private partial grid. Shared by the pooled jobs and the serial fallback.
#[allow(clippy::too_many_arguments)]
fn block_reduce_worker<T: Float, const D: usize>(
    dec: &Decomposer,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    g: usize,
    t: usize,
    lo: usize,
    hi: usize,
    partial: &mut [Complex<T>],
) -> u64 {
    let mut n = 0u64;
    for i in lo..hi {
        if (i - lo) & CANCEL_CHECK_MASK == 0 && cancel::cancelled() {
            return n; // cancelled: partial grid discarded by the owner
        }
        let v = values[i];
        n += for_each_window_point(dec, lut, &coords[i], g, t, |idx, wt| {
            partial[idx] += v.scale(T::from_f64(wt));
        });
    }
    n
}

/// Block-parallel execution with private grids + deterministic merge.
///
/// The merge runs in block order (`tid` ascending) whatever order the jobs finish in,
/// so for a fixed `threads` request the result is reproducible — though
/// unlike the column modes it is *not* bitwise equal to serial, because
/// splitting the sample stream reassociates the floating-point sums.
fn grid_block_reduce<T: Float, const D: usize>(
    p: &GridParams,
    lut: &KernelLut,
    coords: &[[f64; D]],
    values: &[Complex<T>],
    out: &mut [Complex<T>],
    nthreads: usize,
) -> GridStats {
    let dec = Decomposer::new(p);
    let npoints = p.grid.pow(D as u32);
    let g = p.grid;
    let t = p.tile;
    let m = coords.len();
    let nthreads = nthreads.min(m.max(1)).max(1);
    let chunk = m.div_ceil(nthreads);
    let start = Instant::now();
    let total_accums: u64;
    let pool = WorkerPool::global();
    let coords_shared: Arc<[[f64; D]]> = coords.into();
    let values_shared: Arc<[Complex<T>]> = values.into();
    let lut_shared = lut.clone();
    let (tx, rx) = channel();
    let run = pool.try_run(nthreads, move |tid, arena| {
        faultpoint!(crate::fault::GRIDDING_CHUNK);
        let lo = tid * chunk;
        let hi = ((tid + 1) * chunk).min(m);
        let mut partial = arena.take_vec(keys::PARTIAL_GRID, npoints, Complex::<T>::zeroed());
        let n = block_reduce_worker::<T, D>(
            &dec,
            &lut_shared,
            &coords_shared,
            &values_shared,
            g,
            t,
            lo,
            hi,
            &mut partial,
        );
        let _ = tx.send((tid, partial, n));
    });
    if run.is_err() {
        // Contained job panic. Partials merge into `out` only in
        // the drain below (never reached), so redo the whole
        // sample range in one serial block.
        crate::engine::note_serial_fallback("gridding.slice_dice.blocks");
        drop(rx);
        let dec = Decomposer::new(p);
        let mut partial = vec![Complex::<T>::zeroed(); npoints];
        total_accums =
            block_reduce_worker::<T, D>(&dec, lut, coords, values, g, t, 0, m, &mut partial);
        for (o, &v) in out.iter_mut().zip(&partial) {
            *o += v;
        }
    } else {
        // Deterministic merge: collect all partials, then fold them
        // in block (tid) order.
        let mut results: Vec<(usize, Vec<Complex<T>>, u64)> = rx.iter().collect();
        results.sort_unstable_by_key(|(tid, _, _)| *tid);
        let mut n = 0u64;
        for (tid, partial, acc) in results {
            for (o, &v) in out.iter_mut().zip(&partial) {
                *o += v;
            }
            pool.restore(tid, keys::PARTIAL_GRID, partial);
            n += acc;
        }
        total_accums = n;
    }
    GridStats {
        samples: m,
        samples_processed: m,
        boundary_checks: (m * p.tile.pow(D as u32)) as u64,
        kernel_accumulations: total_accums,
        presort_seconds: 0.0,
        gridding_seconds: start.elapsed().as_secs_f64(),
        fft_seconds: 0.0,
        apod_seconds: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridding::testutil::*;
    use crate::gridding::{BinnedGridder, SerialGridder};
    use jigsaw_num::C64;

    fn grids_match_bitwise(a: &[C64], b: &[C64], ctx: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ctx}: re differs at {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ctx}: im differs at {i}");
        }
    }

    #[test]
    fn serial_mode_matches_input_driven_serial() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(400, 64.0, 13);
        let mut a = vec![C64::zeroed(); 64 * 64];
        let mut b = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut a);
        SliceDiceGridder::new(SliceDiceMode::Serial).grid(&p, &lut, &coords, &values, &mut b);
        grids_match_bitwise(&a, &b, "slice-dice serial");
    }

    #[test]
    fn column_parallel_matches_serial_any_thread_count() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(300, 64.0, 99);
        let mut reference = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut reference);
        for threads in [1usize, 2, 7, 64] {
            let mut b = vec![C64::zeroed(); 64 * 64];
            SliceDiceGridder {
                mode: SliceDiceMode::ColumnParallel,
                threads: Some(threads),
            }
            .grid(&p, &lut, &coords, &values, &mut b);
            grids_match_bitwise(&reference, &b, &format!("threads={threads}"));
        }
    }

    #[test]
    fn block_reduce_matches_serial_within_fp_reassociation() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(500, 64.0, 3);
        let mut a = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut a);
        let mut b = vec![C64::zeroed(); 64 * 64];
        SliceDiceGridder {
            mode: SliceDiceMode::BlockReduce,
            threads: Some(4),
        }
        .grid(&p, &lut, &coords, &values, &mut b);
        let scale: f64 = a.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-12 * scale.max(1.0));
        }
    }

    #[test]
    fn block_atomic_matches_serial_within_fp_reassociation() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(500, 64.0, 4);
        let mut a = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut a);
        let mut b = vec![C64::zeroed(); 64 * 64];
        SliceDiceGridder {
            mode: SliceDiceMode::BlockAtomic,
            threads: Some(4),
        }
        .grid(&p, &lut, &coords, &values, &mut b);
        let scale: f64 = a.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).abs() < 1e-12 * scale.max(1.0));
        }
    }

    #[test]
    fn block_atomic_f32_matches_f64_reference() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values64) = sample_batch::<2>(300, 64.0, 8);
        let values32: Vec<jigsaw_num::C32> = values64
            .iter()
            .map(|v| jigsaw_num::C32::from_c64(*v))
            .collect();
        let mut a = vec![C64::zeroed(); 64 * 64];
        SerialGridder.grid(&p, &lut, &coords, &values64, &mut a);
        let mut b = vec![jigsaw_num::C32::zeroed(); 64 * 64];
        SliceDiceGridder {
            mode: SliceDiceMode::BlockAtomic,
            threads: Some(3),
        }
        .grid(&p, &lut, &coords, &values32, &mut b);
        let scale: f64 = a.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - y.to_c64()).abs() < 1e-4 * scale.max(1.0));
        }
    }

    #[test]
    fn boundary_check_count_is_m_t_d() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(100, 64.0, 6);
        let mut out = vec![C64::zeroed(); 64 * 64];
        let stats =
            SliceDiceGridder::new(SliceDiceMode::Serial).grid(&p, &lut, &coords, &values, &mut out);
        assert_eq!(stats.boundary_checks, 100 * 64); // M·T²
        assert_eq!(stats.kernel_accumulations, 100 * 36); // M·W²
        assert_eq!(stats.samples_processed, 100); // no duplication
        assert_eq!(stats.presort_seconds, 0.0); // no presort
    }

    #[test]
    fn three_dimensional_matches_serial() {
        let mut p = small_params();
        p.grid = 32;
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<3>(80, 32.0, 15);
        let n = 32usize.pow(3);
        let mut a = vec![C64::zeroed(); n];
        let mut b = vec![C64::zeroed(); n];
        SerialGridder.grid(&p, &lut, &coords, &values, &mut a);
        SliceDiceGridder {
            mode: SliceDiceMode::ColumnParallel,
            threads: Some(3),
        }
        .grid(&p, &lut, &coords, &values, &mut b);
        grids_match_bitwise(&a, &b, "3d");
    }

    #[test]
    fn agrees_with_binned_engine() {
        let p = small_params();
        let lut = KernelLut::from_params(&p);
        let (coords, values) = sample_batch::<2>(250, 64.0, 31);
        let mut a = vec![C64::zeroed(); 64 * 64];
        let mut b = vec![C64::zeroed(); 64 * 64];
        BinnedGridder::default().grid(&p, &lut, &coords, &values, &mut a);
        SliceDiceGridder::default().grid(&p, &lut, &coords, &values, &mut b);
        grids_match_bitwise(&a, &b, "binned vs slice-dice");
    }
}
