//! The offline use: Toeplitz CG-SENSE of a Shepp-Logan acquisition
//! through `sense::cg_sense_with`, the only load where the paper's
//! Slice-and-Dice gridder does real work. It is not a gated workload —
//! its solve time swung by 27–39 % of itself between runs on a shared
//! 2-vCPU host, past any allowed bound — so the `serve-hot` traced run
//! measures its layers: one traced solve, the solve's pieces through
//! their public entry points, and one coil through each gridding
//! engine.

use crate::inputs::{input_seed, Stream};
use crate::stats::{median, Metric, Outcome, Tally};
use crate::Report;
use jigsaw_core::gridding::{BinnedGridder, Gridder, SerialGridder, SliceDiceGridder};
use jigsaw_core::metrics::{nrmsd_percent, rel_l2};
use jigsaw_core::phantom::Phantom2d;
use jigsaw_core::recon::{CgDiagnostic, CgOptions, NormalOpKind};
use jigsaw_core::sense::{self, CoilMaps};
use jigsaw_core::toeplitz::ToeplitzOperator;
use jigsaw_core::traj;
use jigsaw_core::{NufftConfig, NufftPlan};
use jigsaw_num::C64;
use std::time::Instant;

/// Image size.
const N: usize = 256;
/// Receive coils.
const COILS: usize = 8;
/// Radial spokes: 1.2·(π/2)·N, the `jigsaw recon` default (M = 246 784).
const SPOKES: usize = 482;
/// Tikhonov weight.
const LAMBDA: f64 = 1e-4;
/// Relative-residual target.
const TOLERANCE: f64 = 1e-3;
/// Iteration cap.
const MAX_ITERATIONS: usize = 50;
/// Largest NRMSD against the phantom the solve may show, as a fraction
/// of the phantom's magnitude range.
const NRMSD_TOL: f64 = 0.05;
/// Normal-operator applications timed.
const APPLY_REPEATS: usize = 3;
/// Passes of coil 0 through each gridding engine.
const GRID_REPEATS: usize = 3;

/// NRMSD of a solve against the phantom, both peak-normalised, as a
/// fraction (`jigsaw recon` prints the same quantity in percent).
fn nrmsd(image: &[C64], truth: &[C64]) -> f64 {
    let norm = |v: &[C64]| -> Vec<C64> {
        let p = v.iter().map(|z| z.abs()).fold(0.0, f64::max).max(1e-30);
        v.iter().map(|z| z.unscale(p)).collect()
    };
    nrmsd_percent(&norm(image), &norm(truth)) / 100.0
}

fn record(tally: &mut Tally, ok: bool, failure: Outcome) {
    tally.record(if ok { Outcome::Ok } else { failure });
}

/// The CG-SENSE layers, timed with the program's telemetry on: 256²,
/// 8 `CoilMaps::synthetic` coils, 482 golden-angle spokes in seeded
/// random order, Shepp-Logan data from `sense::acquire`, λ = 1e-4,
/// relative residual 1e-3, 50-iteration cap.
pub fn layers(seed: u64) -> Result<Report, String> {
    let mut coords = traj::radial_2d(SPOKES, 2 * N, true);
    traj::shuffle(&mut coords, input_seed(seed, Stream::Shuffle, 0));
    let truth = Phantom2d::shepp_logan().rasterize_aa(N, 4);
    let plan = NufftPlan::<f64, 2>::new(NufftConfig::with_n(N)).map_err(|e| e.to_string())?;
    let maps = CoilMaps::synthetic(N, COILS);
    let data = sense::acquire(&plan, &maps, &truth, &coords).map_err(|e| e.to_string())?;
    let gridder = SliceDiceGridder::default();
    let mut tally = Tally::default();

    let options = CgOptions {
        max_iterations: MAX_ITERATIONS,
        tolerance: TOLERANCE,
        lambda: LAMBDA,
        ..Default::default()
    };
    let t0 = Instant::now();
    let out = sense::cg_sense_with(
        &plan,
        &maps,
        &data,
        &coords,
        &gridder,
        &options,
        NormalOpKind::Toeplitz,
    )
    .map_err(|e| format!("CG-SENSE solve: {e}"))?;
    let solve_s = t0.elapsed().as_secs_f64();
    let err = nrmsd(&out.image, &truth);
    tally.record(if out.diagnostic != CgDiagnostic::Converged {
        Outcome::NotConverged
    } else if err > NRMSD_TOL {
        Outcome::WrongOutput
    } else {
        Outcome::Ok
    });
    let iterations = out.residuals.len() as f64;

    let t0 = Instant::now();
    let rhs = sense::adjoint(&plan, &maps, &data, &coords, &gridder);
    let rhs_s = t0.elapsed().as_secs_f64();
    record(&mut tally, rhs.is_ok(), Outcome::Error);
    let t0 = Instant::now();
    let op = ToeplitzOperator::<2>::build_degradable(plan.config(), &coords, &[], &gridder, None);
    let build_s = t0.elapsed().as_secs_f64();
    let op = match op {
        Ok(Some(op)) => op,
        _ => return Err("Toeplitz operator build failed".into()),
    };
    // The normal operator's batch on the coil-weighted solution, as one
    // CG iteration applies it.
    let weighted: Vec<Vec<C64>> = (0..COILS)
        .map(|c| {
            out.image
                .iter()
                .zip(maps.map(c))
                .map(|(v, s)| *v * *s)
                .collect()
        })
        .collect();
    let refs: Vec<&[C64]> = weighted.iter().map(|w| w.as_slice()).collect();
    let mut applies = Vec::new();
    for _ in 0..APPLY_REPEATS {
        let t0 = Instant::now();
        let r = op.apply_batch(&refs);
        applies.push(t0.elapsed().as_secs_f64());
        record(&mut tally, r.is_ok(), Outcome::Error);
    }
    let apply_s = median(&applies);

    // Coil 0 through each gridding engine; the deterministic engines
    // must agree with the serial one.
    let mapped = plan.map_coords(&coords);
    let params = plan.grid_params();
    let engines: [&dyn Gridder<f64, 2>; 3] = [&SerialGridder, &gridder, &BinnedGridder::default()];
    let mut engine_s = [Vec::new(), Vec::new(), Vec::new()];
    let mut reference: Option<Vec<C64>> = None;
    let (mut checks, mut accums) = (0, 0);
    for _ in 0..GRID_REPEATS {
        for (e, engine) in engines.iter().enumerate() {
            let mut grid = vec![C64::zeroed(); params.grid * params.grid];
            let t0 = Instant::now();
            let stats = engine.grid(params, plan.lut(), &mapped, &data[0], &mut grid);
            engine_s[e].push(t0.elapsed().as_secs_f64());
            if e == 1 {
                (checks, accums) = (stats.boundary_checks, stats.kernel_accumulations);
            }
            match &reference {
                None => reference = Some(grid),
                Some(r) => record(&mut tally, rel_l2(&grid, r) <= 1e-12, Outcome::WrongOutput),
            }
        }
    }

    Ok(Report {
        tally,
        metrics: vec![
            Metric::new("sense.rhs_ms", rhs_s * 1e3, "ms"),
            Metric::new("toeplitz.build_ms", build_s * 1e3, "ms"),
            Metric::new("toeplitz.apply_batch_ms", apply_s * 1e3, "ms"),
            Metric::new(
                "recon.iter_ms",
                (solve_s - rhs_s - build_s) * 1e3 / iterations.max(1.0),
                "ms",
            ),
            Metric::new("recon.cg_iterations", iterations, "count"),
            Metric::new("gridding.serial_ms", median(&engine_s[0]) * 1e3, "ms"),
            Metric::new("gridding.slice_dice_ms", median(&engine_s[1]) * 1e3, "ms"),
            Metric::new("gridding.binned_ms", median(&engine_s[2]) * 1e3, "ms"),
            Metric::new("gridding.slice_dice_checks", checks as f64, "count"),
            Metric::new("gridding.kernel_accumulations", accums as f64, "count"),
        ],
        notes: vec![
            ("recon_solve_s", solve_s.to_string()),
            ("recon_nrmsd", err.to_string()),
            (
                "recon_unattributed_frac",
                (1.0 - (rhs_s + build_s + iterations * apply_s) / solve_s).to_string(),
            ),
        ],
    })
}
