//! Seeded input generation. Every input a workload sends is a pure
//! function of the workload seed and the input's index, so a run can
//! regenerate any request for the oracle check instead of keeping it.

use jigsaw_core::serve::{JobRequest, Priority, ServeOptions};
use jigsaw_core::traj::{self, GOLDEN_ANGLE};
use jigsaw_num::C64;

/// Image size of every serve request (grid G = 512).
pub const SERVE_N: usize = 256;
/// Spokes per serve request.
pub const SERVE_SPOKES: usize = 256;
/// Samples per spoke (`2N`, the readout length of a 256² radial scan).
pub const SAMPLES_PER_SPOKE: usize = 512;
/// Distinct trajectories `serve-hot` replays (the daemon's default
/// cache holds 8).
pub const HOT_TRAJECTORIES: u64 = 4;
/// Tag of the first set-up request (below the daemon's reserved
/// high-bit id range).
pub const SETUP_TAG: u64 = 1 << 62;

/// Independent input streams derived from one workload seed.
#[derive(Debug, Clone, Copy)]
#[repr(u64)]
pub enum Stream {
    /// Shuffle order of a trajectory window.
    Shuffle = 1,
    /// Sample values of a request.
    Values = 2,
    /// Where in the golden-angle sequence a workload starts.
    Origin = 3,
}

/// SplitMix64's finalizer: a bijection on `u64` with full avalanche.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of input `index` in `stream` of the workload seeded `seed`.
///
/// The result is always odd and, for a fixed `(seed, stream)`, distinct
/// for every index below 2^63: it is `(base + index) mod 2^63`, shifted
/// left one bit with the low bit set. `traj::shuffle` ORs its seed with
/// 1, which maps seeds `2k` and `2k + 1` to one permutation; seeds that
/// are already odd pass through it unchanged, so no two inputs share a
/// shuffle.
pub fn input_seed(seed: u64, stream: Stream, index: u64) -> u64 {
    let base = mix(mix(seed) ^ stream as u64);
    (base.wrapping_add(index) << 1) | 1
}

/// A xorshift64* generator for sample values.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from an [`input_seed`] (nonzero by construction).
    pub fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_signed(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Radial spokes `first .. first + spokes` of one never-repeating
/// golden-angle sequence, `samples` points each, spanning radius
/// `[−½, ½)` exactly as `traj::radial_2d` lays them out.
pub fn golden_window(first: u64, spokes: usize, samples: usize) -> Vec<[f64; 2]> {
    let mut out = Vec::with_capacity(spokes * samples);
    for s in 0..spokes as u64 {
        let (sin, cos) = ((first + s) as f64 * GOLDEN_ANGLE).sin_cos();
        for i in 0..samples {
            let r = (i as f64 + 0.5) / samples as f64 - 0.5;
            out.push([clamp_half(r * cos), clamp_half(r * sin)]);
        }
    }
    out
}

/// Keep a coordinate strictly inside `[−½, ½)`, as `traj` does.
fn clamp_half(v: f64) -> f64 {
    v.clamp(-0.5, 0.5 - 1e-9)
}

/// Which serve traffic mix a run generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Requests cycle through [`HOT_TRAJECTORIES`] windows.
    Hot,
    /// Every request takes the next window of the sequence.
    Churn,
}

/// The request stream of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeInputs {
    /// The traffic mix.
    pub mix: Mix,
    /// The workload seed.
    pub seed: u64,
    /// Spokes per window.
    pub spokes: usize,
    /// Samples per spoke.
    pub samples: usize,
}

impl ServeInputs {
    /// The full-size stream of a workload.
    pub fn new(mix: Mix, seed: u64) -> Self {
        Self {
            mix,
            seed,
            spokes: SERVE_SPOKES,
            samples: SAMPLES_PER_SPOKE,
        }
    }

    /// Samples per request.
    pub fn m(&self) -> usize {
        self.spokes * self.samples
    }

    /// Requests sent during set-up: the hot windows, which prime the
    /// cache; for churn, enough windows that no timed request reuses to
    /// fill the cache, so every timed insert evicts.
    pub fn setup_count(&self) -> u64 {
        match self.mix {
            Mix::Hot => HOT_TRAJECTORIES,
            Mix::Churn => ServeOptions::default().cache_capacity as u64,
        }
    }

    /// The trajectory window of timed request `i`.
    pub fn window(&self, i: u64) -> u64 {
        match self.mix {
            Mix::Hot => i % HOT_TRAJECTORIES,
            Mix::Churn => i + self.setup_count(),
        }
    }

    /// The shuffled coordinates of trajectory window `w`.
    pub fn coords(&self, w: u64) -> Vec<[f64; 2]> {
        let origin = mix(input_seed(self.seed, Stream::Origin, 0)) % 1_000_000;
        let mut coords = golden_window(origin + w * self.spokes as u64, self.spokes, self.samples);
        traj::shuffle(&mut coords, input_seed(self.seed, Stream::Shuffle, w));
        coords
    }

    /// Sample values for value stream index `v`.
    fn values(&self, v: u64) -> Vec<C64> {
        let mut rng = Rng::new(input_seed(self.seed, Stream::Values, v));
        (0..self.m())
            .map(|_| C64::new(rng.next_signed(), rng.next_signed()))
            .collect()
    }

    fn job(&self, tag: u64, window: u64, values: u64) -> JobRequest {
        JobRequest {
            tag,
            priority: Priority::Normal,
            n: SERVE_N as u32,
            budget_ms: 0,
            coords: self.coords(window),
            values: self.values(values),
        }
    }

    /// Timed request `i` (tag `i`); values use stream indices `0..`.
    pub fn request(&self, i: u64) -> JobRequest {
        self.job(i, self.window(i), i)
    }

    /// Set-up request `k`, on window `k`. Its tag and value stream index
    /// sit far above every timed request's.
    pub fn setup_request(&self, k: u64) -> JobRequest {
        self.job(SETUP_TAG + k, k, SETUP_TAG + k)
    }
}

/// The pixels the oracle checks in every serve reply, as offsets
/// `(k₀, k₁)` from the image centre. Fixed, not seeded, so every seed
/// samples the same radii — ¼, ½, ¾ and 0.95 of the half-width, in four
/// directions — and the error figure does not move with the pixel draw.
pub const ORACLE_OFFSETS: [(i64, i64); 4] = [(-32, 0), (45, 45), (-68, 68), (0, -121)];

/// [`ORACLE_OFFSETS`] as row-major indices into the `N²` image.
pub fn oracle_pixels() -> Vec<usize> {
    let half = (SERVE_N / 2) as i64;
    ORACLE_OFFSETS
        .iter()
        .map(|&(k0, k1)| ((k0 + half) * SERVE_N as i64 + (k1 + half)) as usize)
        .collect()
}

/// Direct adjoint NuDFT at a few pixels of an `n × n` image:
/// `Σ_j v_j e^{+2πi (k₀ν_{j,0} + k₁ν_{j,1})}` with `k = index − n/2`
/// per axis, the convention of `jigsaw_core::nudft::adjoint_nudft`.
pub fn nudft_pixels(n: usize, coords: &[[f64; 2]], values: &[C64], pixels: &[usize]) -> Vec<C64> {
    let two_pi = 2.0 * core::f64::consts::PI;
    pixels
        .iter()
        .map(|&p| {
            let k0 = (p / n) as f64 - (n / 2) as f64;
            let k1 = (p % n) as f64 - (n / 2) as f64;
            let mut acc = C64::zeroed();
            for (c, &v) in coords.iter().zip(values) {
                acc += v * C64::cis(two_pi * (k0 * c[0] + k1 * c[1]));
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_core::nudft::adjoint_nudft;
    use jigsaw_core::serve::{plan_key, PlanKey};
    use jigsaw_core::NufftConfig;
    use std::collections::HashSet;

    /// A reduced-size stream: same generator and seeds, fewer samples.
    fn small(mix: Mix, seed: u64) -> ServeInputs {
        ServeInputs {
            mix,
            seed,
            spokes: 8,
            samples: 16,
        }
    }

    fn key(inputs: &ServeInputs, req: &JobRequest) -> PlanKey {
        assert_eq!(req.coords.len(), inputs.m());
        plan_key(&NufftConfig::with_n(SERVE_N), &req.coords)
    }

    #[test]
    fn input_seeds_are_odd_and_never_alias_under_shuffle() {
        for seed in [0u64, 1, 2, 3, 42, u64::MAX] {
            let mut seen = HashSet::new();
            for i in 0..4096 {
                let s = input_seed(seed, Stream::Shuffle, i);
                assert_eq!(s & 1, 1);
                // What traj::shuffle actually uses.
                assert!(seen.insert(s | 1), "seed {seed}: input {i} aliases");
            }
        }
        // Neighbouring workload seeds (2k, 2k+1) give different inputs.
        assert_ne!(
            input_seed(2, Stream::Shuffle, 0),
            input_seed(3, Stream::Shuffle, 0)
        );
        assert_ne!(
            input_seed(2, Stream::Shuffle, 0),
            input_seed(2, Stream::Values, 0)
        );
    }

    /// Number of distinct keys (`PlanKey` is `Eq` but not `Hash`).
    fn distinct(keys: &[PlanKey]) -> usize {
        let mut seen: Vec<&PlanKey> = Vec::new();
        for k in keys {
            if !seen.contains(&k) {
                seen.push(k);
            }
        }
        seen.len()
    }

    #[test]
    fn churn_trajectories_have_pairwise_distinct_plan_keys() {
        for seed in [0u64, 1, 2, 3] {
            let inputs = small(Mix::Churn, seed);
            let keys: Vec<PlanKey> = (0..inputs.setup_count())
                .map(|k| key(&inputs, &inputs.setup_request(k)))
                .chain((0..256).map(|i| key(&inputs, &inputs.request(i))))
                .collect();
            assert_eq!(
                distinct(&keys),
                keys.len(),
                "seed {seed}: a churn key repeats"
            );
        }
    }

    #[test]
    fn hot_traffic_has_exactly_its_trajectory_count_of_keys() {
        for seed in [0u64, 1, 2, 3] {
            let inputs = small(Mix::Hot, seed);
            let primed: Vec<PlanKey> = (0..inputs.setup_count())
                .map(|k| key(&inputs, &inputs.setup_request(k)))
                .collect();
            assert_eq!(distinct(&primed) as u64, HOT_TRAJECTORIES);
            let mut all = primed.clone();
            all.extend((0..64).map(|i| key(&inputs, &inputs.request(i))));
            assert_eq!(
                distinct(&all) as u64,
                HOT_TRAJECTORIES,
                "seed {seed}: timed requests reuse exactly the primed keys"
            );
        }
    }

    #[test]
    fn full_size_hot_keys_are_distinct() {
        let inputs = ServeInputs::new(Mix::Hot, 7);
        let keys: Vec<PlanKey> = (0..inputs.setup_count())
            .map(|k| key(&inputs, &inputs.setup_request(k)))
            .collect();
        assert_eq!(distinct(&keys) as u64, HOT_TRAJECTORIES);
    }

    #[test]
    fn requests_regenerate_identically() {
        let inputs = small(Mix::Churn, 11);
        assert_eq!(inputs.request(5), inputs.request(5));
        assert_ne!(inputs.request(5).values, inputs.request(6).values);
        // Values of timed and set-up requests never coincide.
        assert_ne!(inputs.request(0).values, inputs.setup_request(0).values);
    }

    #[test]
    fn golden_window_matches_radial_2d() {
        let a = golden_window(0, 5, 12);
        let b = traj::radial_2d(5, 12, true);
        assert_eq!(a, b);
        let tail = golden_window(3, 2, 12);
        assert_eq!(tail, b[3 * 12..].to_vec());
    }

    #[test]
    fn pixel_oracle_matches_the_library_nudft() {
        let n = 8;
        let coords = traj::random_nd::<2>(40, 3);
        let mut rng = Rng::new(9);
        let values: Vec<C64> = (0..40)
            .map(|_| C64::new(rng.next_signed(), rng.next_signed()))
            .collect();
        let full = adjoint_nudft(n, &coords, &values, Some(1));
        let pixels = [0usize, 9, 27, 63];
        let some = nudft_pixels(n, &coords, &values, &pixels);
        for (&p, z) in pixels.iter().zip(&some) {
            assert!((full[p] - *z).abs() < 1e-12, "pixel {p}");
        }
    }
}
