//! Key-dependent workload generation: the toy AES-128 first-round S-box target and its
//! Hamming-weight/Hamming-distance power models, plus Gaussian background traffic layered
//! on the `tsc3d_power::activity` conventions.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use tsc3d_power::ActivitySampler;

/// The AES S-box (the first-round SubBytes table).
pub const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// How the target's power depends on the processed data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeakageModel {
    /// Hamming weight of the S-box output — the classic CPA model for precharged buses.
    HammingWeight,
    /// Hamming distance between the S-box input and output — the register-overwrite model.
    HammingDistance,
}

impl LeakageModel {
    /// The leakage (in abstract "bit-flip" units) of one S-box evaluation with plaintext
    /// byte `plaintext` under key byte `key`.
    #[inline]
    pub fn leakage(self, plaintext: u8, key: u8) -> u32 {
        let out = SBOX[(plaintext ^ key) as usize];
        match self {
            LeakageModel::HammingWeight => out.count_ones(),
            LeakageModel::HammingDistance => (out ^ plaintext).count_ones(),
        }
    }

    /// Stable label used in records and submissions.
    pub fn label(self) -> &'static str {
        match self {
            LeakageModel::HammingWeight => "hw",
            LeakageModel::HammingDistance => "hd",
        }
    }

    /// Parses [`LeakageModel::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "hw" => Some(LeakageModel::HammingWeight),
            "hd" => Some(LeakageModel::HammingDistance),
            _ => None,
        }
    }
}

/// Configuration of the key-dependent workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of key bytes the crypto core processes (and the attack targets), `1..=16`.
    pub key_bytes: usize,
    /// The data-dependent power model.
    pub leakage: LeakageModel,
    /// Extra target-module power per leakage unit, in watts. The data-dependent part of
    /// the trace: one encryption dwells on its inputs long enough for the thermal response
    /// to integrate this power delta (the repeated-input attacker of Gu et al.).
    pub watts_per_hw: f64,
    /// Relative sigma of the Gaussian background traffic on *all* modules (the
    /// `tsc3d_power::ActivitySampler` convention) — algorithmic noise for the attacker.
    pub background_sigma: f64,
}

/// Derives a deterministic AES key from a seed (one byte per attacked S-box).
pub fn derive_key(key_seed: u64, key_bytes: usize) -> Vec<u8> {
    use rand::SeedableRng;
    let mut rng = ChaCha8Rng::seed_from_u64(key_seed);
    (0..key_bytes).map(|_| rng.gen_range(0..=255u8)).collect()
}

/// One trace's activity: the plaintext bytes fed to the crypto core and the resulting
/// per-module power vector.
#[derive(Debug, Clone)]
pub struct TraceActivity {
    /// Plaintext byte per attacked S-box.
    pub plaintexts: Vec<u8>,
    /// Per-module power in watts (background traffic plus the key-dependent delta on the
    /// target module).
    pub powers: Vec<f64>,
    /// Total leakage units of this encryption (for diagnostics).
    pub leakage_units: u32,
}

/// The key-dependent workload of one scenario: a secret key inside a target module, plus
/// background traffic on every module.
#[derive(Debug, Clone)]
pub struct Workload {
    config: WorkloadConfig,
    key: Vec<u8>,
    background: ActivitySampler,
    target: usize,
}

impl Workload {
    /// Creates a workload.
    ///
    /// `nominal_powers` are the per-module baseline powers (typically the voltage-scaled
    /// powers of a finished flow); `target` is the module index hosting the crypto core.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != config.key_bytes`, `key_bytes` is outside `1..=16`, or
    /// `target` is out of range.
    pub fn new(
        config: WorkloadConfig,
        key: Vec<u8>,
        nominal_powers: Vec<f64>,
        target: usize,
    ) -> Self {
        assert!(
            (1..=16).contains(&config.key_bytes),
            "key_bytes must be in 1..=16"
        );
        assert_eq!(key.len(), config.key_bytes, "one key byte per S-box");
        assert!(target < nominal_powers.len(), "target module out of range");
        Self {
            config,
            key,
            background: ActivitySampler::with_means(nominal_powers, config.background_sigma),
            target,
        }
    }

    /// The secret key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The target module index.
    pub fn target(&self) -> usize {
        self.target
    }

    /// The workload configuration.
    pub fn config(&self) -> WorkloadConfig {
        self.config
    }

    /// Draws one trace: random plaintext bytes, background traffic, and the
    /// key-dependent power delta on the target module.
    ///
    /// The rng stream is consumed in a fixed order (plaintexts, then background), so a
    /// per-trace-seeded rng makes traces independent of execution order.
    pub fn draw_trace(&self, rng: &mut ChaCha8Rng) -> TraceActivity {
        let plaintexts: Vec<u8> = (0..self.config.key_bytes)
            .map(|_| rng.gen_range(0..=255u8))
            .collect();
        let leakage_units: u32 = plaintexts
            .iter()
            .zip(&self.key)
            .map(|(&p, &k)| self.config.leakage.leakage(p, k))
            .sum();
        let mut powers = self.background.sample(rng);
        powers[self.target] += self.config.watts_per_hw * leakage_units as f64;
        TraceActivity {
            plaintexts,
            powers,
            leakage_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &v in SBOX.iter() {
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Spot checks against FIPS-197.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn leakage_models_differ_and_stay_in_range() {
        for p in [0u8, 1, 0x53, 0xff] {
            for k in [0u8, 0xa5, 0x3c] {
                let hw = LeakageModel::HammingWeight.leakage(p, k);
                let hd = LeakageModel::HammingDistance.leakage(p, k);
                assert!(hw <= 8 && hd <= 8);
            }
        }
        // HW of SBOX[0] = HW(0x63) = 4.
        assert_eq!(LeakageModel::HammingWeight.leakage(0, 0), 4);
        assert_eq!(
            LeakageModel::from_label("hw"),
            Some(LeakageModel::HammingWeight)
        );
        assert_eq!(
            LeakageModel::from_label("hd"),
            Some(LeakageModel::HammingDistance)
        );
        assert_eq!(LeakageModel::from_label("xx"), None);
        assert_eq!(LeakageModel::HammingWeight.label(), "hw");
    }

    #[test]
    fn derived_keys_are_deterministic_and_seed_dependent() {
        assert_eq!(derive_key(7, 4), derive_key(7, 4));
        assert_ne!(derive_key(7, 4), derive_key(8, 4));
        assert_eq!(derive_key(7, 16).len(), 16);
    }

    #[test]
    fn traces_add_leakage_power_to_the_target_only() {
        let config = WorkloadConfig {
            key_bytes: 2,
            leakage: LeakageModel::HammingWeight,
            watts_per_hw: 0.1,
            background_sigma: 0.0,
        };
        let nominal = vec![1.0, 2.0, 0.5];
        let workload = Workload::new(config, derive_key(1, 2), nominal.clone(), 1);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let trace = workload.draw_trace(&mut rng);
        assert_eq!(trace.plaintexts.len(), 2);
        assert_eq!(trace.powers.len(), 3);
        // Zero background sigma: non-target modules sit exactly at nominal.
        assert_eq!(trace.powers[0], 1.0);
        assert_eq!(trace.powers[2], 0.5);
        let delta = trace.powers[1] - 2.0;
        assert!((delta - 0.1 * trace.leakage_units as f64).abs() < 1e-12);
    }

    #[test]
    fn per_trace_seeding_makes_traces_order_independent() {
        let config = WorkloadConfig {
            key_bytes: 1,
            leakage: LeakageModel::HammingDistance,
            watts_per_hw: 0.05,
            background_sigma: 0.1,
        };
        let workload = Workload::new(config, derive_key(2, 1), vec![1.0, 1.0], 0);
        let a = workload.draw_trace(&mut ChaCha8Rng::seed_from_u64(11));
        let b = workload.draw_trace(&mut ChaCha8Rng::seed_from_u64(11));
        assert_eq!(a.plaintexts, b.plaintexts);
        assert_eq!(a.powers, b.powers);
    }

    #[test]
    #[should_panic(expected = "key_bytes")]
    fn zero_key_bytes_rejected() {
        let config = WorkloadConfig {
            key_bytes: 0,
            leakage: LeakageModel::HammingWeight,
            watts_per_hw: 0.1,
            background_sigma: 0.0,
        };
        let _ = Workload::new(config, vec![], vec![1.0], 0);
    }
}
