//! Correlation power analysis (CPA) against sensor trace sets.
//!
//! For every key-byte guess the attack predicts the leakage of each trace's plaintext
//! under that guess and Pearson-correlates the prediction with every observation point
//! (sensor × temporal sample). The guess with the strongest absolute correlation wins;
//! the **measurements-to-disclosure** (MTD) of a byte is the smallest trace count from
//! which the true byte leads *and keeps leading* — the attacker's own currency, and the
//! metric this subsystem reports for mitigated vs. unmitigated floorplans.

use crate::workload::LeakageModel;

/// The attack outcome for one key byte.
#[derive(Debug, Clone, PartialEq)]
pub struct ByteResult {
    /// Index of the byte within the key.
    pub byte: usize,
    /// The true key byte (known to the evaluation, not the attacker).
    pub true_byte: u8,
    /// The attacker's best guess after all traces.
    pub best_guess: u8,
    /// Rank of the true byte among all 256 guesses (1 = recovered).
    pub rank: usize,
    /// The best absolute correlation achieved by the true byte's hypothesis.
    pub true_correlation: f64,
    /// The best absolute correlation achieved by any guess.
    pub best_correlation: f64,
    /// Measurements-to-disclosure: the smallest evaluated trace count from which the
    /// true byte leads at every later checkpoint; `None` if never (byte not recovered).
    pub mtd_traces: Option<usize>,
}

impl ByteResult {
    /// Whether the attack recovered this byte.
    pub fn recovered(&self) -> bool {
        self.rank == 1
    }
}

/// The full CPA outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CpaResult {
    /// Per-byte outcomes, in key order.
    pub bytes: Vec<ByteResult>,
    /// Traces used.
    pub traces: usize,
    /// The trace-count checkpoints at which disclosure was evaluated (ascending; the
    /// last one equals [`CpaResult::traces`]).
    pub checkpoints: Vec<usize>,
}

impl CpaResult {
    /// Number of recovered bytes (rank 1).
    pub fn recovered_bytes(&self) -> usize {
        self.bytes.iter().filter(|b| b.recovered()).count()
    }

    /// Guessing entropy in bits: `Σ log2(rank)` over the key bytes (0 = full recovery).
    pub fn guessing_entropy_bits(&self) -> f64 {
        self.bytes.iter().map(|b| (b.rank as f64).log2()).sum()
    }

    /// Measurements to *full-key* disclosure: the largest per-byte MTD, or `None` when
    /// any byte stays unrecovered.
    pub fn mtd_traces(&self) -> Option<usize> {
        let mut worst = 0usize;
        for byte in &self.bytes {
            worst = worst.max(byte.mtd_traces?);
        }
        Some(worst)
    }

    /// The strongest absolute correlation any guess of any byte achieved.
    pub fn best_correlation(&self) -> f64 {
        self.bytes
            .iter()
            .map(|b| b.best_correlation)
            .fold(0.0, f64::max)
    }
}

/// Incremental per-guess accumulators of one key byte.
struct ByteAccumulator {
    /// `Σ h` per guess.
    sh: Vec<f64>,
    /// `Σ h²` per guess.
    sh2: Vec<f64>,
    /// `Σ h·o` per `(guess, point)`.
    sho: Vec<f64>,
    /// Best guess observed at each checkpoint.
    best_at_checkpoint: Vec<u8>,
}

/// CPA as streaming running sums: traces are folded in one at a time **in trace order**
/// as the scenario engine produces them, so whole trace sets never materialise — memory
/// is `O(key bytes × 256 × points)` whatever the trace count. The accumulation order is
/// the trace order, so the result is a pure function of the trace sequence, independent
/// of how the traces were simulated or scheduled.
///
/// The total trace count is declared up front (it fixes the disclosure checkpoints);
/// feed exactly that many traces via [`CpaAccumulator::push`], then call
/// [`CpaAccumulator::finish`].
pub struct CpaAccumulator {
    key: Vec<u8>,
    model: LeakageModel,
    points: usize,
    traces: usize,
    marks: Vec<usize>,
    bytes: Vec<ByteAccumulator>,
    /// `Σ o` per point.
    so: Vec<f64>,
    /// `Σ o²` per point.
    so2: Vec<f64>,
    /// Final-checkpoint metric per (byte, guess), filled at the last mark.
    final_metric: Vec<Vec<f64>>,
    next_mark: usize,
    seen: usize,
}

impl CpaAccumulator {
    /// Creates the accumulator for an attack of `traces` traces against `key`, with
    /// `points` observation points per trace and disclosure evaluated at `checkpoints`
    /// evenly spaced trace counts (the last one being the full set).
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty or any count is zero.
    pub fn new(
        key: &[u8],
        model: LeakageModel,
        points: usize,
        traces: usize,
        checkpoints: usize,
    ) -> Self {
        assert!(!key.is_empty(), "at least one key byte required");
        assert!(points > 0, "at least one observation point required");
        assert!(traces > 0, "CPA needs at least one trace");
        assert!(checkpoints > 0, "at least one checkpoint required");
        // Evenly spaced checkpoint trace counts, deduplicated, ending at the full set.
        // (Manual ceiling division keeps the crate on the workspace's 1.70 MSRV.)
        let mut marks: Vec<usize> = (1..=checkpoints)
            .map(|i| (i * traces + checkpoints - 1) / checkpoints)
            .collect();
        marks.dedup();
        let bytes = (0..key.len())
            .map(|_| ByteAccumulator {
                sh: vec![0.0; 256],
                sh2: vec![0.0; 256],
                sho: vec![0.0; 256 * points],
                best_at_checkpoint: Vec::with_capacity(marks.len()),
            })
            .collect();
        Self {
            key: key.to_vec(),
            model,
            points,
            traces,
            final_metric: vec![vec![0.0f64; 256]; key.len()],
            marks,
            bytes,
            so: vec![0.0; points],
            so2: vec![0.0; points],
            next_mark: 0,
            seen: 0,
        }
    }

    /// Traces consumed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Folds one trace into the running sums, evaluating a disclosure checkpoint when
    /// this trace completes one.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or when more than the declared number of traces is
    /// pushed.
    pub fn push(&mut self, plaintexts: &[u8], samples: &[f64]) {
        assert_eq!(
            plaintexts.len(),
            self.key.len(),
            "one plaintext byte per S-box"
        );
        assert_eq!(
            samples.len(),
            self.points,
            "one sample per observation point"
        );
        assert!(
            self.seen < self.traces,
            "more traces pushed than the declared {}",
            self.traces
        );
        let points = self.points;
        for (p, &o) in samples.iter().enumerate() {
            self.so[p] += o;
            self.so2[p] += o * o;
        }
        for (acc, &plaintext) in self.bytes.iter_mut().zip(plaintexts) {
            for guess in 0..256usize {
                let h = self.model.leakage(plaintext, guess as u8) as f64;
                acc.sh[guess] += h;
                acc.sh2[guess] += h * h;
                let sho = &mut acc.sho[guess * points..(guess + 1) * points];
                for (p, &o) in samples.iter().enumerate() {
                    sho[p] += h * o;
                }
            }
        }
        self.seen += 1;

        if self.next_mark < self.marks.len() && self.seen == self.marks[self.next_mark] {
            let n = self.seen as f64;
            let last = self.next_mark + 1 == self.marks.len();
            for (acc, metrics_row) in self.bytes.iter_mut().zip(self.final_metric.iter_mut()) {
                let mut best_guess = 0u8;
                let mut best_metric = f64::NEG_INFINITY;
                for (guess, slot) in metrics_row.iter_mut().enumerate() {
                    let metric = best_abs_correlation(n, acc, guess, points, &self.so, &self.so2);
                    if metric > best_metric {
                        best_metric = metric;
                        best_guess = guess as u8;
                    }
                    if last {
                        *slot = metric;
                    }
                }
                acc.best_at_checkpoint.push(best_guess);
            }
            self.next_mark += 1;
            tsc3d_obs::add_to_span("cpa_checkpoints", 1);
            crate::obs_metrics::get().cpa_checkpoints.inc();
            let seen = self.seen as u64;
            tsc3d_obs::emit(|| tsc3d_obs::EventKind::Checkpoint {
                name: "cpa_traces",
                value: seen,
            });
        }
    }

    /// Finalises the attack after every declared trace arrived.
    ///
    /// # Panics
    ///
    /// Panics if fewer traces were pushed than declared.
    pub fn finish(self) -> CpaResult {
        let _span = tsc3d_obs::span!("cpa_finish");
        assert_eq!(
            self.seen, self.traces,
            "finish called after {} of {} traces",
            self.seen, self.traces
        );
        let marks = self.marks;
        let results = self
            .bytes
            .iter()
            .enumerate()
            .map(|(b, acc)| {
                let true_byte = self.key[b];
                let metrics = &self.final_metric[b];
                let true_metric = metrics[true_byte as usize];
                // Deterministic rank: guesses strictly better, plus equal-metric guesses
                // with a smaller index (the argmax tie-break).
                let rank = 1 + metrics
                    .iter()
                    .enumerate()
                    .filter(|&(g, &m)| {
                        g != true_byte as usize
                            && (m > true_metric || (m == true_metric && g < true_byte as usize))
                    })
                    .count();
                let (best_guess, best_metric) = metrics.iter().enumerate().fold(
                    (0usize, f64::NEG_INFINITY),
                    |(bg, bm), (g, &m)| {
                        if m > bm {
                            (g, m)
                        } else {
                            (bg, bm)
                        }
                    },
                );
                // Disclosure: the first checkpoint from which the best guess stays
                // correct.
                let stable_from = acc
                    .best_at_checkpoint
                    .iter()
                    .rposition(|&g| g != true_byte)
                    .map(|wrong| wrong + 1)
                    .unwrap_or(0);
                let mtd_traces = (stable_from < marks.len()).then(|| marks[stable_from]);
                ByteResult {
                    byte: b,
                    true_byte,
                    best_guess: best_guess as u8,
                    rank,
                    true_correlation: true_metric.max(0.0),
                    best_correlation: best_metric.max(0.0),
                    mtd_traces,
                }
            })
            .collect();

        CpaResult {
            bytes: results,
            traces: self.traces,
            checkpoints: marks,
        }
    }
}

/// The best absolute Pearson correlation of one guess's hypothesis over all points,
/// computed from the running sums (`0` for degenerate variance).
#[inline]
fn best_abs_correlation(
    n: f64,
    acc: &ByteAccumulator,
    guess: usize,
    points: usize,
    so: &[f64],
    so2: &[f64],
) -> f64 {
    let sh = acc.sh[guess];
    let sh2 = acc.sh2[guess];
    let var_h = n * sh2 - sh * sh;
    if var_h <= 0.0 {
        return 0.0;
    }
    let sho = &acc.sho[guess * points..(guess + 1) * points];
    let mut best = 0.0f64;
    for p in 0..points {
        let var_o = n * so2[p] - so[p] * so[p];
        if var_o <= 0.0 {
            continue;
        }
        let cov = n * sho[p] - sh * so[p];
        let r = cov / (var_h * var_o).sqrt();
        best = best.max(r.abs());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{derive_key, LeakageModel, SBOX};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// One trace: its plaintext bytes and its observation points.
    type Trace = (Vec<u8>, Vec<f64>);

    /// Builds synthetic traces whose first point leaks `scale * HW(SBOX[p ^ key])` plus
    /// seeded Gaussian-ish noise of amplitude `noise`.
    fn synthetic(key: &[u8], traces: usize, scale: f64, noise: f64, seed: u64) -> Vec<Trace> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..traces)
            .map(|_| {
                let plaintexts: Vec<u8> =
                    (0..key.len()).map(|_| rng.gen_range(0..=255u8)).collect();
                let leak: f64 = plaintexts
                    .iter()
                    .zip(key)
                    .map(|(&p, &k)| SBOX[(p ^ k) as usize].count_ones() as f64)
                    .sum();
                let jitter = tsc3d_attack::standard_normal(&mut rng);
                // Point 0 carries the signal, point 1 is pure noise.
                let samples = vec![
                    293.0 + scale * leak + noise * jitter,
                    293.0 + noise * jitter,
                ];
                (plaintexts, samples)
            })
            .collect()
    }

    /// Folds `traces` into a fresh accumulator.
    fn accumulate(
        traces: &[Trace],
        key: &[u8],
        model: LeakageModel,
        checkpoints: usize,
    ) -> CpaAccumulator {
        let points = traces.first().map_or(1, |(_, samples)| samples.len());
        let mut acc = CpaAccumulator::new(key, model, points, traces.len(), checkpoints);
        for (plaintexts, samples) in traces {
            acc.push(plaintexts, samples);
        }
        acc
    }

    fn attack(traces: &[Trace], key: &[u8], model: LeakageModel, checkpoints: usize) -> CpaResult {
        accumulate(traces, key, model, checkpoints).finish()
    }

    #[test]
    fn cpa_recovers_the_key_from_clean_traces() {
        let key = derive_key(42, 2);
        let traces = synthetic(&key, 160, 0.05, 0.0, 1);
        let result = attack(&traces, &key, LeakageModel::HammingWeight, 8);
        assert_eq!(result.recovered_bytes(), 2);
        assert_eq!(result.guessing_entropy_bits(), 0.0);
        let mtd = result.mtd_traces().expect("key disclosed");
        assert!(mtd <= 160);
        assert!(result.best_correlation() > 0.5);
        for byte in &result.bytes {
            assert_eq!(byte.best_guess, byte.true_byte);
            assert!(byte.recovered());
            assert_eq!(byte.true_correlation, byte.best_correlation);
        }
    }

    #[test]
    fn cpa_fails_under_saturating_noise() {
        let key = derive_key(42, 2);
        let traces = synthetic(&key, 160, 0.05, 1e6, 2);
        let result = attack(&traces, &key, LeakageModel::HammingWeight, 8);
        assert!(
            result.recovered_bytes() < 2,
            "noise should defeat the attack"
        );
        assert!(result.mtd_traces().is_none());
        assert!(result.guessing_entropy_bits() > 0.0);
    }

    #[test]
    fn mtd_shrinks_with_cleaner_traces() {
        let key = derive_key(9, 1);
        let clean = attack(
            &synthetic(&key, 256, 0.05, 0.001, 3),
            &key,
            LeakageModel::HammingWeight,
            16,
        );
        let noisy = attack(
            &synthetic(&key, 256, 0.05, 0.35, 3),
            &key,
            LeakageModel::HammingWeight,
            16,
        );
        let clean_mtd = clean.mtd_traces().expect("clean traces disclose");
        // A `None` (undisclosed) noisy MTD is even better for the defender.
        if let Some(noisy_mtd) = noisy.mtd_traces() {
            assert!(
                noisy_mtd > clean_mtd,
                "noisy {noisy_mtd} vs clean {clean_mtd}"
            );
        }
    }

    #[test]
    fn checkpoints_end_at_the_full_set_and_are_monotone() {
        let key = derive_key(1, 1);
        let traces = synthetic(&key, 100, 0.05, 0.0, 4);
        let result = attack(&traces, &key, LeakageModel::HammingWeight, 7);
        assert_eq!(*result.checkpoints.last().unwrap(), 100);
        assert!(result.checkpoints.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn hamming_distance_model_recovers_a_hd_leaker() {
        let key = derive_key(5, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let traces: Vec<Trace> = (0..200)
            .map(|_| {
                let p: u8 = rng.gen_range(0..=255);
                let leak = (SBOX[(p ^ key[0]) as usize] ^ p).count_ones() as f64;
                (vec![p], vec![300.0 + 0.1 * leak])
            })
            .collect();
        let result = attack(&traces, &key, LeakageModel::HammingDistance, 4);
        assert_eq!(result.recovered_bytes(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_sets_are_rejected() {
        let _ = attack(&[], &[0], LeakageModel::HammingWeight, 4);
    }

    #[test]
    fn checkpoint_verdicts_match_a_fresh_attack_on_each_prefix() {
        // The running sums at a checkpoint equal the sums of a fresh attack on that
        // prefix (same traces, same order), so every streamed verdict must too.
        let key = derive_key(27, 3);
        for (noise, checkpoints) in [(0.0, 8), (0.2, 16), (50.0, 5)] {
            let traces = synthetic(&key, 120, 0.05, noise, 11);
            let streamed = accumulate(&traces, &key, LeakageModel::HammingWeight, checkpoints);
            assert_eq!(streamed.seen(), traces.len());
            for (i, &mark) in streamed.marks.iter().enumerate() {
                let prefix = attack(&traces[..mark], &key, LeakageModel::HammingWeight, 1);
                for (byte, acc) in prefix.bytes.iter().zip(&streamed.bytes) {
                    assert_eq!(
                        byte.best_guess, acc.best_at_checkpoint[i],
                        "noise {noise}, mark {mark}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "more traces pushed")]
    fn overfeeding_the_accumulator_panics() {
        let mut acc = CpaAccumulator::new(&[7], LeakageModel::HammingWeight, 1, 1, 1);
        acc.push(&[1], &[300.0]);
        acc.push(&[2], &[300.0]);
    }

    #[test]
    #[should_panic(expected = "finish called after")]
    fn underfeeding_the_accumulator_panics() {
        let acc = CpaAccumulator::new(&[7], LeakageModel::HammingWeight, 1, 2, 1);
        let _ = acc.finish();
    }
}
