//! Correlation power analysis (CPA) against sensor trace sets.
//!
//! For every key-byte guess the attack predicts the leakage of each trace's plaintext
//! under that guess and Pearson-correlates the prediction with every observation point
//! (sensor × temporal sample). The guess with the strongest absolute correlation wins;
//! the **measurements-to-disclosure** (MTD) of a byte is the smallest trace count from
//! which the true byte leads *and keeps leading* — the attacker's own currency, and the
//! metric this subsystem reports for mitigated vs. unmitigated floorplans.
//!
//! # Layout and the screened argmax
//!
//! The running sums are point-major: a key byte's `Σ h·o` is a `[point][guess]` array,
//! so folding a trace is one contiguous 256-lane multiply-add of the trace's hypothesis
//! row `h[g] = leakage(plaintext, g)` per point. Every `(guess, point)` sum still
//! receives the same addends in trace order.
//!
//! A guess's metric is `max_p |r|` with `r = cov / √(var_h · var_o)` over the points
//! whose `var_o > 0` (`0` when `var_h <= 0`). The last checkpoint computes all 256
//! metrics exactly, lane-wise across guesses: `var_o` once per point, `var_h` once per
//! guess and the same expression per element as a per-guess loop. Every other checkpoint
//! needs only the winning guess (first index on ties), which a screen finds without a
//! square root or a division per element:
//!
//! - a pair's surrogate `cov² · (1/var_o) / var_h` takes four roundings, so it is within
//!   ~4 ulp of the pair's true `ρ²` (from the same computed sums), and its computed `|r|`
//!   (product, square root, quotient) is within ~2.5 ulp of the true `|ρ|`; a guess's
//!   `a` is the largest surrogate over its points;
//! - so a guess that reaches the maximal metric has `a ≥ top · (1 − 18u)` (`u = 2⁻⁵³`,
//!   `top` the largest `a`), and the guesses with `a ≥ top · (1 − 1e-9)` are the
//!   candidates: only they get the exact metric, compared in index order.
//!
//! Those bounds need every intermediate in the normal range. The screen runs only while
//! `n ≤ 2²³` (so every `var_h` is an exact integer, `0` or in `[1, 2⁵²]`), every `var_o`
//! it uses lies in `[1e-90, 1e90]`, a Cauchy–Schwarz bound keeps `|cov|` below `1e45`,
//! and `top ≥ 1e-30` (a pair whose `cov²` underflows then stays far below `top`);
//! otherwise the exact pass decides that checkpoint. Either way every verdict, rank and
//! correlation equals the per-guess loop's bit for bit.

use crate::workload::LeakageModel;

/// Key-byte guesses per byte: the lane count of every per-byte sum.
const GUESSES: usize = 256;
/// A `var_o > 0` outside `[VAR_MIN, VAR_MAX]` sends a checkpoint to the exact pass.
const VAR_MIN: f64 = 1e-90;
/// See [`VAR_MIN`].
const VAR_MAX: f64 = 1e90;
/// The largest `|cov|` the screen admits (bounded a priori, see [`PointMoments`]).
const COV_MAX: f64 = 1e45;
/// The smallest screened top `a` the candidate bound is proven for.
const TOP_MIN: f64 = 1e-30;
/// Relative width of the candidate band below the screened top (≫ the 18 ulp bound).
const SCREEN_MARGIN: f64 = 1e-9;

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

/// The running sums of one key byte.
struct ByteAccumulator {
    /// `Σ h` per guess.
    sh: Vec<f64>,
    /// `Σ h²` per guess.
    sh2: Vec<f64>,
    /// `Σ h·o`, point-major: the 256 guesses of point `p` at `p * 256..`.
    sho: Vec<f64>,
    /// Per-guess metrics of the latest exact pass; the last checkpoint's are final.
    metrics: Vec<f64>,
    /// Best guess observed at each checkpoint.
    best_at_checkpoint: Vec<u8>,
}

/// The observation points' side of one checkpoint, shared by every key byte.
struct PointMoments<'a> {
    /// Traces folded in so far.
    n: f64,
    /// `Σ o` per point.
    so: &'a [f64],
    /// `n · Σ o² − (Σ o)²` per point; points with `var_o <= 0` are skipped.
    var_o: Vec<f64>,
    /// Whether the screen's intermediates stay normal for every byte:
    /// - every `var_o` is skipped or in `[VAR_MIN, VAR_MAX]`;
    /// - `|cov| <= COV_MAX`: by Cauchy–Schwarz `|cov| <= 2n·√(Σh² · Σo²)` with
    ///   `Σh² <= 64n`, and twice that bound covers the sums' own rounding;
    /// - `n <= 2²³`, so with `h` an integer in `[0, 8]` every `var_h` is exact: `0` or
    ///   in `[1, 2⁵²]`.
    screenable: bool,
}

impl<'a> PointMoments<'a> {
    fn of(seen: usize, so: &'a [f64], so2: &[f64]) -> Self {
        let n = seen as f64;
        let var_o: Vec<f64> = so
            .iter()
            .zip(so2)
            .map(|(&so, &so2)| n * so2 - so * so)
            .collect();
        // `4n · √(64n · Σo²) <= COV_MAX`, squared.
        let so2_max = COV_MAX * COV_MAX / (1024.0 * n * n * n);
        let screenable = seen <= 1 << 23
            && so2.iter().all(|&so2| so2 <= so2_max)
            && var_o
                .iter()
                .all(|&v| v <= 0.0 || (VAR_MIN..=VAR_MAX).contains(&v));
        Self {
            n,
            so,
            var_o,
            screenable,
        }
    }

    /// The points that take part: `(Σ o, var_o, row of Σ h·o)` for every `var_o > 0`.
    fn rows<'s>(&'s self, sho: &'s [f64]) -> impl Iterator<Item = (f64, f64, &'s [f64])> + 's {
        self.so
            .iter()
            .zip(&self.var_o)
            .zip(sho.chunks_exact(GUESSES))
            .filter(|((_, &var_o), _)| var_o > 0.0)
            .map(|((&so, &var_o), row)| (so, var_o, row))
    }
}

/// `|r|` of one `(guess, point)` pair from the running sums: the one expression the
/// lane-wise pass and the candidates' check share.
#[inline(always)]
fn abs_correlation(n: f64, sho: f64, sh: f64, so: f64, var_h: f64, var_o: f64) -> f64 {
    let cov = n * sho - sh * so;
    (cov / (var_h * var_o).sqrt()).abs()
}

/// The first index of the largest metric (the argmax tie-break the rank uses).
fn argmax(metrics: &[f64]) -> usize {
    let mut best = (0, f64::NEG_INFINITY);
    for (guess, &metric) in metrics.iter().enumerate() {
        if metric > best.1 {
            best = (guess, metric);
        }
    }
    best.0
}

impl ByteAccumulator {
    fn new(points: usize, checkpoints: usize) -> Self {
        Self {
            sh: vec![0.0; GUESSES],
            sh2: vec![0.0; GUESSES],
            sho: vec![0.0; GUESSES * points],
            metrics: vec![0.0; GUESSES],
            best_at_checkpoint: Vec::with_capacity(checkpoints),
        }
    }

    /// Folds one trace's hypothesis row `h` and samples into the sums.
    fn fold(&mut self, h: &[f64; GUESSES], samples: &[f64]) {
        for ((sh, sh2), &h) in self.sh.iter_mut().zip(&mut self.sh2).zip(h) {
            *sh += h;
            *sh2 += h * h;
        }
        for (row, &o) in self.sho.chunks_exact_mut(GUESSES).zip(samples) {
            for (sho, &h) in row.iter_mut().zip(h) {
                *sho += h * o;
            }
        }
    }

    /// `n · Σ h² − (Σ h)²` per guess.
    fn var_h(&self, n: f64) -> [f64; GUESSES] {
        let mut var_h = [0.0; GUESSES];
        for ((v, &sh), &sh2) in var_h.iter_mut().zip(&self.sh).zip(&self.sh2) {
            *v = n * sh2 - sh * sh;
        }
        var_h
    }

    /// The exact pass: every guess's metric into [`ByteAccumulator::metrics`].
    fn exact(&mut self, moments: &PointMoments, var_h: &[f64; GUESSES]) {
        let n = moments.n;
        self.metrics.fill(0.0);
        for (so, var_o, row) in moments.rows(&self.sho) {
            for (((best, &sho), &sh), &var_h) in
                self.metrics.iter_mut().zip(row).zip(&self.sh).zip(var_h)
            {
                *best = best.max(abs_correlation(n, sho, sh, so, var_h, var_o));
            }
        }
        for (best, &var_h) in self.metrics.iter_mut().zip(var_h) {
            if var_h <= 0.0 {
                *best = 0.0;
            }
        }
    }

    /// One guess's exact metric (the exact pass's value for that lane).
    fn metric(&self, moments: &PointMoments, var_h: f64, guess: usize) -> f64 {
        if var_h <= 0.0 {
            return 0.0;
        }
        let sh = self.sh[guess];
        moments
            .rows(&self.sho)
            .fold(0.0, |best: f64, (so, var_o, row)| {
                best.max(abs_correlation(moments.n, row[guess], sh, so, var_h, var_o))
            })
    }

    /// The winning guess of the exact metrics, found by the screen of the module docs;
    /// `None` where its rounding bounds are not proven.
    // Out of line: inlined into `push`, its lane loops ran ~15% slower.
    #[inline(never)]
    fn screen(&self, moments: &PointMoments, var_h: &[f64; GUESSES]) -> Option<usize> {
        if !moments.screenable {
            return None;
        }
        let n = moments.n;
        // Per guess, the largest `cov² / var_o` over the points: an elementwise maximum
        // (a select, so the lanes stay independent and vectorize).
        let mut peak = [0.0f64; GUESSES];
        for (so, var_o, row) in moments.rows(&self.sho) {
            let inv_o = 1.0 / var_o;
            for ((peak, &sho), &sh) in peak.iter_mut().zip(row).zip(&self.sh) {
                let cov = n * sho - sh * so;
                let a = cov * cov * inv_o;
                *peak = if a > *peak { a } else { *peak };
            }
        }
        // Then `/ var_h`, and the top over eight interleaved maxima (lanes again).
        let mut tops = [0.0f64; 8];
        for (peaks, var_h) in peak.chunks_exact_mut(8).zip(var_h.chunks_exact(8)) {
            for ((peak, &var_h), top) in peaks.iter_mut().zip(var_h).zip(&mut tops) {
                *peak = if var_h > 0.0 { *peak / var_h } else { 0.0 };
                *top = if *peak > *top { *peak } else { *top };
            }
        }
        let top = tops.iter().fold(0.0f64, |top, &a| top.max(a));
        if top < TOP_MIN {
            return None;
        }
        let floor = top * (1.0 - SCREEN_MARGIN);
        let mut best = (0, f64::NEG_INFINITY);
        for (guess, _) in peak.iter().enumerate().filter(|&(_, &a)| a >= floor) {
            let metric = self.metric(moments, var_h[guess], guess);
            if metric > best.1 {
                best = (guess, metric);
            }
        }
        Some(best.0)
    }
}

/// CPA as streaming running sums: traces are folded in one at a time **in trace order**
/// as the scenario engine produces them, so whole trace sets never materialise — memory
/// is `O(key bytes × 256 × points)` whatever the trace count. The accumulation order is
/// the trace order, so the result is a pure function of the trace sequence, independent
/// of how the traces were simulated or scheduled.
///
/// The sums are point-major and a checkpoint screens for its winner (module docs); the
/// outputs equal a per-guess accumulator's bit for bit.
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
            .map(|_| ByteAccumulator::new(points, marks.len()))
            .collect();
        Self {
            key: key.to_vec(),
            model,
            points,
            traces,
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
        for (p, &o) in samples.iter().enumerate() {
            self.so[p] += o;
            self.so2[p] += o * o;
        }
        let mut h = [0.0f64; GUESSES];
        for (acc, &plaintext) in self.bytes.iter_mut().zip(plaintexts) {
            for (guess, h) in h.iter_mut().enumerate() {
                *h = self.model.leakage(plaintext, guess as u8) as f64;
            }
            acc.fold(&h, samples);
        }
        self.seen += 1;

        if self.next_mark < self.marks.len() && self.seen == self.marks[self.next_mark] {
            self.checkpoint();
        }
    }

    /// Records every byte's best guess at the checkpoint the last trace completed: the
    /// screened winner, or the exact pass's (always at the last checkpoint, whose
    /// metrics [`CpaAccumulator::finish`] ranks).
    fn checkpoint(&mut self) {
        let moments = PointMoments::of(self.seen, &self.so, &self.so2);
        let last = self.next_mark + 1 == self.marks.len();
        for acc in &mut self.bytes {
            let var_h = acc.var_h(moments.n);
            let screened = if last {
                None
            } else {
                acc.screen(&moments, &var_h)
            };
            let best = screened.unwrap_or_else(|| {
                acc.exact(&moments, &var_h);
                argmax(&acc.metrics)
            });
            acc.best_at_checkpoint.push(best as u8);
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
                let metrics = &acc.metrics;
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
                let best_guess = argmax(metrics);
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
                    best_correlation: metrics[best_guess].max(0.0),
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

#[cfg(test)]
impl CpaAccumulator {
    /// Each byte's checkpoint verdicts so far, in run-length form (`guess*repeats` per
    /// run).
    pub(crate) fn verdict_runs(&self) -> Vec<String> {
        self.bytes
            .iter()
            .map(|acc| tests::runs(&acc.best_at_checkpoint))
            .collect()
    }
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

    /// Seeded smoke-shaped traces of `points` observation points near 293 K: point `p`
    /// leaks `0.004 · (p % 3)` K per unit of the key's summed leakage under `model`, and
    /// every point draws its own seeded Gaussian noise of amplitude `noise`.
    fn multi_point(
        key: &[u8],
        model: LeakageModel,
        traces: usize,
        points: usize,
        noise: f64,
        seed: u64,
    ) -> Vec<Trace> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..traces)
            .map(|_| {
                let plaintexts: Vec<u8> =
                    (0..key.len()).map(|_| rng.gen_range(0..=255u8)).collect();
                let leak: f64 = plaintexts
                    .iter()
                    .zip(key)
                    .map(|(&p, &k)| model.leakage(p, k) as f64)
                    .sum();
                let samples = (0..points)
                    .map(|p| {
                        let jitter = tsc3d_attack::standard_normal(&mut rng);
                        293.0 + 0.01 * p as f64 + 0.004 * (p % 3) as f64 * leak + noise * jitter
                    })
                    .collect();
                (plaintexts, samples)
            })
            .collect()
    }

    /// Run-length form of a checkpoint verdict sequence: `guess*repeats` per run.
    pub(super) fn runs(verdicts: &[u8]) -> String {
        let mut out: Vec<(u8, usize)> = Vec::new();
        for &guess in verdicts {
            match out.last_mut() {
                Some((last, count)) if *last == guess => *count += 1,
                _ => out.push((guess, 1)),
            }
        }
        let runs: Vec<String> = out.iter().map(|(g, n)| format!("{g}*{n}")).collect();
        runs.join(" ")
    }

    /// Outputs of one seeded smoke-shaped attack (`AttackConfig::smoke`'s 2 key bytes,
    /// 9 points, 192 traces and 192 checkpoints), recorded with the guess-major
    /// accumulator before the point-major rewrite, so an edit that moves the accumulator
    /// and its reference together still cannot drift silently.
    #[test]
    fn smoke_shaped_attack_matches_its_recorded_outputs() {
        let key = derive_key(2024, 2);
        let traces = multi_point(&key, LeakageModel::HammingWeight, 192, 9, 0.03, 7);
        let acc = accumulate(&traces, &key, LeakageModel::HammingWeight, 192);
        let verdicts: Vec<String> = acc
            .bytes
            .iter()
            .map(|b| runs(&b.best_at_checkpoint))
            .collect();
        let result = acc.finish();
        assert_eq!(key, [115, 142]);
        assert_eq!(
            verdicts[0],
            "0*1 6*1 107*1 220*1 16*1 212*1 165*1 134*3 179*2 135*1 189*1 38*3 135*3 234*2 \
             135*15 234*1 135*4 154*1 135*18 175*2 29*3 175*1 29*1 175*3 29*10 132*2 29*3 \
             132*4 115*3 132*3 115*61 212*2 115*1 212*12 115*2 212*1 115*17"
        );
        assert_eq!(
            verdicts[1],
            "0*1 6*1 148*1 57*1 77*1 129*1 229*1 20*2 214*2 51*4 214*1 142*1 181*1 142*5 \
             103*2 166*1 142*5 103*1 142*160"
        );
        let pinned = [
            (Some(176), 0x3fd4_3c8e_c65d_3b8f_u64),
            (Some(33), 0x3fd8_ad25_fe97_73b1),
        ];
        for (byte, (mtd, correlation)) in result.bytes.iter().zip(pinned) {
            assert_eq!(byte.rank, 1);
            assert_eq!(byte.mtd_traces, mtd);
            assert_eq!(byte.true_correlation.to_bits(), correlation);
            assert_eq!(byte.best_correlation.to_bits(), correlation);
        }
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

    /// Runs the point-major accumulator and the guess-major reference side by side and
    /// requires the same verdict at every checkpoint, and the same final metrics and
    /// result, bit for bit. Returns how many byte-checkpoints the screen decided; it is
    /// also checked at the last checkpoint, where the accumulator takes the exact pass.
    fn differential(
        traces: &[Trace],
        key: &[u8],
        model: LeakageModel,
        checkpoints: usize,
    ) -> usize {
        let points = traces[0].1.len();
        let mut acc = CpaAccumulator::new(key, model, points, traces.len(), checkpoints);
        let mut oracle =
            reference::CpaAccumulator::new(key, model, points, traces.len(), checkpoints);
        let mut screened = 0;
        for (plaintexts, samples) in traces {
            let marks = acc.next_mark;
            acc.push(plaintexts, samples);
            oracle.push(plaintexts, samples);
            if acc.next_mark == marks {
                continue;
            }
            let moments = PointMoments::of(acc.seen, &acc.so, &acc.so2);
            for (byte, expected) in acc.bytes.iter().zip(&oracle.bytes) {
                let verdict = *expected.best_at_checkpoint.last().unwrap();
                let seen = acc.seen;
                assert_eq!(byte.best_at_checkpoint.last(), Some(&verdict), "{seen}");
                if let Some(guess) = byte.screen(&moments, &byte.var_h(moments.n)) {
                    assert_eq!(guess, verdict as usize, "screen at {seen} traces");
                    screened += 1;
                }
            }
        }
        let bits = |metrics: &[f64]| metrics.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        for (byte, expected) in acc.bytes.iter().zip(&oracle.final_metric) {
            assert_eq!(bits(&byte.metrics), bits(expected));
        }
        let (result, expected) = (acc.finish(), oracle.finish());
        assert_eq!(result, expected);
        for (byte, expected) in result.bytes.iter().zip(&expected.bytes) {
            assert_eq!(
                bits(&[byte.true_correlation, byte.best_correlation]),
                bits(&[expected.true_correlation, expected.best_correlation])
            );
        }
        screened
    }

    #[test]
    fn point_major_accumulator_matches_the_guess_major_reference() {
        let mut screened = 0;
        for (m, model) in [LeakageModel::HammingWeight, LeakageModel::HammingDistance]
            .into_iter()
            .enumerate()
        {
            for points in [1, 9, 18, 1024] {
                let traces = if points == 1024 { 24 } else { 96 };
                for checkpoints in [1, 7, traces] {
                    let seed = (m * 10_000 + points * 10 + checkpoints) as u64;
                    let key = derive_key(seed, 2);
                    let set = multi_point(&key, model, traces, points, 0.03, seed);
                    screened += differential(&set, &key, model, checkpoints);
                }
            }
        }
        assert!(
            screened > 1000,
            "the screen decided only {screened} verdicts"
        );
    }

    #[test]
    fn degenerate_and_out_of_range_sets_match_the_reference() {
        let key = derive_key(77, 2);
        let hw = LeakageModel::HammingWeight;
        // One trace leaves no variance; from two on, many guesses tie at |r| = 1 up to
        // rounding.
        for traces in 1..=3 {
            for model in [hw, LeakageModel::HammingDistance] {
                let set = multi_point(&key, model, traces, 9, 0.03, 8);
                differential(&set, &key, model, traces);
            }
        }
        // A constant point (var_o = 0 exactly) beside one whose variance is a rounding
        // residue.
        let mut set = multi_point(&key, hw, 64, 9, 0.03, 9);
        for (_, samples) in &mut set {
            samples[1] = 300.0;
            samples[2] = 293.1;
        }
        assert!(differential(&set, &key, hw, 64) > 0);
        // One repeated plaintext: var_h = 0 for every guess, so every metric is 0.
        let mut set = multi_point(&key, hw, 32, 9, 0.03, 10);
        for (plaintexts, _) in &mut set {
            plaintexts.copy_from_slice(&[0x3c, 0xa5]);
        }
        assert_eq!(differential(&set, &key, hw, 32), 0);
        // Samples scaled until the screen's intermediates could leave the normal range:
        // every checkpoint takes the exact pass.
        for scale in [1e150, 1e-150] {
            let mut set = multi_point(&key, hw, 64, 9, 0.03, 11);
            for (_, samples) in &mut set {
                samples.iter_mut().for_each(|sample| *sample *= scale);
            }
            assert_eq!(differential(&set, &key, hw, 64), 0, "scale {scale}");
        }
    }

    #[test]
    fn near_tied_guesses_match_the_reference() {
        // On plaintexts where the Hamming weights of guess `other` are the complements
        // (8 − h) of the true byte's, the two reach the same |ρ| through different
        // roundings; where they are equal, the two tie exactly.
        let hw = |p: u8, g: u8| LeakageModel::HammingWeight.leakage(p, g);
        let truth = 0x2b;
        let complement: fn(u32, u32) -> bool = |a, b| a + b == 8;
        let equal: fn(u32, u32) -> bool = |a, b| a == b;
        for (pair, exact_tie) in [(complement, false), (equal, true)] {
            let (other, pool) = (0..=255u8)
                .filter(|&g| g != truth)
                .map(|g| {
                    let pool: Vec<u8> = (0..=255u8)
                        .filter(|&p| pair(hw(p, truth), hw(p, g)))
                        .collect();
                    (g, pool)
                })
                .max_by_key(|(_, pool)| pool.len())
                .unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(u64::from(other));
            let set: Vec<Trace> = (0..96)
                .map(|_| {
                    let p = pool[rng.gen_range(0..pool.len())];
                    let leak = hw(p, truth) as f64;
                    let samples = (0..9)
                        .map(|q| {
                            let jitter = tsc3d_attack::standard_normal(&mut rng);
                            293.0 + 0.004 * (q % 3 + 1) as f64 * leak + 0.03 * jitter
                        })
                        .collect();
                    (vec![p], samples)
                })
                .collect();
            let key = [truth];
            let mut oracle =
                reference::CpaAccumulator::new(&key, LeakageModel::HammingWeight, 9, 96, 96);
            for (plaintexts, samples) in &set {
                oracle.push(plaintexts, samples);
            }
            let metrics = &oracle.final_metric[0];
            let (ours, theirs) = (metrics[truth as usize], metrics[other as usize]);
            if exact_tie {
                assert_eq!(ours, theirs);
            } else {
                assert!(ours != theirs && (ours - theirs).abs() < 1e-9 * ours);
            }
            assert!(differential(&set, &key, LeakageModel::HammingWeight, 96) > 0);
        }
    }
}

/// The guess-major accumulator the point-major one replaced, with its per-guess
/// `best_abs_correlation`, kept as the differential oracle of the tests.
#[cfg(test)]
mod reference {
    use super::{ByteResult, CpaResult};
    use crate::workload::LeakageModel;

    /// Guess-major running sums of one key byte.
    pub struct ByteAccumulator {
        sh: Vec<f64>,
        sh2: Vec<f64>,
        /// `Σ h·o` per `(guess, point)`, guess-major.
        sho: Vec<f64>,
        pub best_at_checkpoint: Vec<u8>,
    }

    pub struct CpaAccumulator {
        key: Vec<u8>,
        model: LeakageModel,
        points: usize,
        traces: usize,
        marks: Vec<usize>,
        pub bytes: Vec<ByteAccumulator>,
        so: Vec<f64>,
        so2: Vec<f64>,
        /// Final-checkpoint metric per (byte, guess), filled at the last mark.
        pub final_metric: Vec<Vec<f64>>,
        next_mark: usize,
        seen: usize,
    }

    impl CpaAccumulator {
        pub fn new(
            key: &[u8],
            model: LeakageModel,
            points: usize,
            traces: usize,
            checkpoints: usize,
        ) -> Self {
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

        pub fn push(&mut self, plaintexts: &[u8], samples: &[f64]) {
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
                        let metric =
                            best_abs_correlation(n, acc, guess, points, &self.so, &self.so2);
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
            }
        }

        pub fn finish(self) -> CpaResult {
            let marks = self.marks;
            let results = self
                .bytes
                .iter()
                .enumerate()
                .map(|(b, acc)| {
                    let true_byte = self.key[b];
                    let metrics = &self.final_metric[b];
                    let true_metric = metrics[true_byte as usize];
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
}
