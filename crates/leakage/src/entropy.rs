//! Spatial entropy of power maps (Eq. 3 of the paper, following Claramunt).

use tsc3d_geometry::{GridMap, GridPos};

/// Result of the nested-means classification of a power map.
///
/// Bins are grouped into classes of similar power values; classes are the `c_i ∈ C` of
/// Eq. 3. The classification is produced by recursively bi-partitioning the sorted power
/// values at their mean until the values within a class are (nearly) constant.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedMeansClasses {
    /// For every bin (row-major), the index of the class it belongs to.
    pub assignment: Vec<usize>,
    /// For every class, the member bins.
    pub members: Vec<Vec<GridPos>>,
    /// For every class, the (inclusive) value range it covers.
    pub ranges: Vec<(f64, f64)>,
}

impl NestedMeansClasses {
    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.members.len()
    }
}

/// Reusable buffers for [`SpatialEntropy::of_map_with`]: the sorted bins, the sorted
/// values, the class index ranges and the per-class coordinate histograms.
#[derive(Debug, Clone, Default)]
pub struct EntropyScratch {
    /// Total-order sort key of every bin's value, in bin order.
    keys: Vec<u64>,
    /// Every bin as its key's high bits with the bin index in the low bits, sorted into
    /// ascending full-key order.
    entries: Vec<u64>,
    /// The map's values in ascending order.
    sorted: Vec<f64>,
    /// Class ranges (start, end) over `sorted`.
    classes: Vec<(usize, usize)>,
    col_class: Vec<u64>,
    row_class: Vec<u64>,
    /// Column of every bin index (avoids a division per class member).
    col_of: Vec<u16>,
    /// Row of every bin index.
    row_of: Vec<u16>,
    /// `f_col[c] = Σ_w |c - w|` over all columns (whole-grid distance profile).
    f_col: Vec<u64>,
    /// `f_row[r] = Σ_w |r - w|` over all rows.
    f_row: Vec<u64>,
    /// Column count the lookup tables were built for.
    table_cols: usize,
}

impl EntropyScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Spatial-entropy calculator (Eq. 3).
///
/// The entropy rewards configurations where *similar* power values cluster spatially (low
/// thermal gradients → low leakage) and penalizes configurations where *different* power
/// values are close together (steep gradients → high leakage). It is evaluated directly on
/// the power map, without any thermal analysis, which makes it cheap enough for the inner
/// floorplanning loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialEntropy {
    /// Recursion depth limit of the nested-means partitioning (at most `2^depth` classes).
    pub max_depth: usize,
    /// Classes whose relative standard deviation falls below this threshold are not split
    /// further.
    pub std_dev_threshold: f64,
}

impl Default for SpatialEntropy {
    fn default() -> Self {
        Self {
            max_depth: 6,
            std_dev_threshold: 1e-3,
        }
    }
}

impl SpatialEntropy {
    /// Creates a calculator with an explicit depth limit and split threshold.
    pub fn new(max_depth: usize, std_dev_threshold: f64) -> Self {
        Self {
            max_depth,
            std_dev_threshold,
        }
    }

    /// Classifies the bins of a power map into similar-value classes using nested-means
    /// partitioning.
    pub fn classify(&self, power: &GridMap) -> NestedMeansClasses {
        let grid = power.grid();
        let mut indexed: Vec<(usize, f64)> = power.values().iter().copied().enumerate().collect();
        indexed.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

        let mut groups = Vec::new();
        self.split(&indexed, 0, &mut groups);

        let mut assignment = vec![0usize; grid.bins()];
        let mut members = Vec::with_capacity(groups.len());
        let mut ranges = Vec::with_capacity(groups.len());
        for (class, &(start, end)) in groups.iter().enumerate() {
            let group = &indexed[start..end];
            let mut bins = Vec::with_capacity(group.len());
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &(idx, value) in group {
                assignment[idx] = class;
                bins.push(grid.pos_of(idx));
                lo = lo.min(value);
                hi = hi.max(value);
            }
            members.push(bins);
            ranges.push((lo, hi));
        }
        NestedMeansClasses {
            assignment,
            members,
            ranges,
        }
    }

    /// Nested-means partitioning of the (pre-sorted) values, emitting class index ranges
    /// in value order: the reference partition of [`SpatialEntropy::classify`].
    fn split(&self, sorted: &[(usize, f64)], depth: usize, out: &mut Vec<(usize, usize)>) {
        self.split_range(sorted, 0, sorted.len(), depth, out);
    }

    fn split_range(
        &self,
        sorted: &[(usize, f64)],
        start: usize,
        end: usize,
        depth: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        if start == end {
            return;
        }
        let slice = &sorted[start..end];
        let n = slice.len() as f64;
        let mean = slice.iter().map(|(_, v)| v).sum::<f64>() / n;
        let std = (slice.iter().map(|(_, v)| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
        let scale = mean.abs().max(1e-12);
        if depth >= self.max_depth || slice.len() == 1 || std / scale < self.std_dev_threshold {
            out.push((start, end));
            return;
        }
        // The values are sorted, so the mean defines a single cut point.
        let cut = slice.partition_point(|(_, v)| *v < mean);
        if cut == 0 || cut == slice.len() {
            out.push((start, end));
            return;
        }
        self.split_range(sorted, start, start + cut, depth + 1, out);
        self.split_range(sorted, start + cut, end, depth + 1, out);
    }

    /// The partition of [`SpatialEntropy::split`] over plain sorted values, with the
    /// mean and deviation sums of both halves of every cut computed together.
    ///
    /// `stats` is the `(mean, std)` of `sorted[start..end]`. Each half still sums its
    /// own values in order from the same start as `Iterator::sum`, so every mean and
    /// deviation is bit-identical to the reference's; interleaving the two independent
    /// sums only overlaps their add latencies. Halves that sit at the depth limit are
    /// emitted without computing statistics the reference would discard.
    fn split_sorted(
        &self,
        sorted: &[f64],
        start: usize,
        end: usize,
        depth: usize,
        stats: (f64, f64),
        out: &mut Vec<(usize, usize)>,
    ) {
        let slice = &sorted[start..end];
        let (mean, std) = stats;
        let scale = mean.abs().max(1e-12);
        if depth >= self.max_depth || slice.len() == 1 || std / scale < self.std_dev_threshold {
            out.push((start, end));
            return;
        }
        // The values are sorted, so the mean defines a single cut point.
        let cut = slice.partition_point(|&v| v < mean);
        if cut == 0 || cut == slice.len() {
            out.push((start, end));
            return;
        }
        let mid = start + cut;
        if depth + 1 >= self.max_depth {
            out.push((start, mid));
            out.push((mid, end));
            return;
        }
        let (left, right) = mean_std_pair(&sorted[start..mid], &sorted[mid..end]);
        self.split_sorted(sorted, start, mid, depth + 1, left, out);
        self.split_sorted(sorted, mid, end, depth + 1, right, out);
    }

    /// Computes the spatial entropy `S_d` of a power map (Eq. 3).
    ///
    /// The contribution of every class `c_i` is weighted by the ratio of its average
    /// intra-class to inter-class Manhattan distance (measured in grid bins), following
    /// Claramunt's original formulation: co-located *different* values (small inter-class
    /// distances) push the entropy up, co-located *similar* values (small intra-class
    /// distances) push it down — exactly the "closer the differently powered heat sources,
    /// the higher the thermal gradients" intuition of the paper. (The paper's Eq. 3 prints
    /// the ratio as `d_inter/d_intra`; we follow the reference metric and the paper's
    /// qualitative usage, which require the inverse orientation.) Degenerate distances
    /// (single-member classes, single-class maps) fall back to a distance of one bin so the
    /// formula stays well defined.
    pub fn of_map(&self, power: &GridMap) -> f64 {
        let classes = self.classify(power);
        self.of_classes(&classes, power)
    }

    /// [`SpatialEntropy::of_map`] over reusable buffers, skipping the materialized
    /// [`NestedMeansClasses`]: classes live as index ranges of the sorted value array and
    /// the distance means come straight from per-class coordinate histograms.
    ///
    /// Produces the same entropy as [`SpatialEntropy::of_map`] — same partitioning (every
    /// class mean and deviation sums the same values in the same order), same exact
    /// integer distance sums, same accumulation order of the entropy terms. The values
    /// are ordered by `sort_bins`, a sort of plain integers; equal values may classify
    /// into a different *order within* a class here than the reference's stable sort
    /// gives, which affects no sum: class membership, histograms and per-class value
    /// statistics are functions of the value multiset alone. (For the NaN-free maps the
    /// evaluator produces, key order is `partial_cmp` order except that -0.0 sorts before
    /// +0.0, which no sum or cut can tell apart.)
    pub fn of_map_with(&self, power: &GridMap, scratch: &mut EntropyScratch) -> f64 {
        let grid = power.grid();
        let values = power.values();
        if values.is_empty() {
            return 0.0;
        }
        let low = sort_bins(values, &mut scratch.keys, &mut scratch.entries);
        scratch.sorted.clear();
        scratch
            .sorted
            .extend(scratch.entries.iter().map(|&e| values[(e & low) as usize]));

        scratch.classes.clear();
        let root = mean_std_pair(&scratch.sorted, &[]).0;
        self.split_sorted(
            &scratch.sorted,
            0,
            scratch.sorted.len(),
            0,
            root,
            &mut scratch.classes,
        );
        let k = scratch.classes.len();
        if k <= 1 {
            // A perfectly uniform map has zero spatial entropy: no gradients, no leakage.
            return 0.0;
        }

        let cols = grid.cols();
        let rows = grid.rows();
        let total = grid.bins() as f64;
        let members_all = grid.bins() as u64;
        scratch.col_class.resize(cols, 0);
        scratch.row_class.resize(rows, 0);
        if scratch.col_of.len() != grid.bins() || scratch.table_cols != cols {
            scratch.col_of.clear();
            scratch.row_of.clear();
            for idx in 0..grid.bins() {
                scratch.col_of.push((idx % cols) as u16);
                scratch.row_of.push((idx / cols) as u16);
            }
            let distance_profile = |n: usize| -> Vec<u64> {
                (0..n as u64)
                    .map(|c| {
                        let left = c * (c + 1) / 2;
                        let right_span = n as u64 - 1 - c;
                        let right = right_span * (right_span + 1) / 2;
                        left + right
                    })
                    .collect()
            };
            scratch.f_col = distance_profile(cols);
            scratch.f_row = distance_profile(rows);
            scratch.table_cols = cols;
        }

        let mut entropy = 0.0;
        for &(start, end) in &scratch.classes {
            let m = (end - start) as u64;
            scratch.col_class.fill(0);
            scratch.row_class.fill(0);
            for &entry in &scratch.entries[start..end] {
                let bin = (entry & low) as usize;
                scratch.col_class[scratch.col_of[bin] as usize] += 1;
                scratch.row_class[scratch.row_of[bin] as usize] += 1;
            }
            // `cross_all` is Σ_{a∈A} Σ_{all bins b} |a - b| via the whole-grid distance
            // profiles (the classes partition every bin, so the whole-map histogram is
            // uniform: `rows` members per column and `cols` per row).
            let cross_all = rows as u64 * dot(&scratch.col_class, &scratch.f_col)
                + cols as u64 * dot(&scratch.row_class, &scratch.f_row);
            let p = m as f64 / total;
            let intra_sum =
                pairwise_abs_sum(&scratch.col_class) + pairwise_abs_sum(&scratch.row_class);
            let d_intra = mean_distance(intra_sum, m * (m - 1) / 2);
            // Distances from the class to everything outside it: all-pairs minus the
            // ordered intra pairs (integer-exact, so identical to the histogram cross sum
            // of the reference path).
            let inter_sum = cross_all - 2 * intra_sum;
            let d_inter = mean_distance(inter_sum, m * (members_all - m));
            entropy -= (d_intra / d_inter) * p * p.log2();
        }
        entropy
    }

    /// Computes the entropy from a pre-computed classification (useful when both the classes
    /// and the entropy are needed).
    ///
    /// The intra/inter-class Manhattan distance means are evaluated from per-class
    /// column/row histograms in O(bins) per class rather than by the literal O(m²)
    /// pairwise sums. Both formulations produce the same integer distance sum and pair
    /// count (which are exactly representable in `f64` for every grid size in use, so the
    /// literal accumulation never rounds) — the returned entropy is bit-identical to the
    /// pairwise evaluation while being fast enough for the floorplanner's inner loop.
    pub fn of_classes(&self, classes: &NestedMeansClasses, power: &GridMap) -> f64 {
        let grid = power.grid();
        let total = grid.bins() as f64;
        let k = classes.class_count();
        if k <= 1 {
            // A perfectly uniform map has zero spatial entropy: no gradients, no leakage.
            return 0.0;
        }

        // Per-class and whole-map histograms of member columns and rows: the Manhattan
        // metric is separable, so every pairwise distance sum reduces to two 1D sums.
        let cols = grid.cols();
        let rows = grid.rows();
        let mut col_hists = vec![vec![0u64; cols]; k];
        let mut row_hists = vec![vec![0u64; rows]; k];
        let mut col_all = vec![0u64; cols];
        let mut row_all = vec![0u64; rows];
        let mut members_all = 0u64;
        for (class, members) in classes.members.iter().enumerate() {
            for pos in members {
                col_hists[class][pos.col] += 1;
                row_hists[class][pos.row] += 1;
                col_all[pos.col] += 1;
                row_all[pos.row] += 1;
            }
            members_all += members.len() as u64;
        }

        let mut entropy = 0.0;
        let mut col_other = vec![0u64; cols];
        let mut row_other = vec![0u64; rows];
        for i in 0..k {
            let members = &classes.members[i];
            if members.is_empty() {
                continue;
            }
            let m = members.len() as u64;
            let p = members.len() as f64 / total;
            let d_intra = mean_intra_distance(m, &col_hists[i], &row_hists[i]);
            for (o, (a, h)) in col_other.iter_mut().zip(col_all.iter().zip(&col_hists[i])) {
                *o = a - h;
            }
            for (o, (a, h)) in row_other.iter_mut().zip(row_all.iter().zip(&row_hists[i])) {
                *o = a - h;
            }
            let d_inter = mean_inter_distance(
                m,
                members_all - m,
                &col_hists[i],
                &row_hists[i],
                &col_other,
                &row_other,
            );
            let ratio = d_intra / d_inter;
            entropy -= ratio * p * p.log2();
        }
        entropy
    }
}

/// Mean distance with the degenerate-case convention of the pairwise reference: 1.0 when
/// there are no pairs or the distance sum is zero.
fn mean_distance(sum: u64, count: u64) -> f64 {
    if count == 0 || sum == 0 {
        1.0
    } else {
        sum as f64 / count as f64
    }
}

/// Sum of `|a - b|` over every unordered pair of distinct elements drawn from one
/// histogram of coordinate counts (equal-coordinate pairs contribute zero).
///
/// Branch-free: an empty coordinate adds `0 · (…)` and leaves both running sums as they
/// are, and `v · seen ≥ seen_sum` always holds (every seen coordinate is below `v`).
fn pairwise_abs_sum(hist: &[u64]) -> u64 {
    let mut seen = 0u64;
    let mut seen_sum = 0u64;
    let mut sum = 0u64;
    for (v, &count) in hist.iter().enumerate() {
        sum += count * (v as u64 * seen - seen_sum);
        seen += count;
        seen_sum += count * v as u64;
    }
    sum
}

/// Integer dot product (exact, so any summation order gives the same value).
fn dot(a: &[u64], b: &[u64]) -> u64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `(mean, population std)` of two value slices, each computed exactly as
/// [`SpatialEntropy::split_range`] does — its own sums, in order — with the independent
/// sums of the two slices interleaved. An empty slice yields NaNs (never read).
fn mean_std_pair(a: &[f64], b: &[f64]) -> ((f64, f64), (f64, f64)) {
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (sa, sb) = sum_pair(a, b, |x| x, |y| y);
    let (ma, mb) = (sa / na, sb / nb);
    let (qa, qb) = sum_pair(a, b, |x| (x - ma).powi(2), |y| (y - mb).powi(2));
    ((ma, (qa / na).sqrt()), (mb, (qb / nb).sqrt()))
}

/// `(Σ fa(a), Σ fb(b))`, each summed in slice order from the `-0.0` that `Iterator::sum`
/// starts from, the two dependency chains advancing side by side.
fn sum_pair(a: &[f64], b: &[f64], fa: impl Fn(f64) -> f64, fb: impl Fn(f64) -> f64) -> (f64, f64) {
    let common = a.len().min(b.len());
    let (mut sa, mut sb) = (-0.0, -0.0);
    for (&x, &y) in a[..common].iter().zip(&b[..common]) {
        sa += fa(x);
        sb += fb(y);
    }
    for &x in &a[common..] {
        sa += fa(x);
    }
    for &y in &b[common..] {
        sb += fb(y);
    }
    (sa, sb)
}

/// Sorts the bins of a map by value into `entries`, returning the mask of the low bits
/// that hold each entry's bin index.
///
/// Sorting `(key, bin)` pairs costs twice a sort of plain `u64`s, so each entry packs
/// the bin index into the low bits of its value's [`sort_key`]. Truncating a key is
/// monotone, so the sorted entries are in full-key order except within runs that share
/// the truncated key (values within a few thousand ulps of each other); each such run
/// that is out of full-key order is sorted by its full keys (`keys`, in bin order).
fn sort_bins(values: &[f64], keys: &mut Vec<u64>, entries: &mut Vec<u64>) -> u64 {
    let bits = usize::BITS - (values.len() - 1).leading_zeros();
    let low = (1u64 << bits) - 1;
    keys.clear();
    keys.extend(values.iter().map(|&v| sort_key(v)));
    entries.clear();
    entries.extend(
        keys.iter()
            .enumerate()
            .map(|(bin, &k)| k & !low | bin as u64),
    );
    entries.sort_unstable();
    let full = |e: u64| keys[(e & low) as usize];
    if entries.windows(2).all(|w| full(w[0]) <= full(w[1])) {
        return low;
    }
    let mut start = 0;
    for end in 1..=entries.len() {
        if end < entries.len() && entries[end] & !low == entries[start] & !low {
            continue;
        }
        let run = &mut entries[start..end];
        if run.windows(2).any(|w| full(w[0]) > full(w[1])) {
            run.sort_unstable_by_key(|&e| full(e));
        }
        start = end;
    }
    low
}

/// Branch-free total-order key of a value (sign-flip transform): ascending keys are
/// ascending values under `partial_cmp` for NaN-free input.
fn sort_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Sum of `|a - b|` over every pair with `a` drawn from `ha` and `b` drawn from `hb`.
fn cross_abs_sum(ha: &[u64], hb: &[u64]) -> u64 {
    let mut seen_a = 0u64;
    let mut sum_a = 0u64;
    let mut seen_b = 0u64;
    let mut sum_b = 0u64;
    let mut sum = 0u64;
    for (v, (&ca, &cb)) in ha.iter().zip(hb).enumerate() {
        let v = v as u64;
        sum += ca * (v * seen_b - sum_b) + cb * (v * seen_a - sum_a);
        seen_a += ca;
        sum_a += ca * v;
        seen_b += cb;
        sum_b += cb * v;
    }
    sum
}

/// Average pairwise Manhattan distance (in bins) within a class; 1.0 for singletons.
fn mean_intra_distance(members: u64, col_hist: &[u64], row_hist: &[u64]) -> f64 {
    if members < 2 {
        return 1.0;
    }
    let sum = pairwise_abs_sum(col_hist) + pairwise_abs_sum(row_hist);
    let count = members * (members - 1) / 2;
    if count == 0 || sum == 0 {
        1.0
    } else {
        sum as f64 / count as f64
    }
}

/// Average Manhattan distance (in bins) from members of a class to members of all other
/// classes; 1.0 when there are no other members.
fn mean_inter_distance(
    members: u64,
    others: u64,
    col_hist: &[u64],
    row_hist: &[u64],
    col_other: &[u64],
    row_other: &[u64],
) -> f64 {
    let sum = cross_abs_sum(col_hist, col_other) + cross_abs_sum(row_hist, row_other);
    let count = members * others;
    if count == 0 || sum == 0 {
        1.0
    } else {
        sum as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_geometry::{Grid, Rect};

    fn grid(n: usize) -> Grid {
        Grid::square(Rect::from_size(100.0, 100.0), n)
    }

    /// A map with `k` horizontal stripes of distinct power values.
    fn striped(n: usize, k: usize) -> GridMap {
        let g = grid(n);
        let values = (0..g.bins())
            .map(|i| {
                let row = i / n;
                (row * k / n) as f64
            })
            .collect();
        GridMap::from_values(g, values)
    }

    /// A checkerboard of two power values — maximally interleaved.
    fn checkerboard(n: usize) -> GridMap {
        let g = grid(n);
        let values = (0..g.bins())
            .map(|i| {
                let (r, c) = (i / n, i % n);
                ((r + c) % 2) as f64
            })
            .collect();
        GridMap::from_values(g, values)
    }

    /// The literal O(m²) distance sums the histogram evaluation replaces.
    fn entropy_pairwise_reference(e: &SpatialEntropy, power: &GridMap) -> f64 {
        let classes = e.classify(power);
        let total = power.grid().bins() as f64;
        let k = classes.class_count();
        if k <= 1 {
            return 0.0;
        }
        let mut entropy = 0.0;
        for i in 0..k {
            let members = &classes.members[i];
            if members.is_empty() {
                continue;
            }
            let p = members.len() as f64 / total;
            let (mut sum, mut count) = (0.0, 0.0);
            for (a_idx, a) in members.iter().enumerate() {
                for b in &members[a_idx + 1..] {
                    sum += a.manhattan(*b) as f64;
                    count += 1.0;
                }
            }
            let d_intra = if count == 0.0 || sum == 0.0 {
                1.0
            } else {
                sum / count
            };
            let (mut sum, mut count) = (0.0, 0.0);
            for (other, other_members) in classes.members.iter().enumerate() {
                if other == i {
                    continue;
                }
                for a in members {
                    for b in other_members {
                        sum += a.manhattan(*b) as f64;
                        count += 1.0;
                    }
                }
            }
            let d_inter = if count == 0.0 || sum == 0.0 {
                1.0
            } else {
                sum / count
            };
            entropy -= (d_intra / d_inter) * p * p.log2();
        }
        entropy
    }

    #[test]
    fn of_map_with_matches_of_map_bit_for_bit() {
        let mut scratch = EntropyScratch::new();
        let g = grid(16);
        // Include duplicate values so the unstable sort's tie handling is exercised.
        let values: Vec<f64> = (0..g.bins())
            .map(|i| ((i * 7919) % 23) as f64 * 0.5)
            .collect();
        // Values a few ulps apart share their keys' high bits, so the sort has to order
        // them by their full keys; without a split threshold, cuts fall between them.
        let close: Vec<f64> = (0..g.bins())
            .map(|i| f64::from_bits(0.75f64.to_bits() + ((i * 7919) % 11) as u64))
            .collect();
        let maps = [
            striped(8, 2),
            striped(8, 8),
            checkerboard(16),
            GridMap::constant(grid(8), 3.0),
            GridMap::from_values(g, values),
            GridMap::from_values(g, close),
        ];
        for e in [SpatialEntropy::default(), SpatialEntropy::new(6, 0.0)] {
            for map in &maps {
                assert_eq!(e.of_map_with(map, &mut scratch), e.of_map(map));
            }
        }
    }

    #[test]
    fn sort_keys_order_values() {
        let values = [
            -f64::INFINITY,
            -3.5,
            -0.0,
            0.0,
            1e-300,
            0.25,
            7.0,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(sort_key(w[0]) < sort_key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn histogram_distances_match_pairwise_reference_bit_for_bit() {
        let e = SpatialEntropy::default();
        let mut maps = vec![
            striped(8, 2),
            striped(8, 8),
            checkerboard(8),
            checkerboard(16),
            GridMap::constant(grid(8), 3.0),
        ];
        // A pseudo-random map exercising irregular class shapes.
        let g = grid(12);
        let values: Vec<f64> = (0..g.bins())
            .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64)
            .collect();
        maps.push(GridMap::from_values(g, values));
        for map in &maps {
            let fast = e.of_map(map);
            let reference = entropy_pairwise_reference(&e, map);
            assert_eq!(fast, reference, "entropy diverged from pairwise reference");
        }
    }

    #[test]
    fn uniform_map_has_zero_entropy() {
        let m = GridMap::constant(grid(8), 3.0);
        assert_eq!(SpatialEntropy::default().of_map(&m), 0.0);
    }

    #[test]
    fn classification_groups_equal_values() {
        let m = striped(8, 2);
        let classes = SpatialEntropy::default().classify(&m);
        assert_eq!(classes.class_count(), 2);
        assert_eq!(classes.members[0].len() + classes.members[1].len(), 64);
        // Ranges must not overlap.
        assert!(classes.ranges[0].1 <= classes.ranges[1].0);
    }

    #[test]
    fn interleaved_values_have_higher_entropy_than_separated() {
        // Same value histogram (half 0.0, half 1.0), different spatial arrangement:
        // the checkerboard (different values adjacent) must score higher than the two-stripe
        // arrangement (similar values clustered) — principle (i)/(ii) of Claramunt.
        let clustered = striped(8, 2);
        let interleaved = checkerboard(8);
        let e = SpatialEntropy::default();
        assert!(e.of_map(&interleaved) > e.of_map(&clustered));
    }

    #[test]
    fn more_distinct_power_levels_increase_entropy() {
        let few = striped(8, 2);
        let many = striped(8, 8);
        let e = SpatialEntropy::default();
        assert!(e.of_map(&many) > e.of_map(&few));
    }

    #[test]
    fn entropy_is_invariant_to_value_scaling() {
        // Classes depend on relative structure; scaling all powers by a constant must not
        // change the classification-based entropy.
        let m = striped(8, 4);
        let scaled = m.scaled(7.5);
        let e = SpatialEntropy::default();
        assert!((e.of_map(&m) - e.of_map(&scaled)).abs() < 1e-9);
    }

    #[test]
    fn depth_limit_bounds_class_count() {
        let g = grid(8);
        // All distinct values: without a depth limit every bin would be its own class.
        let values: Vec<f64> = (0..g.bins()).map(|i| i as f64).collect();
        let m = GridMap::from_values(g, values);
        let classes = SpatialEntropy::new(3, 1e-9).classify(&m);
        assert!(classes.class_count() <= 8);
        let deeper = SpatialEntropy::new(5, 1e-9).classify(&m);
        assert!(deeper.class_count() > classes.class_count());
    }

    #[test]
    fn assignment_is_consistent_with_members() {
        let m = striped(8, 4);
        let classes = SpatialEntropy::default().classify(&m);
        for (class, members) in classes.members.iter().enumerate() {
            for pos in members {
                let idx = m.grid().flat_index(*pos);
                assert_eq!(classes.assignment[idx], class);
            }
        }
    }

    #[test]
    fn singleton_classes_do_not_break_entropy() {
        let g = grid(4);
        let mut values = vec![0.0; g.bins()];
        values[5] = 100.0; // one extreme outlier → singleton class
        let m = GridMap::from_values(g, values);
        let e = SpatialEntropy::default().of_map(&m);
        assert!(e.is_finite());
        assert!(e > 0.0);
    }
}
