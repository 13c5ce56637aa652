//! The checkerboard-split SOR kernel of the steady-state solver.
//!
//! [`Network`] stores the conductance network in full-grid order, where a red-black
//! half-sweep touches every other node and every neighbour read needs a boundary test.
//! [`Checkerboard`] regroups it once per solve: per color, every `(layer, row)` segment
//! keeps its nodes of that color contiguously — temperature, source `g_b·T_amb + P`,
//! total conductance `g_sum` and the conductances to the +x, +y and +z neighbours. The
//! node at segment position `k` of color `c` sits at column `first + 2k` with
//! `first = (c + layer + row) % 2`, so its neighbours are unit-stride reads from the
//! other color's arrays: ±x at positions `k + first` and `k + first − 1` of the same
//! segment, ±y and ±z at position `k` of the neighbouring segments. The −x/−y/−z
//! conductances are the other color's +x/+y/+z entries at those positions.
//!
//! Every segment is padded by one zero slot in front and at least one behind, and each
//! color ends in one all-zero segment that stands in for the missing row or layer beyond
//! the grid edge. A missing neighbour therefore reads conductance 0 and a finite
//! temperature 0, and the row kernel runs without a branch per node.
//!
//! **Bit-identity with the per-node sweep.** Per node the kernel performs the reference
//! arithmetic (`Network::relaxed_value`, kept under `cfg(test)`) on the same operands:
//!
//! * `g_sum` is summed once at construction in the reference order (g_b, +x, −x, +y, −y,
//!   +z, −z over present neighbours) — it does not depend on the field;
//! * the flow starts from the same `g_b·T_amb + P` and adds the six neighbour terms in
//!   the same order; an absent neighbour adds `0·0 = +0`, which leaves every sum
//!   unchanged (only a `−0` sum could turn into `+0`, and a zero flow relaxes to the same
//!   value and update either way);
//! * `flow / g_sum` stays a division, and a node with `g_sum ≤ 0` keeps its value and
//!   contributes 0 to the residual;
//! * the residual is a `max` over the same updates, which is order-insensitive.
//!
//! Within a half-sweep a node reads only the other color and its own pre-sweep value, so
//! the serial path (in place) and the pooled path (each chunk relaxes a copy of its
//! contiguous segment range) produce the same bits for any worker count.

use crate::solver::Network;
use std::ops::Range;
use std::sync::Arc;
use tsc3d_exec::{CancelToken, Interrupt, Pool};

/// Per-color coefficients, laid out like that color's temperature array.
#[derive(Debug)]
struct ColorCoefficients {
    /// `g_b · T_amb + P` per node, in W.
    source: Vec<f64>,
    /// Total conductance per node (boundary plus present neighbours), in W/K.
    g_sum: Vec<f64>,
    /// Conductance to the +x neighbour (0 on the last column), in W/K.
    gx: Vec<f64>,
    /// Conductance to the +y neighbour (0 on the last row), in W/K.
    gy: Vec<f64>,
    /// Conductance to the node one layer up (0 on the top layer), in W/K.
    gz: Vec<f64>,
}

/// The conductance network regrouped by color for the red-black SOR sweep (see the
/// module documentation for the layout and why it is exact).
#[derive(Debug)]
pub(crate) struct Checkerboard {
    layers: usize,
    rows: usize,
    cols: usize,
    /// Node slots per `(layer, row)` segment: `⌈cols/2⌉` rounded up to whole [`LANES`];
    /// the slots past a segment's last node are zero pads.
    width: usize,
    /// Slots per segment: a leading zero pad, `width` node slots, a trailing zero pad.
    stride: usize,
    ambient: f64,
    colors: [ColorCoefficients; 2],
}

/// One solve's outcome: `(temperatures in full-grid order, sweeps, final residual)`, or
/// the interrupt plus the sweeps completed when the per-sweep checkpoint fires.
type Swept = Result<(Vec<f64>, usize, f64), (Interrupt, usize)>;

impl Checkerboard {
    /// Splits `network` by color; the full-grid arrays are dropped on return.
    pub(crate) fn new(network: Network) -> Self {
        let Network {
            layers,
            cols,
            rows,
            ambient,
            ..
        } = network;
        let width = ((cols + 1) / 2 + LANES - 1) / LANES * LANES;
        let stride = width + 2;
        let len = (layers * rows + 1) * stride;
        let mut board = Checkerboard {
            layers,
            rows,
            cols,
            width,
            stride,
            ambient,
            colors: [0, 1].map(|_| ColorCoefficients {
                source: vec![0.0; len],
                g_sum: vec![0.0; len],
                gx: vec![0.0; len],
                gy: vec![0.0; len],
                gz: vec![0.0; len],
            }),
        };
        let Network {
            gx,
            gy,
            gz,
            gb,
            power,
            ..
        } = &network;
        let bins = cols * rows;
        for l in 0..layers {
            for row in 0..rows {
                for col in 0..cols {
                    let idx = l * bins + row * cols + col;
                    // The reference accumulation order: g_b, +x, −x, +y, −y, +z, −z.
                    let mut g_sum = gb[idx];
                    if col + 1 < cols {
                        g_sum += gx[idx];
                    }
                    if col > 0 {
                        g_sum += gx[idx - 1];
                    }
                    if row + 1 < rows {
                        g_sum += gy[idx];
                    }
                    if row > 0 {
                        g_sum += gy[idx - cols];
                    }
                    if l + 1 < layers {
                        g_sum += gz[idx];
                    }
                    if l > 0 {
                        g_sum += gz[idx - bins];
                    }
                    let (color, slot) = board.slot(l, row, col);
                    let coef = &mut board.colors[color];
                    coef.source[slot] = gb[idx] * ambient + power[idx];
                    coef.g_sum[slot] = g_sum;
                    coef.gx[slot] = gx[idx];
                    coef.gy[slot] = gy[idx];
                    coef.gz[slot] = gz[idx];
                }
            }
        }
        board
    }

    /// Number of `(layer, row)` segments per color (excluding the zero segment).
    fn segments(&self) -> usize {
        self.layers * self.rows
    }

    /// Color and array slot of node `(layer, row, col)`.
    fn slot(&self, l: usize, row: usize, col: usize) -> (usize, usize) {
        (
            (l + row + col) % 2,
            (l * self.rows + row) * self.stride + 1 + col / 2,
        )
    }

    /// Color and slot of every node, in full-grid (`layer`, `row`, `col`) order.
    fn slots(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.segments()).flat_map(move |s| {
            (0..self.cols).map(move |col| self.slot(s / self.rows, s % self.rows, col))
        })
    }

    /// The starting field: ambient at every node, zero in the pads.
    fn initial_field(&self) -> [Vec<f64>; 2] {
        let mut field = [0, 1].map(|_| vec![0.0; self.colors[0].source.len()]);
        for (color, slot) in self.slots() {
            field[color][slot] = self.ambient;
        }
        field
    }

    /// The field in full-grid order.
    fn gather(&self, field: [&[f64]; 2]) -> Vec<f64> {
        self.slots()
            .map(|(color, slot)| field[color][slot])
            .collect()
    }

    /// Relaxes the nodes of `color` in the segments `segs`; `own` holds exactly those
    /// segments of that color's field (updated in place) and `other` the whole other
    /// color. Returns the largest update (0 for an empty range).
    fn relax(
        &self,
        color: usize,
        segs: Range<usize>,
        own: &mut [f64],
        other: &[f64],
        omega: f64,
    ) -> f64 {
        let (stride, width) = (self.stride, self.width);
        let zero = self.segments();
        let coef = &self.colors[color];
        let facing = &self.colors[1 - color];
        let nodes = |seg: usize| seg * stride + 1..seg * stride + 1 + width;
        let mut worst = 0.0f64;
        let (mut l, mut row) = (segs.start / self.rows, segs.start % self.rows);
        for (s, t) in segs.zip(own.chunks_exact_mut(stride)) {
            let first = (color + l + row) % 2;
            let y_up = nodes(if row + 1 < self.rows { s + 1 } else { zero });
            let y_dn = nodes(if row > 0 { s - 1 } else { zero });
            let z_up = nodes(if l + 1 < self.layers {
                s + self.rows
            } else {
                zero
            });
            let z_dn = nodes(if l > 0 { s - self.rows } else { zero });
            let me = nodes(s);
            let x = s * stride + first;
            worst = worst.max(relax_row(
                &mut t[1..1 + width],
                &Stencil {
                    source: &coef.source[me.clone()],
                    g_sum: &coef.g_sum[me.clone()],
                    gx: &coef.gx[me.clone()],
                    gy: &coef.gy[me.clone()],
                    gz: &coef.gz[me],
                    t_x: &other[x..x + width + 1],
                    gx_dn: &facing.gx[x..x + width],
                    t_y_up: &other[y_up],
                    t_y_dn: &other[y_dn.clone()],
                    gy_dn: &facing.gy[y_dn],
                    t_z_up: &other[z_up],
                    t_z_dn: &other[z_dn.clone()],
                    gz_dn: &facing.gz[z_dn],
                },
                omega,
            ));
            row += 1;
            if row == self.rows {
                (l, row) = (l + 1, 0);
            }
        }
        worst
    }

    /// Runs the red-black SOR iteration from ambient, serially or with each half-sweep's
    /// segments fanned out over `pool` (a pool with zero threads runs serially).
    pub(crate) fn solve(
        self,
        pool: Option<&Pool>,
        omega: f64,
        max_iterations: usize,
        tolerance: f64,
        cancel: &CancelToken,
    ) -> Swept {
        match pool {
            Some(pool) if pool.threads() > 0 => {
                self.solve_pooled(pool, omega, max_iterations, tolerance, cancel)
            }
            _ => {
                let mut field = self.initial_field();
                let segs = self.segments();
                let (iterations, residual) = sweep(max_iterations, tolerance, cancel, |color| {
                    let [t0, t1] = &mut field;
                    let (own, other) = if color == 0 { (t0, t1) } else { (t1, t0) };
                    self.relax(color, 0..segs, &mut own[..segs * self.stride], other, omega)
                })?;
                let temps = self.gather([&field[0], &field[1]]);
                Ok((temps, iterations, residual))
            }
        }
    }

    /// The pooled iteration: each half-sweep splits the segments into fixed contiguous
    /// chunks; a chunk relaxes a copy of its range against the shared other color and
    /// returns it, and the caller concatenates the ranges into the color's next field.
    fn solve_pooled(
        self,
        pool: &Pool,
        omega: f64,
        max_iterations: usize,
        tolerance: f64,
        cancel: &CancelToken,
    ) -> Swept {
        // The partition only affects scheduling, never values.
        let segs = self.segments();
        let count = (pool.threads() * 3).clamp(1, segs);
        let chunks: Vec<(usize, usize)> = (0..count)
            .map(|c| (c * segs / count, (c + 1) * segs / count))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        let stride = self.stride;
        let board = Arc::new(self);
        let mut field = board.initial_field().map(Arc::new);
        let (iterations, residual) = sweep(max_iterations, tolerance, cancel, |color| {
            let (job_board, own, other) = (
                Arc::clone(&board),
                Arc::clone(&field[color]),
                Arc::clone(&field[1 - color]),
            );
            let results = pool.run_batch(chunks.clone(), move |_, (lo, hi)| {
                let mut values = own[lo * stride..hi * stride].to_vec();
                let worst = job_board.relax(color, lo..hi, &mut values, &other, omega);
                (values, worst)
            });
            let mut next = Vec::with_capacity(field[color].len());
            let mut worst = 0.0f64;
            for (values, chunk_worst) in results {
                next.extend_from_slice(&values);
                worst = worst.max(chunk_worst);
            }
            // The trailing zero segment.
            next.resize(field[color].len(), 0.0);
            field[color] = Arc::new(next);
            worst
        })?;
        let temps = board.gather([&field[0], &field[1]]);
        Ok((temps, iterations, residual))
    }
}

/// The sweep loop shared by the serial and the pooled solve: the `solver-sweep`
/// checkpoint before every sweep, both half-sweeps, the thinned progress event, and the
/// convergence test. Returns `(sweeps, final residual)`.
fn sweep(
    max_iterations: usize,
    tolerance: f64,
    cancel: &CancelToken,
    mut half_sweep: impl FnMut(usize) -> f64,
) -> Result<(usize, f64), (Interrupt, usize)> {
    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    for iter in 0..max_iterations {
        // One full-grid sweep dwarfs the checkpoint's two relaxed loads.
        tsc3d_exec::checkpoint("solver-sweep", cancel).map_err(|i| (i, iterations))?;
        let red = half_sweep(0);
        residual = red.max(half_sweep(1));
        iterations = iter + 1;
        // Live sweep progress, thinned so a long solve cannot flood the event ring;
        // with events disabled the cost is one relaxed load per 64 sweeps.
        if iterations % 64 == 0 {
            tsc3d_obs::emit(|| tsc3d_obs::EventKind::Progress {
                phase: "solver_sweeps",
                done: iterations as u64,
                total: max_iterations as u64,
            });
        }
        if residual < tolerance {
            break;
        }
    }
    Ok((iterations, residual))
}

/// The read-only operands of one segment's half-sweep, all `width` long except `t_x`
/// (`width + 1`: entry `k` is node `k`'s −x neighbour, entry `k + 1` its +x one).
struct Stencil<'a> {
    source: &'a [f64],
    g_sum: &'a [f64],
    gx: &'a [f64],
    gy: &'a [f64],
    gz: &'a [f64],
    t_x: &'a [f64],
    gx_dn: &'a [f64],
    t_y_up: &'a [f64],
    t_y_dn: &'a [f64],
    gy_dn: &'a [f64],
    t_z_up: &'a [f64],
    t_z_dn: &'a [f64],
    gz_dn: &'a [f64],
}

/// Nodes relaxed per vector step; segment widths are padded to a multiple of it.
const LANES: usize = 8;

/// `LANES` consecutive entries of `values` from `at`.
#[inline(always)]
fn lanes(values: &[f64], at: usize) -> &[f64; LANES] {
    values[at..at + LANES].try_into().expect("lane slice")
}

/// Relaxes one segment's node slots `t` in place and returns the largest update.
///
/// Per lane this is the scalar sweep's per-node arithmetic: the source first, then the
/// +x, −x, +y, −y, +z, −z neighbour terms in that order, then `flow / g_sum`. A node
/// without conductance (`g_sum ≤ 0`, which includes the pad slots past a segment's last
/// node) takes the step `−0`: `t + ω·(−0)` is `t` bit for bit, and `|−0|` adds 0 to the
/// residual, exactly as the scalar sweep keeps such a node's value.
#[inline(always)]
fn relax_row(t: &mut [f64], s: &Stencil<'_>, omega: f64) -> f64 {
    let mut worst = [0.0f64; LANES];
    for base in (0..t.len()).step_by(LANES) {
        let old: &mut [f64; LANES] = (&mut t[base..base + LANES]).try_into().expect("lane slice");
        let mut flow = *lanes(s.source, base);
        let terms = [
            (lanes(s.gx, base), lanes(s.t_x, base + 1)),
            (lanes(s.gx_dn, base), lanes(s.t_x, base)),
            (lanes(s.gy, base), lanes(s.t_y_up, base)),
            (lanes(s.gy_dn, base), lanes(s.t_y_dn, base)),
            (lanes(s.gz, base), lanes(s.t_z_up, base)),
            (lanes(s.gz_dn, base), lanes(s.t_z_dn, base)),
        ];
        for (g, t_nb) in terms {
            for lane in 0..LANES {
                flow[lane] += g[lane] * t_nb[lane];
            }
        }
        let g_sum = lanes(s.g_sum, base);
        for lane in 0..LANES {
            let step = flow[lane] / g_sum[lane] - old[lane];
            let update = if g_sum[lane] > 0.0 { step } else { -0.0 };
            old[lane] += omega * update;
            let update = update.abs();
            // `f64::max` for a non-NaN accumulator, as one vector max.
            worst[lane] = if update > worst[lane] {
                update
            } else {
                worst[lane]
            };
        }
    }
    worst.iter().fold(0.0f64, |a, &b| a.max(b))
}
