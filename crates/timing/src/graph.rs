//! Block-level timing graph: critical path and per-module slack.

use crate::{ElmoreModel, ModuleDelayModel, NetTopology};
use tsc3d_netlist::{BlockId, Design};

/// Summary of the critical (longest) path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSummary {
    /// Total path delay in ns.
    pub delay: f64,
    /// Blocks along the path, in topological order.
    pub blocks: Vec<BlockId>,
}

/// Result of a timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    arrival: Vec<f64>,
    required: Vec<f64>,
    critical: PathSummary,
}

impl TimingReport {
    /// Critical (longest-path) delay in ns.
    pub fn critical_delay(&self) -> f64 {
        self.critical.delay
    }

    /// The critical path itself.
    pub fn critical_path(&self) -> &PathSummary {
        &self.critical
    }

    /// Arrival time (longest path delay up to and including the block) in ns.
    pub fn arrival(&self, block: BlockId) -> f64 {
        self.arrival[block.index()]
    }

    /// Required time of the block for the design to meet the critical delay, in ns.
    pub fn required(&self, block: BlockId) -> f64 {
        self.required[block.index()]
    }

    /// Timing slack of the block in ns (non-negative; zero on the critical path).
    pub fn slack(&self, block: BlockId) -> f64 {
        (self.required[block.index()] - self.arrival[block.index()]).max(0.0)
    }

    /// Slack of every block, indexable by block id.
    pub fn slacks(&self) -> Vec<f64> {
        (0..self.arrival.len())
            .map(|i| self.slack(BlockId(i)))
            .collect()
    }
}

/// Reusable buffers for [`TimingGraph::analyze_with`], the allocation-free analysis used
/// inside the floorplanner's hot loop.
///
/// One scratch serves any number of analyses; its buffers grow on demand and are reused
/// across calls. [`TimingGraph::load_net_delays`] gathers one delay per edge, which every
/// following analysis reads until the next load; [`TimingScratch::slacks_into`] extracts
/// the per-block slacks of the most recent [`TimingGraph::analyze_with`].
#[derive(Debug, Clone, Default)]
pub struct TimingScratch {
    /// Net delay of every edge, in the graph's edge order.
    edge_delay: Vec<f64>,
    arrival: Vec<f64>,
    required: Vec<f64>,
}

impl TimingScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arrival time of every block from the most recent analysis, in ns.
    pub fn arrival(&self) -> &[f64] {
        &self.arrival
    }

    /// Writes the per-block slacks of the most recent analysis into `out` (cleared first).
    ///
    /// Computes the same `(required - arrival).max(0)` values as
    /// [`TimingReport::slacks`].
    pub fn slacks_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.required
                .iter()
                .zip(&self.arrival)
                .map(|(r, a)| (r - a).max(0.0)),
        );
    }
}

/// A directed acyclic timing graph derived from the block-level netlist.
///
/// Block-level benchmarks carry undirected nets with no signal directions, so — as is usual
/// for floorplanning-stage timing estimation — a deterministic direction is imposed: within
/// each net, the block with the smallest id drives the remaining pins. The resulting DAG is
/// fixed per design; only the *weights* (net delays from the current placement, module
/// delays scaled by the assigned voltage) change between floorplanning iterations, which
/// keeps re-analysis cheap inside the optimization loop.
///
/// Every edge runs from a smaller to a larger block id, so increasing id is a topological
/// order. The edges are stored as compressed sparse rows: the out-edges of block `b` are
/// the positions `out_start[b]..out_start[b + 1]` of `edge_sink`/`edge_net`, in net order.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingGraph {
    blocks: usize,
    nets: usize,
    /// Row offsets into the edge arrays, one per block plus the end.
    out_start: Vec<u32>,
    /// Sink block of every edge.
    edge_sink: Vec<u32>,
    /// Net of every edge.
    edge_net: Vec<u32>,
}

impl TimingGraph {
    /// Builds the timing DAG for a design.
    pub fn new(design: &Design) -> Self {
        let blocks = design.blocks().len();
        let mut edges: Vec<(usize, u32, u32)> = Vec::new();
        for (net_id, net) in design.iter_nets() {
            let pins: Vec<BlockId> = net.blocks().collect();
            if pins.len() < 2 {
                continue;
            }
            let driver = *pins.iter().min().expect("non-empty");
            for &sink in &pins {
                if sink != driver {
                    edges.push((driver.index(), sink.index() as u32, net_id.index() as u32));
                }
            }
        }
        // Stable by driver, so each driver's edges keep their net order.
        edges.sort_by_key(|&(driver, _, _)| driver);
        let mut out_start = vec![0u32; blocks + 1];
        for &(driver, _, _) in &edges {
            out_start[driver + 1] += 1;
        }
        for b in 0..blocks {
            out_start[b + 1] += out_start[b];
        }
        Self {
            blocks,
            nets: design.nets().len(),
            out_start,
            edge_sink: edges.iter().map(|&(_, sink, _)| sink).collect(),
            edge_net: edges.iter().map(|&(_, _, net)| net).collect(),
        }
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_sink.len()
    }

    /// The edge positions of block `b`'s out-edges.
    fn out_edges(&self, b: usize) -> std::ops::Range<usize> {
        self.out_start[b] as usize..self.out_start[b + 1] as usize
    }

    /// Nominal intrinsic delay of every module in the design (ns), before voltage scaling.
    pub fn nominal_module_delays(design: &Design, model: &ModuleDelayModel) -> Vec<f64> {
        design
            .blocks()
            .iter()
            .map(|b| model.module_delay(b.area()))
            .collect()
    }

    /// Net delays for the given per-net topologies (ns).
    pub fn net_delays(model: &ElmoreModel, topologies: &[NetTopology]) -> Vec<f64> {
        topologies.iter().map(|t| model.net_delay(t)).collect()
    }

    /// Runs a full longest-path analysis.
    ///
    /// `module_delays[b]` is the (voltage-scaled) intrinsic delay of block `b` in ns;
    /// `net_delays[n]` the delay of net `n` in ns. This is the reference analysis; the
    /// floorplanner's hot loop runs [`TimingGraph::analyze_with`].
    ///
    /// # Panics
    ///
    /// Panics if the delay vectors do not match the design's block/net counts.
    pub fn analyze(&self, module_delays: &[f64], net_delays: &[f64]) -> TimingReport {
        assert_eq!(
            module_delays.len(),
            self.blocks,
            "one delay per block required"
        );
        let mut arrival = vec![0.0_f64; self.blocks];
        // Driver of the edge that set each block's arrival time.
        let mut pred: Vec<Option<usize>> = vec![None; self.blocks];

        // Forward pass in topological (= id) order: arrival includes the block's own delay.
        for b in 0..self.blocks {
            arrival[b] += module_delays[b];
            for e in self.out_edges(b) {
                let (sink, net) = (self.edge_sink[e] as usize, self.edge_net[e] as usize);
                assert!(
                    net < net_delays.len(),
                    "one delay per net required (missing net {net})"
                );
                let candidate = arrival[b] + net_delays[net];
                if candidate > arrival[sink] {
                    arrival[sink] = candidate;
                    pred[sink] = Some(b);
                }
            }
        }

        let (critical_end, &critical_delay) = arrival
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("design has at least one block");

        // Backward pass for required times (measured at a block's output, the same
        // reference as arrival).
        let mut required = vec![critical_delay; self.blocks];
        for b in (0..self.blocks).rev() {
            for e in self.out_edges(b) {
                let (sink, net) = (self.edge_sink[e] as usize, self.edge_net[e] as usize);
                let candidate = required[sink] - module_delays[sink] - net_delays[net];
                if candidate < required[b] {
                    required[b] = candidate;
                }
            }
        }

        // Reconstruct the critical path.
        let mut path = vec![BlockId(critical_end)];
        let mut cursor = critical_end;
        while let Some(driver) = pred[cursor] {
            path.push(BlockId(driver));
            cursor = driver;
        }
        path.reverse();

        TimingReport {
            arrival,
            required,
            critical: PathSummary {
                delay: critical_delay,
                blocks: path,
            },
        }
    }

    /// Gathers the delay of every edge's net into the scratch, for the analyses that
    /// follow ([`TimingGraph::analyze_with`], [`TimingGraph::analyze_forward`]) until the
    /// next load. The evaluation loop loads once and runs both the nominal and the
    /// voltage-scaled analysis on the same net delays.
    ///
    /// # Panics
    ///
    /// Panics if `net_delays` does not hold one delay per net of the design.
    pub fn load_net_delays(&self, net_delays: &[f64], scratch: &mut TimingScratch) {
        assert_eq!(net_delays.len(), self.nets, "one delay per net required");
        scratch.edge_delay.clear();
        scratch
            .edge_delay
            .extend(self.edge_net.iter().map(|&net| net_delays[net as usize]));
    }

    /// Runs the longest-path analysis on the loaded net delays into reusable buffers and
    /// returns the critical delay in ns.
    ///
    /// Performs the arithmetic of [`TimingGraph::analyze`] (same traversal order, same
    /// operands; the compare-and-store updates become `max`/`min`, which pick the same
    /// value) without allocating and without reconstructing the critical path, so the
    /// returned delay — and the slacks recoverable via [`TimingScratch::slacks_into`] —
    /// are bit-identical to the allocating analysis.
    ///
    /// # Panics
    ///
    /// Panics if `module_delays` does not hold one delay per block, or if no net delays
    /// were loaded for this graph.
    pub fn analyze_with(&self, module_delays: &[f64], scratch: &mut TimingScratch) -> f64 {
        let critical_delay = self.analyze_forward(module_delays, scratch);

        // Backward pass for required times. A block's own value only changes while it is
        // visited, and its sinks are already final.
        let TimingScratch {
            edge_delay,
            required,
            ..
        } = scratch;
        required.clear();
        required.resize(self.blocks, critical_delay);
        for b in (0..self.blocks).rev() {
            let edges = self.out_edges(b);
            let mut req = required[b];
            for (&sink, &delay) in self.edge_sink[edges.clone()].iter().zip(&edge_delay[edges]) {
                let sink = sink as usize;
                req = req.min(required[sink] - module_delays[sink] - delay);
            }
            required[b] = req;
        }

        critical_delay
    }

    /// The forward (arrival) half of [`TimingGraph::analyze_with`] alone, returning the
    /// critical delay.
    ///
    /// For callers that only need the critical delay (the voltage-scaled re-analysis of
    /// the evaluation loop), skipping the backward pass halves the work; the arrival
    /// arithmetic — and thus the returned delay — is identical. The scratch's required
    /// times are *not* updated; call [`TimingGraph::analyze_with`] when slacks are needed.
    ///
    /// # Panics
    ///
    /// Panics if `module_delays` does not hold one delay per block, or if no net delays
    /// were loaded for this graph.
    pub fn analyze_forward(&self, module_delays: &[f64], scratch: &mut TimingScratch) -> f64 {
        assert_eq!(
            module_delays.len(),
            self.blocks,
            "one delay per block required"
        );
        assert_eq!(
            scratch.edge_delay.len(),
            self.edge_count(),
            "net delays must be loaded for this graph"
        );
        let TimingScratch {
            edge_delay,
            arrival,
            ..
        } = scratch;
        arrival.clear();
        arrival.resize(self.blocks, 0.0);

        // Forward pass in topological (= id) order: arrival includes the block's own delay.
        for b in 0..self.blocks {
            let out = arrival[b] + module_delays[b];
            arrival[b] = out;
            let edges = self.out_edges(b);
            for (&sink, &delay) in self.edge_sink[edges.clone()].iter().zip(&edge_delay[edges]) {
                let slot = &mut arrival[sink as usize];
                *slot = slot.max(out + delay);
            }
        }

        *arrival
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("design has at least one block")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_geometry::Outline;
    use tsc3d_netlist::{Block, BlockShape, Net, PinRef};

    /// A chain a -> b -> c plus a side branch a -> d.
    fn chain_design() -> Design {
        let blocks = vec![
            Block::new("a", BlockShape::soft(10_000.0), 0.1),
            Block::new("b", BlockShape::soft(40_000.0), 0.2),
            Block::new("c", BlockShape::soft(10_000.0), 0.1),
            Block::new("d", BlockShape::soft(2_500.0), 0.05),
        ];
        let nets = vec![
            Net::new(
                "ab",
                vec![PinRef::Block(BlockId(0)), PinRef::Block(BlockId(1))],
            ),
            Net::new(
                "bc",
                vec![PinRef::Block(BlockId(1)), PinRef::Block(BlockId(2))],
            ),
            Net::new(
                "ad",
                vec![PinRef::Block(BlockId(0)), PinRef::Block(BlockId(3))],
            ),
        ];
        Design::new(
            "chain",
            blocks,
            nets,
            vec![],
            Outline::new(1_000.0, 1_000.0),
        )
        .unwrap()
    }

    fn uniform_delays(design: &Design, module: f64, net: f64) -> (Vec<f64>, Vec<f64>) {
        (
            vec![module; design.blocks().len()],
            vec![net; design.nets().len()],
        )
    }

    #[test]
    fn graph_structure() {
        let d = chain_design();
        let g = TimingGraph::new(&d);
        // Each 2-pin net contributes one edge.
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn critical_path_follows_longest_chain() {
        let d = chain_design();
        let g = TimingGraph::new(&d);
        let (m, n) = uniform_delays(&d, 1.0, 0.5);
        let report = g.analyze(&m, &n);
        // a(1) -0.5-> b(1) -0.5-> c(1) = 4.0
        assert!((report.critical_delay() - 4.0).abs() < 1e-9);
        assert_eq!(
            report.critical_path().blocks,
            vec![BlockId(0), BlockId(1), BlockId(2)]
        );
    }

    #[test]
    fn slack_is_zero_on_critical_path_and_positive_off_it() {
        let d = chain_design();
        let g = TimingGraph::new(&d);
        let (m, n) = uniform_delays(&d, 1.0, 0.5);
        let report = g.analyze(&m, &n);
        assert!(report.slack(BlockId(0)) < 1e-9);
        assert!(report.slack(BlockId(1)) < 1e-9);
        assert!(report.slack(BlockId(2)) < 1e-9);
        // The short branch a -> d has slack: critical 4.0 vs a(1)+0.5+d(1) = 2.5.
        assert!((report.slack(BlockId(3)) - 1.5).abs() < 1e-9);
        assert_eq!(report.slacks().len(), 4);
    }

    #[test]
    fn larger_module_delays_increase_critical_delay() {
        let d = chain_design();
        let g = TimingGraph::new(&d);
        let model = ModuleDelayModel::default_90nm();
        let nominal = TimingGraph::nominal_module_delays(&d, &model);
        assert_eq!(nominal.len(), 4);
        // Block b has 4x the area of a → 2x the linear size → larger intrinsic delay.
        assert!(nominal[1] > nominal[0]);

        let net_delays = vec![0.1; d.nets().len()];
        let base = g.analyze(&nominal, &net_delays).critical_delay();
        let slowed: Vec<f64> = nominal.iter().map(|x| x * 1.56).collect();
        let slow = g.analyze(&slowed, &net_delays).critical_delay();
        assert!(slow > base);
    }

    #[test]
    fn net_delay_helper_matches_model() {
        let model = ElmoreModel::default_90nm();
        let topos = vec![
            NetTopology::new(100.0, 0, 1),
            NetTopology::new(5_000.0, 1, 2),
        ];
        let delays = TimingGraph::net_delays(&model, &topos);
        assert_eq!(delays.len(), 2);
        assert!(delays[1] > delays[0]);
    }

    #[test]
    fn arrival_times_are_monotone_along_edges() {
        let d = chain_design();
        let g = TimingGraph::new(&d);
        let (m, n) = uniform_delays(&d, 0.7, 0.3);
        let r = g.analyze(&m, &n);
        assert!(r.arrival(BlockId(1)) > r.arrival(BlockId(0)));
        assert!(r.arrival(BlockId(2)) > r.arrival(BlockId(1)));
        assert!(r.required(BlockId(0)) <= r.required(BlockId(2)));
    }

    #[test]
    fn analyze_with_matches_analyze_bit_for_bit() {
        let chain = chain_design();
        let suite = tsc3d_netlist::suite::generate(tsc3d_netlist::suite::Benchmark::N100, 1);
        let mut scratch = TimingScratch::new();
        let mut slacks = Vec::new();
        for d in [&chain, &suite] {
            let g = TimingGraph::new(d);
            // Uniform delays (ties everywhere) and irregular ones.
            let mut cases: Vec<(Vec<f64>, Vec<f64>)> = [(1.0, 0.5), (0.7, 0.3), (2.5, 0.0)]
                .iter()
                .map(|&(m, n)| uniform_delays(d, m, n))
                .collect();
            let wobble = |i: usize, scale: f64| scale * (1.0 + ((i * 7919) % 101) as f64 / 37.0);
            cases.push((
                (0..d.blocks().len()).map(|i| wobble(i, 0.3)).collect(),
                (0..d.nets().len()).map(|i| wobble(i + 5, 0.01)).collect(),
            ));
            for (md, nd) in &cases {
                let report = g.analyze(md, nd);
                g.load_net_delays(nd, &mut scratch);
                let critical = g.analyze_with(md, &mut scratch);
                assert_eq!(critical, report.critical_delay());
                scratch.slacks_into(&mut slacks);
                assert_eq!(slacks, report.slacks());
                assert_eq!(scratch.arrival().len(), d.blocks().len());
                let scaled: Vec<f64> = md.iter().map(|m| m * 1.56).collect();
                let forward = g.analyze_forward(&scaled, &mut scratch);
                assert_eq!(forward, g.analyze(&scaled, nd).critical_delay());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one delay per block")]
    fn wrong_module_delay_count_panics() {
        let d = chain_design();
        let g = TimingGraph::new(&d);
        let _ = g.analyze(&[1.0], &[0.1, 0.1, 0.1]);
    }
}
