//! The process-wide memo of extracted attack kernels.
//!
//! A kernel is the per-sensor thermal response of one floorplan in one mitigation state,
//! seen through one sensor geometry. It depends on nothing an attack draws: not the key,
//! the traces, the sensor noise or quantisation, the workload, the target or the nominal
//! powers. So every attack on the same floorplan, TSV fields and sensor geometry shares
//! it, and all but the first skip the transient stepping.
//!
//! The key is the exact bits of everything extraction reads (see [`KernelKey::new`]);
//! keys compare in full, the hash only picks the bucket. Entries weigh their key and
//! kernel bytes against [`KERNEL_MEMO_BYTES`], least recently used first out.

use crate::scenario::AttackConfig;
use std::sync::{Arc, OnceLock};
use tsc3d_exec::LruCache;
use tsc3d_floorplan::Floorplan;
use tsc3d_geometry::Rect;
use tsc3d_obs::Metric;
use tsc3d_thermal::TsvField;

/// The memo's byte budget over key and kernel bytes.
///
/// A `verdict` needs two entries (both mitigation states). An sca campaign runs its jobs
/// floorplan by floorplan, so it needs about two per busy worker and sensor geometry. The
/// calibrated smoke attack on N100 weighs 12.6 KiB: a 5.6 KiB key (100 placements, one
/// 10 × 10 TSV field) and a 7.0 KiB kernel (9 sensors × 100 modules). So 4 MiB holds
/// ~320 of those, or ~23 ibm01 entries at 16 bins and 18 points (173 KiB each, 911
/// modules). A process that attacks mostly fresh floorplans, like the serve daemon,
/// holds at most 4 MiB of entries it seldom hits. A kernel over the budget is extracted
/// for every attack, as it would be without the memo.
pub(crate) const KERNEL_MEMO_BYTES: usize = 4 << 20;

/// The exact bits of every input kernel extraction reads, length-prefixed so distinct
/// inputs never encode alike.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct KernelKey(Vec<u64>);

fn push_rect(words: &mut Vec<u64>, rect: Rect) {
    words.extend([rect.x, rect.y, rect.width, rect.height].map(f64::to_bits));
}

impl KernelKey {
    /// The key of one attack's kernel:
    ///
    /// * the stack and its outline (they fix `ThermalConfig::default_for` and the grid),
    /// * the attack grid's bin count,
    /// * every placement's block, die and rectangle (the power stamps),
    /// * every TSV field's grid and density map (the network),
    /// * the sensor die, array size, samples per trace and dwell (the lanes and substeps).
    ///
    /// Everything else in the configuration never reaches the kernel.
    pub(crate) fn new(
        floorplan: &Floorplan,
        tsv_fields: &[TsvField],
        config: &AttackConfig,
    ) -> Self {
        let mut words = Vec::new();
        let stack = floorplan.stack();
        words.push(stack.dies() as u64);
        push_rect(&mut words, stack.outline().rect());
        words.push(config.grid_bins as u64);
        words.push(floorplan.placements().len() as u64);
        for placement in floorplan.placements() {
            words.push(placement.block.index() as u64);
            words.push(placement.die.index() as u64);
            push_rect(&mut words, placement.rect);
        }
        words.push(tsv_fields.len() as u64);
        for field in tsv_fields {
            let grid = field.density().grid();
            push_rect(&mut words, grid.region());
            words.push(grid.cols() as u64);
            words.push(grid.rows() as u64);
            words.extend(field.density().values().iter().map(|v| v.to_bits()));
        }
        let sensors = &config.sensors;
        words.extend([
            sensors.die as u64,
            sensors.sensors_per_axis as u64,
            sensors.samples_per_trace as u64,
            sensors.dwell_s.to_bits(),
        ]);
        Self(words)
    }

    /// The memo weight of this key's entry: key and kernel bytes.
    fn weight(&self, kernel: &Kernel) -> usize {
        std::mem::size_of_val(self.0.as_slice()) + std::mem::size_of_val(kernel.values.as_slice())
    }
}

/// An extracted kernel with what evaluating traces against it needs: a memo entry.
pub(crate) struct Kernel {
    /// `samples × sensors × modules`, module-minor.
    pub(crate) values: Vec<f64>,
    pub(crate) modules: usize,
    /// Trace-equivalent transient steps per trace.
    pub(crate) steps_per_trace: u64,
}

type Memo = LruCache<KernelKey, Arc<Kernel>>;

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(|| LruCache::new(KERNEL_MEMO_BYTES))
}

const CACHE_HELP: &str = "Reciprocity-kernel memo lookups by outcome (one per attack)";
static HITS: Metric =
    Metric::new("tsc3d_sca_kernel_cache_total", CACHE_HELP).labeled(&[("outcome", "hit")]);
/// Each miss is followed by an extraction unless the attack fails first.
static MISSES: Metric =
    Metric::new("tsc3d_sca_kernel_cache_total", CACHE_HELP).labeled(&[("outcome", "miss")]);

/// The memoized kernel of `key`, counting the lookup as a hit or a miss.
pub(crate) fn lookup(key: &KernelKey) -> Option<Arc<Kernel>> {
    let found = memo().get(key);
    match found {
        Some(_) => HITS.inc(),
        None => MISSES.inc(),
    }
    found
}

/// The memoized kernel of `key`, without counting a lookup.
#[cfg(test)]
pub(crate) fn peek(key: &KernelKey) -> Option<Arc<Kernel>> {
    memo().get(key)
}

/// Memoizes a freshly extracted kernel under `key` and returns the kernel to use: the
/// one already memoized if a concurrent miss on the same key inserted first (both are
/// bit-identical), else `kernel`.
pub(crate) fn memoize(key: KernelKey, kernel: Kernel) -> Arc<Kernel> {
    let weight = key.weight(&kernel);
    memo().get_or_insert(key, Arc::new(kernel), weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{attack_tsv_fields, Mitigation, TargetPolicy};
    use crate::tests::{flow_fixture, test_config};
    use crate::workload::LeakageModel;
    use tsc3d_floorplan::PlacedBlock;
    use tsc3d_geometry::{DieId, Outline, Stack};

    /// One field per input extraction reads: changing any one of them must miss, while
    /// changing any input it never reads must hit. Seeds, the key seed, the nominal powers
    /// and the pool are not even arguments of the key.
    #[test]
    fn the_key_changes_with_exactly_what_extraction_reads() {
        let (design, flow) = flow_fixture();
        let floorplan = flow.floorplan();
        let config = test_config();
        let grid = floorplan.analysis_grid(config.grid_bins);
        let fields = attack_tsv_fields(design, flow, grid, Mitigation::Baseline);
        let base = KernelKey::new(floorplan, &fields, &config);
        assert_eq!(KernelKey::new(floorplan, &fields, &config), base);

        let moved = |edit: &dyn Fn(&mut Vec<PlacedBlock>)| {
            let mut placements = floorplan.placements().to_vec();
            edit(&mut placements);
            Floorplan::new(floorplan.stack(), placements)
        };
        let stack = floorplan.stack();
        let outline = stack.outline().rect();
        let floorplans = [
            (
                "outline",
                Floorplan::new(
                    Stack::new(
                        stack.dies(),
                        Outline::new(outline.width + 1.0, outline.height),
                    ),
                    floorplan.placements().to_vec(),
                ),
            ),
            ("rect", moved(&|p| p[0].rect.x += 1.0)),
            ("die", moved(&|p| p[0].die = DieId(1 - p[0].die.index()))),
        ];
        for (input, changed) in &floorplans {
            assert_ne!(KernelKey::new(changed, &fields, &config), base, "{input}");
        }

        let mut denser = fields.clone();
        denser[0] = TsvField::uniform(grid, 0.5);
        let mut regridded = fields.clone();
        regridded[0] = TsvField::empty(floorplan.analysis_grid(config.grid_bins + 1));
        for (input, changed) in [("density", denser), ("field grid", regridded)] {
            assert_ne!(
                KernelKey::new(floorplan, &changed, &config),
                base,
                "{input}"
            );
        }

        type Edit = fn(&mut AttackConfig);
        let configs: [(&str, Edit); 5] = [
            ("grid_bins", |c| c.grid_bins += 1),
            ("sensor die", |c| c.sensors.die = 1),
            ("sensors_per_axis", |c| c.sensors.sensors_per_axis += 1),
            ("samples_per_trace", |c| c.sensors.samples_per_trace += 1),
            ("dwell_s", |c| c.sensors.dwell_s *= 2.0),
        ];
        for (input, edit) in configs {
            let mut changed = config;
            edit(&mut changed);
            assert_ne!(
                KernelKey::new(floorplan, &fields, &changed),
                base,
                "{input}"
            );
        }

        let excluded: [(&str, Edit); 9] = [
            ("sigma_k", |c| c.sensors.sigma_k = 0.5),
            ("quantization_k", |c| c.sensors.quantization_k = 0.0),
            ("traces", |c| c.traces += 8),
            ("mtd_checkpoints", |c| c.mtd_checkpoints += 1),
            ("target", |c| c.target = TargetPolicy::Block(0)),
            ("key_bytes", |c| c.workload.key_bytes += 1),
            ("leakage", |c| {
                c.workload.leakage = LeakageModel::HammingDistance
            }),
            ("watts_per_hw", |c| c.workload.watts_per_hw *= 2.0),
            ("background_sigma", |c| c.workload.background_sigma = 0.0),
        ];
        for (input, edit) in excluded {
            let mut changed = config;
            edit(&mut changed);
            assert_eq!(
                KernelKey::new(floorplan, &fields, &changed),
                base,
                "{input}"
            );
        }
    }

    #[test]
    fn eviction_keeps_the_memo_within_its_byte_budget() {
        let (design, flow) = flow_fixture();
        let floorplan = flow.floorplan();
        let config = test_config();
        let grid = floorplan.analysis_grid(config.grid_bins);
        let fields = attack_tsv_fields(design, flow, grid, Mitigation::Baseline);
        let kernel = |dwell_s: f64| {
            let mut config = config;
            config.sensors.dwell_s = dwell_s;
            let kernel = Kernel {
                values: vec![dwell_s; config.sensors.points() * floorplan.placements().len()],
                modules: floorplan.placements().len(),
                steps_per_trace: 1,
            };
            (KernelKey::new(floorplan, &fields, &config), kernel)
        };
        let (key, entry) = kernel(0.001);
        let weight = key.weight(&entry);
        assert_eq!(weight, 8 * (key.0.len() + entry.values.len()));
        let budget = 2 * weight + weight / 2;
        let memo = Memo::new(budget);
        for step in 1..=5 {
            let (key, entry) = kernel(0.001 * step as f64);
            memo.get_or_insert(key, Arc::new(entry), weight);
            assert!(memo.weight() <= budget);
        }
        assert_eq!(memo.len(), 2);
        assert!(memo.get(&kernel(0.001 * 5.0).0).is_some());
        assert!(memo.get(&kernel(0.001 * 3.0).0).is_none());
    }
}
