//! Elmore net delays and module intrinsic delays.

/// Placement-derived description of one net, as needed for delay estimation.
///
/// The floorplanner produces one `NetTopology` per net from the current layout: the
/// half-perimeter wirelength of the net's bounding box and the number of dies the net has to
/// cross (each crossing requires one signal TSV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetTopology {
    /// Half-perimeter wirelength in µm.
    pub hpwl: f64,
    /// Number of inter-die crossings (signal TSVs on this net).
    pub tsv_crossings: usize,
    /// Number of sink pins driven by the net.
    pub fanout: usize,
}

impl NetTopology {
    /// Creates a net topology description.
    pub fn new(hpwl: f64, tsv_crossings: usize, fanout: usize) -> Self {
        Self {
            hpwl,
            tsv_crossings,
            fanout: fanout.max(1),
        }
    }
}

/// Elmore RC delay model for wires and TSVs.
///
/// The model follows the classical first-order Elmore formulation the paper uses for net
/// delays ("we estimate the net delays via the well-known Elmore delays, here with
/// consideration of wires and TSVs"): a driver resistance charging the distributed wire
/// RC, the lumped TSV RC of every die crossing, and the input capacitance of each sink.
/// All resistances are in ohms, capacitances in farads, lengths in µm; delays are returned
/// in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElmoreModel {
    /// Wire resistance per µm (Ω/µm).
    pub wire_resistance: f64,
    /// Wire capacitance per µm (F/µm).
    pub wire_capacitance: f64,
    /// Lumped resistance of one signal TSV (Ω).
    pub tsv_resistance: f64,
    /// Lumped capacitance of one signal TSV (F).
    pub tsv_capacitance: f64,
    /// Output resistance of the driving module (Ω).
    pub driver_resistance: f64,
    /// Input capacitance of one sink pin (F).
    pub sink_capacitance: f64,
}

impl ElmoreModel {
    /// Default 90 nm global-wire parameters (matching the technology assumptions of the
    /// paper's references): 0.1 Ω/µm, 0.2 fF/µm wires; 50 mΩ, 50 fF TSVs; 1 kΩ drivers;
    /// 5 fF sinks.
    pub fn default_90nm() -> Self {
        Self {
            wire_resistance: 0.1,
            wire_capacitance: 0.2e-15,
            tsv_resistance: 0.05,
            tsv_capacitance: 50e-15,
            driver_resistance: 1_000.0,
            sink_capacitance: 5e-15,
        }
    }

    /// Elmore delay of a net in nanoseconds.
    ///
    /// ```
    /// use tsc3d_timing::{ElmoreModel, NetTopology};
    /// let model = ElmoreModel::default_90nm();
    /// let short = model.net_delay(&NetTopology::new(100.0, 0, 1));
    /// let long = model.net_delay(&NetTopology::new(10_000.0, 0, 1));
    /// assert!(long > short);
    /// ```
    pub fn net_delay(&self, net: &NetTopology) -> f64 {
        let wire_r = self.wire_resistance * net.hpwl;
        let wire_c = self.wire_capacitance * net.hpwl;
        let tsv_r = self.tsv_resistance * net.tsv_crossings as f64;
        let tsv_c = self.tsv_capacitance * net.tsv_crossings as f64;
        let sinks_c = self.sink_capacitance * net.fanout as f64;

        // Driver sees the full downstream capacitance; the distributed wire sees half its
        // own capacitance plus everything downstream of it; the TSVs are lumped at the far
        // end of the wire.
        let delay_s = self.driver_resistance * (wire_c + tsv_c + sinks_c)
            + wire_r * (wire_c / 2.0 + tsv_c + sinks_c)
            + tsv_r * (tsv_c / 2.0 + sinks_c);
        delay_s * 1e9
    }
}

impl Default for ElmoreModel {
    fn default() -> Self {
        Self::default_90nm()
    }
}

/// Intrinsic module delay model.
///
/// Block-level benchmarks expose no internal netlists, so — following the model adopted by
/// the paper from its reference \[27\] — a module's intrinsic delay is estimated from its
/// footprint: larger modules host longer internal paths, with a square-root dependence on
/// area (logic depth grows with the linear dimension, not the area).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleDelayModel {
    /// Fixed overhead per module in ns (register + local routing).
    pub base_delay: f64,
    /// Delay per micrometre of linear module dimension, in ns/µm.
    pub delay_per_um: f64,
}

impl ModuleDelayModel {
    /// Default 90 nm parameters: 0.05 ns base, 0.2 ps/µm of linear dimension.
    pub fn default_90nm() -> Self {
        Self {
            base_delay: 0.05,
            delay_per_um: 0.0002,
        }
    }

    /// Intrinsic delay (ns) of a module with the given area in µm².
    ///
    /// ```
    /// use tsc3d_timing::ModuleDelayModel;
    /// let m = ModuleDelayModel::default_90nm();
    /// assert!(m.module_delay(1_000_000.0) > m.module_delay(10_000.0));
    /// ```
    pub fn module_delay(&self, area: f64) -> f64 {
        self.base_delay + self.delay_per_um * area.max(0.0).sqrt()
    }
}

impl Default for ModuleDelayModel {
    fn default() -> Self {
        Self::default_90nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_grows_with_wirelength() {
        let m = ElmoreModel::default_90nm();
        let d1 = m.net_delay(&NetTopology::new(100.0, 0, 1));
        let d2 = m.net_delay(&NetTopology::new(1_000.0, 0, 1));
        let d3 = m.net_delay(&NetTopology::new(10_000.0, 0, 1));
        assert!(d1 < d2 && d2 < d3);
        // Long global wires have a quadratic component.
        assert!((d3 - d1) > 10.0 * (d2 - d1) * 0.5);
    }

    #[test]
    fn tsv_crossing_adds_delay() {
        let m = ElmoreModel::default_90nm();
        let planar = m.net_delay(&NetTopology::new(1_000.0, 0, 1));
        let crossing = m.net_delay(&NetTopology::new(1_000.0, 1, 1));
        assert!(crossing > planar);
        // But a TSV costs far less than a few millimetres of extra wire.
        let detour = m.net_delay(&NetTopology::new(4_000.0, 0, 1));
        assert!(crossing < detour);
    }

    #[test]
    fn fanout_adds_delay_and_is_at_least_one() {
        let m = ElmoreModel::default_90nm();
        let single = m.net_delay(&NetTopology::new(500.0, 0, 1));
        let fan8 = m.net_delay(&NetTopology::new(500.0, 0, 8));
        assert!(fan8 > single);
        // Constructor clamps fanout to >= 1.
        assert_eq!(NetTopology::new(500.0, 0, 0).fanout, 1);
    }

    #[test]
    fn delays_are_positive_nanoseconds_in_plausible_range() {
        let m = ElmoreModel::default_90nm();
        let d = m.net_delay(&NetTopology::new(5_000.0, 2, 3));
        assert!(d > 0.0 && d < 100.0, "delay {d} ns out of plausible range");
    }

    #[test]
    fn module_delay_scales_with_sqrt_area() {
        let m = ModuleDelayModel::default_90nm();
        let small = m.module_delay(10_000.0); // 100 µm on a side
        let large = m.module_delay(1_000_000.0); // 1000 µm on a side
        assert!(large > small);
        let ratio = (large - m.base_delay) / (small - m.base_delay);
        assert!((ratio - 10.0).abs() < 1e-9);
        assert_eq!(m.module_delay(0.0), m.base_delay);
    }
}
