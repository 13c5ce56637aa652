//! Voltage levels and their power/delay scaling (90 nm node, Section 7 of the paper).

use std::fmt;

/// The three supply voltages considered for voltage volumes in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VoltageLevel {
    /// 0.8 V: 0.817× power, 1.56× delay.
    V0_8,
    /// 1.0 V: nominal power and delay.
    V1_0,
    /// 1.2 V: 1.496× power, 0.83× delay.
    V1_2,
}

impl VoltageLevel {
    /// All levels from lowest to highest voltage.
    pub const ALL: [VoltageLevel; 3] = [VoltageLevel::V0_8, VoltageLevel::V1_0, VoltageLevel::V1_2];

    /// The supply voltage in volts.
    pub fn volts(self) -> f64 {
        match self {
            VoltageLevel::V0_8 => 0.8,
            VoltageLevel::V1_0 => 1.0,
            VoltageLevel::V1_2 => 1.2,
        }
    }
}

impl fmt::Display for VoltageLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}V", self.volts())
    }
}

/// Power and delay scaling factors per voltage level.
///
/// The default values are the 90 nm simulation results quoted in Section 7 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageScaling {
    levels: Vec<(VoltageLevel, f64, f64)>,
}

impl VoltageScaling {
    /// The paper's scaling table as `(level, power factor, delay factor)` rows, lowest
    /// voltage first: 0.8 V (0.817× power, 1.56× delay), 1.0 V (1×, 1×), 1.2 V (1.496×
    /// power, 0.83× delay).
    pub const PAPER_90NM: [(VoltageLevel, f64, f64); 3] = [
        (VoltageLevel::V0_8, 0.817, 1.56),
        (VoltageLevel::V1_0, 1.0, 1.0),
        (VoltageLevel::V1_2, 1.496, 0.83),
    ];

    /// The scaling table used in the paper ([`VoltageScaling::PAPER_90NM`]).
    pub fn paper_90nm() -> Self {
        Self {
            levels: Self::PAPER_90NM.to_vec(),
        }
    }

    /// The available levels, lowest voltage first.
    pub fn levels(&self) -> Vec<VoltageLevel> {
        self.levels.iter().map(|(l, _, _)| *l).collect()
    }

    /// Power scaling factor of a level relative to 1.0 V.
    pub fn power_factor(&self, level: VoltageLevel) -> f64 {
        self.levels
            .iter()
            .find(|(l, _, _)| *l == level)
            .map(|(_, p, _)| *p)
            .expect("level present in table")
    }

    /// Delay scaling factor of a level relative to 1.0 V.
    pub fn delay_factor(&self, level: VoltageLevel) -> f64 {
        self.levels
            .iter()
            .find(|(l, _, _)| *l == level)
            .map(|(_, _, d)| *d)
            .expect("level present in table")
    }

    /// The lowest level whose delay factor keeps `nominal_delay * factor <= budget`, i.e.
    /// the most power-efficient voltage a module with the given slack can afford.
    ///
    /// Returns `None` when even the highest voltage misses the budget.
    pub fn lowest_feasible(&self, nominal_delay: f64, budget: f64) -> Option<VoltageLevel> {
        self.levels
            .iter()
            .find(|(_, _, d)| nominal_delay * d <= budget)
            .map(|(l, _, _)| *l)
    }

    /// All levels whose delay factor keeps the module within the budget.
    pub fn feasible_set(&self, nominal_delay: f64, budget: f64) -> Vec<VoltageLevel> {
        self.levels
            .iter()
            .filter(|(_, _, d)| nominal_delay * d <= budget)
            .map(|(l, _, _)| *l)
            .collect()
    }
}

impl Default for VoltageScaling {
    fn default() -> Self {
        Self::paper_90nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_values() {
        let s = VoltageScaling::paper_90nm();
        assert_eq!(s.power_factor(VoltageLevel::V0_8), 0.817);
        assert_eq!(s.delay_factor(VoltageLevel::V0_8), 1.56);
        assert_eq!(s.power_factor(VoltageLevel::V1_0), 1.0);
        assert_eq!(s.delay_factor(VoltageLevel::V1_2), 0.83);
        assert_eq!(s.levels(), VoltageLevel::ALL.to_vec());
    }

    #[test]
    fn voltage_values_and_display() {
        assert_eq!(VoltageLevel::V0_8.volts(), 0.8);
        assert_eq!(format!("{}", VoltageLevel::V1_2), "1.2V");
        assert!(VoltageLevel::V0_8 < VoltageLevel::V1_2);
    }

    #[test]
    fn lowest_feasible_prefers_low_voltage() {
        let s = VoltageScaling::paper_90nm();
        // Plenty of slack → run at 0.8 V.
        assert_eq!(s.lowest_feasible(1.0, 2.0), Some(VoltageLevel::V0_8));
        // Tight budget → must boost to 1.2 V.
        assert_eq!(s.lowest_feasible(1.0, 0.9), Some(VoltageLevel::V1_2));
        // Impossible budget.
        assert_eq!(s.lowest_feasible(1.0, 0.5), None);
    }

    #[test]
    fn feasible_set_is_monotone_in_budget() {
        let s = VoltageScaling::paper_90nm();
        let tight = s.feasible_set(1.0, 1.0);
        let loose = s.feasible_set(1.0, 2.0);
        assert!(tight.len() <= loose.len());
        assert_eq!(loose.len(), 3);
        assert_eq!(tight, vec![VoltageLevel::V1_0, VoltageLevel::V1_2]);
    }
}
