//! Physical description of the 3D stack: materials, layers and boundary conditions.

use tsc3d_geometry::Stack;

/// Bulk material properties used by the thermal solvers.
///
/// Conductivity is in W/(m·K), volumetric heat capacity in J/(m³·K). Values follow the
/// defaults shipped with HotSpot / Corblivar for the 3D-IC configuration used in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaterialProperties {
    /// Thermal conductivity in W/(m·K).
    pub conductivity: f64,
    /// Volumetric heat capacity in J/(m³·K).
    pub volumetric_heat_capacity: f64,
}

impl MaterialProperties {
    /// Creates a material from conductivity and volumetric heat capacity.
    pub const fn new(conductivity: f64, volumetric_heat_capacity: f64) -> Self {
        Self {
            conductivity,
            volumetric_heat_capacity,
        }
    }

    /// Bulk silicon.
    pub const SILICON: MaterialProperties = MaterialProperties::new(150.0, 1.75e6);
    /// Copper (TSV fill, heat spreader).
    pub const COPPER: MaterialProperties = MaterialProperties::new(400.0, 3.55e6);
    /// Back-end-of-line / bonding layer (oxide + wiring average).
    pub const BEOL: MaterialProperties = MaterialProperties::new(2.25, 2.0e6);
    /// Thermal interface material.
    pub const TIM: MaterialProperties = MaterialProperties::new(4.0, 4.0e6);
    /// Underfill / micro-bump layer between stacked dies.
    pub const BOND: MaterialProperties = MaterialProperties::new(1.5, 2.2e6);
}

/// The role a layer plays in the stack; used to decide where power is injected and where
/// TSV fields modulate the vertical conductivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackLayerKind {
    /// Active silicon of a die; power maps are injected here. The payload is the die index
    /// (0 = bottom die).
    ActiveSilicon {
        /// Index of the die this layer belongs to (0 = bottom).
        die: usize,
    },
    /// Bond/BEOL layer between die `lower` and die `lower + 1`; TSVs crossing this interface
    /// raise its effective vertical conductivity. The payload is the interface index
    /// (0 = between die 0 and die 1).
    Bond {
        /// Index of the inter-die interface (0 = between the two bottom-most dies).
        interface: usize,
    },
    /// Thermal interface material between the top die and the heat spreader.
    Tim,
    /// Passive bulk silicon (thinned substrate) of a die.
    BulkSilicon,
}

/// One layer of the thermal stack (bottom-to-top ordering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackLayer {
    /// What the layer represents.
    pub kind: StackLayerKind,
    /// Layer thickness in metres.
    pub thickness: f64,
    /// Material of the layer.
    pub material: MaterialProperties,
}

impl StackLayer {
    /// Creates a layer.
    pub fn new(kind: StackLayerKind, thickness: f64, material: MaterialProperties) -> Self {
        Self {
            kind,
            thickness,
            material,
        }
    }
}

/// Full thermal configuration: layer stack plus boundary conditions.
///
/// The primary heat path goes upwards through the TIM into the heat spreader and heatsink
/// (modelled as an area-specific conductance to ambient above the top layer). The secondary
/// path conducts a smaller amount of heat downwards through the package into the board
/// (area-specific conductance below the bottom layer), as described in Section 3.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// The 3D stack being analysed (die count + outline).
    pub stack: Stack,
    /// Layers from bottom (package side) to top (heatsink side).
    pub layers: Vec<StackLayer>,
    /// Ambient temperature in kelvin.
    pub ambient: f64,
    /// Area-specific conductance of the primary path (TIM top → spreader → sink → ambient),
    /// in W/(m²·K).
    pub heatsink_conductance: f64,
    /// Area-specific conductance of the secondary path (bottom layer → package → ambient),
    /// in W/(m²·K). Much smaller than the heatsink conductance.
    pub secondary_conductance: f64,
}

impl ThermalConfig {
    /// Ambient temperature used throughout the paper (293 K).
    pub const DEFAULT_AMBIENT: f64 = 293.0;

    /// Builds the default two-path configuration for a face-to-back stack of `stack.dies()`
    /// dies: for every die an active silicon layer, between consecutive dies a bond/BEOL
    /// layer (where the TSVs live), and a TIM layer below the heatsink.
    ///
    /// Layer thicknesses follow the Corblivar/HotSpot defaults for TSV-based stacking:
    /// 100 µm thinned dies, 20 µm bond/BEOL, 50 µm TIM.
    pub fn default_for(stack: Stack) -> Self {
        let mut layers = Vec::new();
        for die in 0..stack.dies() {
            layers.push(StackLayer::new(
                StackLayerKind::ActiveSilicon { die },
                100e-6,
                MaterialProperties::SILICON,
            ));
            if die + 1 < stack.dies() {
                layers.push(StackLayer::new(
                    StackLayerKind::Bond { interface: die },
                    20e-6,
                    MaterialProperties::BOND,
                ));
            }
        }
        layers.push(StackLayer::new(
            StackLayerKind::Tim,
            50e-6,
            MaterialProperties::TIM,
        ));
        Self {
            stack,
            layers,
            ambient: Self::DEFAULT_AMBIENT,
            heatsink_conductance: 2.0e4,
            secondary_conductance: 4.0e2,
        }
    }

    /// Number of layers in the stack.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Index of the active-silicon layer of die `die`, if present.
    pub fn active_layer_of(&self, die: usize) -> Option<usize> {
        self.layers
            .iter()
            .position(|l| l.kind == StackLayerKind::ActiveSilicon { die })
    }

    /// Index of the bond layer of inter-die interface `interface`, if present.
    pub fn bond_layer_of(&self, interface: usize) -> Option<usize> {
        self.layers
            .iter()
            .position(|l| l.kind == StackLayerKind::Bond { interface })
    }

    /// Number of inter-die interfaces (dies − 1).
    pub fn interfaces(&self) -> usize {
        self.stack.dies().saturating_sub(1)
    }

    /// Returns a copy with a different ambient temperature.
    pub fn with_ambient(mut self, ambient: f64) -> Self {
        self.ambient = ambient;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc3d_geometry::Outline;

    #[test]
    fn default_two_die_stack_layers() {
        let cfg = ThermalConfig::default_for(Stack::two_die(Outline::new(1000.0, 1000.0)));
        // active(0), bond(0), active(1), TIM
        assert_eq!(cfg.layer_count(), 4);
        assert_eq!(cfg.active_layer_of(0), Some(0));
        assert_eq!(cfg.bond_layer_of(0), Some(1));
        assert_eq!(cfg.active_layer_of(1), Some(2));
        assert_eq!(cfg.active_layer_of(2), None);
        assert_eq!(cfg.interfaces(), 1);
        assert_eq!(cfg.layers[3].kind, StackLayerKind::Tim);
        assert_eq!(cfg.ambient, 293.0);
    }

    #[test]
    fn four_die_stack_has_three_interfaces() {
        let cfg = ThermalConfig::default_for(Stack::new(4, Outline::new(1000.0, 1000.0)));
        assert_eq!(cfg.interfaces(), 3);
        assert_eq!(cfg.layer_count(), 4 + 3 + 1);
        assert!(cfg.bond_layer_of(2).is_some());
        assert!(cfg.bond_layer_of(3).is_none());
    }

    #[test]
    fn builders_override_boundaries() {
        let cfg = ThermalConfig::default_for(Stack::two_die(Outline::new(10.0, 10.0)))
            .with_ambient(300.0);
        assert_eq!(cfg.ambient, 300.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn material_constants_are_sensible() {
        assert!(MaterialProperties::COPPER.conductivity > MaterialProperties::SILICON.conductivity);
        assert!(MaterialProperties::SILICON.conductivity > MaterialProperties::BEOL.conductivity);
        assert!(MaterialProperties::BOND.conductivity < MaterialProperties::TIM.conductivity);
    }
}
