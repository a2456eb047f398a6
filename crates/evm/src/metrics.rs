//! Execution metrics.
//!
//! The paper's evaluation is driven almost entirely by numbers the virtual
//! machine can observe about itself while running: the maximum stack
//! pointer (Figure 3c), the memory high-water mark (Figure 3b), and the
//! amount of work executed, which the device model converts into time
//! (Figure 4) and energy (Table IV). [`ExecMetrics`] collects exactly those
//! observables.

use tinyevm_trace::JsonObject;

use crate::opcode::Opcode;

/// Counters collected during one execution frame (including sub-calls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Total instructions retired.
    pub instructions: u64,
    /// Estimated MCU cycles, summed from each opcode's base cost.
    pub mcu_cycles: u64,
    /// Highest stack pointer observed (number of 256-bit elements).
    pub max_stack_pointer: usize,
    /// Memory high-water mark in bytes.
    pub memory_high_water: usize,
    /// Bytes resident in storage when the frame finished.
    pub storage_bytes: usize,
    /// Gas consumed (only meaningful in metered mode).
    pub gas_used: u64,
    /// Number of Keccak-256 invocations (the `SHA3` opcode), needed by the
    /// device model because hashing runs in software on the MCU.
    pub keccak_invocations: u64,
    /// Total bytes hashed by `SHA3`.
    pub keccak_bytes: u64,
    /// Number of IoT opcode executions (sensor reads / actuations).
    pub iot_invocations: u64,
    /// Per-opcode execution histogram, indexed by opcode byte.
    pub opcode_histogram: [u64; 256],
}

impl Default for ExecMetrics {
    fn default() -> Self {
        ExecMetrics {
            instructions: 0,
            mcu_cycles: 0,
            max_stack_pointer: 0,
            memory_high_water: 0,
            storage_bytes: 0,
            gas_used: 0,
            keccak_invocations: 0,
            keccak_bytes: 0,
            iot_invocations: 0,
            opcode_histogram: [0u64; 256],
        }
    }
}

impl ExecMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed opcode.
    pub fn record(&mut self, opcode: Opcode) {
        self.instructions += 1;
        self.mcu_cycles += opcode.info().mcu_cycles as u64;
        self.opcode_histogram[opcode.to_byte() as usize] += 1;
    }

    /// Number of times `opcode` was executed.
    pub fn count(&self, opcode: Opcode) -> u64 {
        self.opcode_histogram[opcode.to_byte() as usize]
    }

    /// Merges the metrics of a completed sub-frame into this frame.
    pub fn absorb(&mut self, child: &ExecMetrics) {
        self.instructions += child.instructions;
        self.mcu_cycles += child.mcu_cycles;
        self.max_stack_pointer = self.max_stack_pointer.max(child.max_stack_pointer);
        self.memory_high_water = self.memory_high_water.max(child.memory_high_water);
        self.storage_bytes = self.storage_bytes.max(child.storage_bytes);
        self.gas_used += child.gas_used;
        self.keccak_invocations += child.keccak_invocations;
        self.keccak_bytes += child.keccak_bytes;
        self.iot_invocations += child.iot_invocations;
        for i in 0..256 {
            self.opcode_histogram[i] += child.opcode_histogram[i];
        }
    }

    /// Stack bytes corresponding to the maximum stack pointer (32 bytes per
    /// element), the "Stack (Bytes)" column of the paper's Table II.
    pub fn stack_bytes(&self) -> usize {
        self.max_stack_pointer * 32
    }

    /// Renders the metrics as one JSON object, fields in declaration order
    /// and the opcode histogram as a 256-entry array. The golden-vector
    /// suite pins this schema.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("instructions", self.instructions)
            .u64("mcu_cycles", self.mcu_cycles)
            .u64("max_stack_pointer", self.max_stack_pointer as u64)
            .u64("memory_high_water", self.memory_high_water as u64)
            .u64("storage_bytes", self.storage_bytes as u64)
            .u64("gas_used", self.gas_used)
            .u64("keccak_invocations", self.keccak_invocations)
            .u64("keccak_bytes", self.keccak_bytes)
            .u64("iot_invocations", self.iot_invocations)
            .u64_array("opcode_histogram", &self.opcode_histogram)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_updates_counters_and_histogram() {
        let mut metrics = ExecMetrics::new();
        metrics.record(Opcode::Add);
        metrics.record(Opcode::Add);
        metrics.record(Opcode::Mul);
        assert_eq!(metrics.instructions, 3);
        assert_eq!(metrics.count(Opcode::Add), 2);
        assert_eq!(metrics.count(Opcode::Mul), 1);
        assert_eq!(metrics.count(Opcode::Stop), 0);
        assert_eq!(
            metrics.mcu_cycles,
            2 * Opcode::Add.info().mcu_cycles as u64 + Opcode::Mul.info().mcu_cycles as u64
        );
    }

    #[test]
    fn absorb_merges_child_frames() {
        let mut parent = ExecMetrics::new();
        parent.record(Opcode::Call);
        parent.max_stack_pointer = 5;
        parent.memory_high_water = 100;

        let mut child = ExecMetrics::new();
        child.record(Opcode::Add);
        child.max_stack_pointer = 9;
        child.memory_high_water = 40;
        child.keccak_invocations = 2;
        child.iot_invocations = 1;

        parent.absorb(&child);
        assert_eq!(parent.instructions, 2);
        assert_eq!(parent.max_stack_pointer, 9);
        assert_eq!(parent.memory_high_water, 100);
        assert_eq!(parent.keccak_invocations, 2);
        assert_eq!(parent.iot_invocations, 1);
        assert_eq!(parent.count(Opcode::Add), 1);
        assert_eq!(parent.count(Opcode::Call), 1);
    }

    #[test]
    fn stack_bytes_are_32_per_element() {
        let mut metrics = ExecMetrics::new();
        metrics.max_stack_pointer = 8;
        assert_eq!(metrics.stack_bytes(), 256);
    }

    #[test]
    fn default_is_zeroed() {
        let metrics = ExecMetrics::default();
        assert_eq!(metrics.instructions, 0);
        assert_eq!(metrics.mcu_cycles, 0);
        assert!(metrics.opcode_histogram.iter().all(|&c| c == 0));
    }
}
