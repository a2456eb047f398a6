//! Virtual-machine resource profiles.

/// Whether execution charges gas.
///
/// The paper removes gas charging for off-chain execution — "there is no
/// charging for the off-chain computations as all operations are executed
/// locally" — but the on-chain template contract still runs metered on the
/// simulated main chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GasMode {
    /// No gas accounting; an instruction budget guards against
    /// non-termination instead.
    Unmetered,
    /// Classic gas accounting with the given limit.
    Metered {
        /// Gas available to the frame.
        limit: u64,
    },
}

/// Resource limits and behaviour switches for one virtual machine instance.
///
/// Two presets matter in practice: [`EvmConfig::cc2538`] models the paper's
/// OpenMote-B deployment (Table III memory split), and
/// [`EvmConfig::unconstrained`] models a full node for differential testing.
///
/// # Example
///
/// ```
/// use tinyevm_evm::EvmConfig;
///
/// let device = EvmConfig::cc2538();
/// assert_eq!(device.max_code_size, 8 * 1024);
/// assert_eq!(device.max_memory_bytes, 8 * 1024);
/// let full = EvmConfig::unconstrained();
/// assert!(full.max_code_size > device.max_code_size);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvmConfig {
    /// Maximum number of 256-bit stack elements. Ethereum specifies 1024;
    /// the CC2538 profile allocates 3 KB = 96 elements.
    pub max_stack_depth: usize,
    /// Random-access memory budget in bytes (paper: 8 KB).
    pub max_memory_bytes: usize,
    /// Maximum deployable runtime bytecode size in bytes (paper: 8 KB).
    pub max_code_size: usize,
    /// Maximum init-code (constructor) size that can be staged for
    /// deployment. The paper's Figure 3b shows contracts whose shipped
    /// bytecode exceeds 8 KB still deploying because the *final* deployment
    /// stays under 8 KB, so staging is allowed to be larger than the
    /// runtime ceiling (the radio delivers it in fragments).
    pub max_init_code_size: usize,
    /// Off-chain storage budget in bytes (paper: 1 KB).
    pub max_storage_bytes: usize,
    /// Maximum call / create nesting depth.
    pub max_call_depth: usize,
    /// Upper bound on executed instructions per frame; replaces gas as the
    /// termination guard in unmetered mode.
    pub instruction_limit: u64,
    /// Gas behaviour.
    pub gas_mode: GasMode,
    /// When true (TinyEVM off-chain mode), blockchain-information and gas
    /// opcodes trap; when false they return placeholder values, as a full
    /// node context would provide real ones.
    pub off_chain: bool,
    /// When true, disable the per-basic-block batching of gas and
    /// instruction-limit checks and account every opcode individually.
    /// The batched fast path is observationally identical (results, gas,
    /// metrics and trap PCs), so this exists for differential testing and
    /// for benchmarking the batching itself.
    pub per_op_metering: bool,
    /// When true, the deployment path runs the static analyzer over init
    /// and runtime code and refuses statically-rejected contracts before
    /// anything executes. Off by default: the experiment corpus contains
    /// intentionally-malformed contracts whose runtime traps are themselves
    /// the measurement.
    pub validate_on_deploy: bool,
    /// When set, deployment additionally demands a
    /// [`tinyevm_analysis::GasCertificate::Bounded`] proof with
    /// `max_gas` at or below this budget for both init and runtime code.
    /// Contracts whose worst-case cost is unbounded (reachable loop) or
    /// uncertifiable (unresolved jump, subcalls) are refused: admission
    /// requires a proof, not the absence of one. `None` (the default)
    /// disables the gate.
    pub gas_certificate_budget: Option<u64>,
}

impl EvmConfig {
    /// The CC2538 / OpenMote-B profile used throughout the paper's
    /// evaluation: 3 KB stack, 8 KB RAM, 8 KB code, 1 KB off-chain storage,
    /// unmetered off-chain execution.
    pub fn cc2538() -> Self {
        EvmConfig {
            // 3 KB of 32-byte words.
            max_stack_depth: 96,
            max_memory_bytes: 8 * 1024,
            max_code_size: 8 * 1024,
            max_init_code_size: 26 * 1024,
            max_storage_bytes: 1024,
            max_call_depth: 8,
            instruction_limit: 2_000_000,
            gas_mode: GasMode::Unmetered,
            off_chain: true,
            per_op_metering: false,
            validate_on_deploy: false,
            gas_certificate_budget: None,
        }
    }

    /// An Ethereum-full-node-like profile: spec stack depth, 24 KB code
    /// limit, large memory, metered execution, blockchain opcodes allowed.
    pub fn unconstrained() -> Self {
        EvmConfig {
            max_stack_depth: 1024,
            max_memory_bytes: 16 * 1024 * 1024,
            max_code_size: 24 * 1024,
            max_init_code_size: 48 * 1024,
            max_storage_bytes: 1024 * 1024,
            max_call_depth: 1024,
            instruction_limit: 50_000_000,
            gas_mode: GasMode::Metered { limit: 8_000_000 },
            off_chain: false,
            per_op_metering: false,
            validate_on_deploy: false,
            gas_certificate_budget: None,
        }
    }

    /// Returns a copy with a different code-size limit — used by the
    /// deployment-limit ablation experiment.
    pub fn with_code_limit(mut self, bytes: usize) -> Self {
        self.max_code_size = bytes;
        self
    }

    /// Returns a copy with a different memory budget.
    pub fn with_memory_limit(mut self, bytes: usize) -> Self {
        self.max_memory_bytes = bytes;
        self
    }

    /// Returns a copy with the given gas mode.
    pub fn with_gas_mode(mut self, mode: GasMode) -> Self {
        self.gas_mode = mode;
        self
    }

    /// Returns a copy with per-opcode accounting forced on (the block-batched
    /// fast path disabled).
    pub fn with_per_op_metering(mut self, enabled: bool) -> Self {
        self.per_op_metering = enabled;
        self
    }

    /// Returns a copy with the deploy-time static-analysis gate toggled.
    pub fn with_deploy_validation(mut self, enabled: bool) -> Self {
        self.validate_on_deploy = enabled;
        self
    }

    /// Returns a copy demanding a static worst-case gas proof of at most
    /// `max_gas` from every deployed contract (init and runtime code).
    pub fn with_gas_certificate_budget(mut self, max_gas: u64) -> Self {
        self.gas_certificate_budget = Some(max_gas);
        self
    }
}

impl Default for EvmConfig {
    fn default() -> Self {
        EvmConfig::cc2538()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc2538_matches_paper_allocation() {
        let config = EvmConfig::cc2538();
        assert_eq!(config.max_stack_depth * 32, 3 * 1024); // 3 KB stack
        assert_eq!(config.max_memory_bytes, 8 * 1024);
        assert_eq!(config.max_code_size, 8 * 1024);
        assert_eq!(config.max_storage_bytes, 1024);
        assert_eq!(config.gas_mode, GasMode::Unmetered);
        assert!(config.off_chain);
    }

    #[test]
    fn default_is_the_device_profile() {
        assert_eq!(EvmConfig::default(), EvmConfig::cc2538());
    }

    #[test]
    fn unconstrained_is_larger_everywhere() {
        let device = EvmConfig::cc2538();
        let full = EvmConfig::unconstrained();
        assert!(full.max_stack_depth > device.max_stack_depth);
        assert!(full.max_memory_bytes > device.max_memory_bytes);
        assert!(full.max_code_size > device.max_code_size);
        assert!(!full.off_chain);
        assert!(matches!(full.gas_mode, GasMode::Metered { .. }));
    }

    #[test]
    fn builder_style_overrides() {
        let config = EvmConfig::cc2538()
            .with_code_limit(4096)
            .with_memory_limit(2048)
            .with_gas_mode(GasMode::Metered { limit: 100 });
        assert_eq!(config.max_code_size, 4096);
        assert_eq!(config.max_memory_bytes, 2048);
        assert_eq!(config.gas_mode, GasMode::Metered { limit: 100 });
    }
}
