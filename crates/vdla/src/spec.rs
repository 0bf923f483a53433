//! VDLA hardware parameters (§6.4 "Methodology").
//!
//! The paper's prototype: a 16×16 matrix-vector unit at 200 MHz doing
//! 8-bit multiplies accumulated into 32-bit registers (102.4 GOPS peak),
//! with 32 kB activation storage, 32 kB parameter storage, 32 kB microcode
//! buffer and a 128 kB register file, on a PYNQ board.

/// VDLA architectural parameters.
#[derive(Clone, Debug)]
pub struct VdlaSpec {
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// GEMM core rows (output lanes).
    pub gemm_rows: usize,
    /// GEMM core columns (reduction lanes).
    pub gemm_cols: usize,
    /// Activation (input) SRAM bytes.
    pub inp_bytes: usize,
    /// Parameter (weight) SRAM bytes.
    pub wgt_bytes: usize,
    /// Accumulator register file bytes.
    pub acc_bytes: usize,
    /// DRAM bandwidth in bytes per cycle available to the DMA engines.
    pub dram_bw_bytes_per_cycle: f64,
    /// Fixed DMA setup latency in cycles.
    pub dma_latency: f64,
    /// Vector-ALU lanes (for bias/activation ops run on the accelerator).
    pub alu_lanes: usize,
}

impl Default for VdlaSpec {
    fn default() -> Self {
        VdlaSpec {
            clock_ghz: 0.2,
            gemm_rows: 16,
            gemm_cols: 16,
            inp_bytes: 32 * 1024,
            wgt_bytes: 32 * 1024,
            acc_bytes: 128 * 1024,
            // PYNQ DDR3 through the FPGA HP DMA port: ~1.6 GB/s effective
            // = 8 B/cy at 200 MHz.
            dram_bw_bytes_per_cycle: 8.0,
            dma_latency: 64.0,
            alu_lanes: 16,
        }
    }
}

impl VdlaSpec {
    /// Peak throughput in GOPS (two ops per MAC).
    pub fn peak_gops(&self) -> f64 {
        2.0 * self.gemm_rows as f64 * self.gemm_cols as f64 * self.clock_ghz
    }

    /// MACs retired per cycle.
    pub fn macs_per_cycle(&self) -> f64 {
        (self.gemm_rows * self.gemm_cols) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_paper() {
        let s = VdlaSpec::default();
        // "theoretical peak throughput of this VDLA design is about
        // 102.4 GOPS/s".
        assert!((s.peak_gops() - 102.4).abs() < 1e-9);
    }
}
