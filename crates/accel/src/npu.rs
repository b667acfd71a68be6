//! Systolic-array NPU model (Feature Computation).
//!
//! A 24×24 weight-stationary MAC array (paper §V, mimicking the TPU): each
//! layer is tiled into `ceil(in/24) × ceil(out/24)` weight tiles; a batch of
//! `B` samples flows through each tile in `B + rows + cols` cycles (pipeline
//! fill + drain). Energy is MAC-dominated with SRAM traffic for activations
//! and weights.

use crate::config::{EnergyConfig, NpuConfig};
use crate::workload::FrameWorkload;

/// The NPU model.
#[derive(Debug, Clone, Copy)]
pub struct NpuModel {
    cfg: NpuConfig,
    energy: EnergyConfig,
}

impl NpuModel {
    /// Creates a model.
    pub fn new(cfg: NpuConfig, energy: EnergyConfig) -> Self {
        NpuModel { cfg, energy }
    }

    /// Configuration in use.
    pub fn config(&self) -> &NpuConfig {
        &self.cfg
    }

    /// Cycles to push `samples` through an MLP with the given layer dims.
    pub fn mlp_cycles(&self, samples: u64, dims: &[(usize, usize)]) -> u64 {
        if samples == 0 || dims.is_empty() {
            return 0;
        }
        let rows = self.cfg.array_rows as u64;
        let cols = self.cfg.array_cols as u64;
        let batch = self.cfg.batch as u64;
        let batches = samples.div_ceil(batch);
        let mut cycles = 0u64;
        for &(ind, outd) in dims {
            let tiles = (ind as u64).div_ceil(rows) * (outd as u64).div_ceil(cols);
            let last = samples - (batches - 1) * batch;
            // Full batches plus the remainder batch.
            cycles += tiles * ((batches - 1) * (batch + rows + cols) + (last + rows + cols));
        }
        cycles
    }

    /// Time to run the Feature Computation of a workload, seconds.
    ///
    /// Falls back to a pure MAC-throughput bound when layer dims are absent.
    pub fn mlp_time(&self, w: &FrameWorkload) -> f64 {
        if w.mlp_macs == 0 {
            return 0.0;
        }
        let cycles = if w.mlp_dims.is_empty() {
            let peak = (self.cfg.array_rows * self.cfg.array_cols) as u64;
            w.mlp_macs.div_ceil(peak)
        } else {
            self.mlp_cycles(w.samples_processed, &w.mlp_dims)
        };
        cycles as f64 / self.cfg.clock_hz
    }

    /// Dynamic energy of the Feature Computation, joules: MACs plus
    /// activation traffic through the global buffer and weight re-reads.
    pub fn mlp_energy(&self, w: &FrameWorkload) -> f64 {
        let mac_j = w.mlp_macs as f64 * self.energy.mac_pj * 1e-12;
        // Per sample: feature vector in + outputs back (≈ 4 B per value).
        let io_values: u64 = w
            .mlp_dims
            .iter()
            .map(|&(i, o)| (i + o) as u64)
            .sum::<u64>()
            .max(64);
        let sram_j = w.samples_processed as f64
            * io_values as f64
            * 2.0 // bytes per value (fp16 activations)
            * self.energy.sram_pj_per_byte
            * 1e-12;
        (mac_j + sram_j) * (1.0 + self.energy.accelerator_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NpuModel {
        NpuModel::new(NpuConfig::default(), EnergyConfig::default())
    }

    #[test]
    fn cycles_scale_with_samples() {
        let m = model();
        let dims = [(15usize, 64usize), (64, 64), (64, 7)];
        let small = m.mlp_cycles(1_000, &dims);
        let big = m.mlp_cycles(10_000, &dims);
        assert!(big > small * 8, "{big} vs {small}");
    }

    #[test]
    fn utilization_is_reasonable() {
        // A 64×64 layer tiles 3×3 on a 24×24 array; utilization should be
        // within 2× of the ideal MAC bound for large batches.
        let m = model();
        let samples = 100_000u64;
        let dims = [(64usize, 64usize)];
        let cycles = m.mlp_cycles(samples, &dims);
        let ideal = samples * (64 * 64) as u64 / 576;
        assert!(cycles >= ideal);
        assert!(cycles < ideal * 2, "cycles {cycles} vs ideal {ideal}");
    }

    #[test]
    fn time_uses_clock() {
        let m = model();
        let w = FrameWorkload {
            samples_processed: 1000,
            mlp_macs: 1000 * 4096,
            mlp_dims: vec![(64, 64)],
            ..Default::default()
        };
        let t = m.mlp_time(&w);
        assert!(t > 0.0 && t < 1.0);
    }

    #[test]
    fn energy_dominated_by_macs_for_big_layers() {
        let m = model();
        let w = FrameWorkload {
            samples_processed: 1000,
            mlp_macs: 1000 * 100_000,
            mlp_dims: vec![(64, 64)],
            ..Default::default()
        };
        let e = m.mlp_energy(&w);
        let mac_only = w.mlp_macs as f64 * 0.6e-12;
        assert!(e > mac_only);
        assert!(e < mac_only * 2.0);
    }

    #[test]
    fn empty_workload_is_free() {
        let m = model();
        assert_eq!(m.mlp_time(&FrameWorkload::default()), 0.0);
        assert_eq!(m.mlp_cycles(0, &[(64, 64)]), 0);
    }
}
