//! Gather plans: the memory-access contract between models and simulators.
//!
//! The paper's Feature Gathering stage (§II-B) reads, for every ray sample,
//! the eight vertex feature vectors of the containing voxel — at every
//! encoding level for hierarchical models. A [`GatherPlan`] records exactly
//! those reads in a model-agnostic form: which *region* of the model's DRAM
//! image, which grid cell, which entry indices. The memory simulators in
//! `cicero-mem` (cache, DRAM, SRAM banks) and the MVoxel/RIT machinery of the
//! fully-streaming renderer all consume these plans.

/// Identifies one contiguous storage region of a model (e.g. one hash level,
/// one tensor plane). Regions are laid out back-to-back in the model's DRAM
/// image in increasing id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u16);

/// The gather work of one ray sample within one encoding level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelGather {
    /// Which storage region the entries live in.
    pub region: RegionId,
    /// Grid resolution of the region along each axis (cells, not vertices).
    ///
    /// For 2-D plane regions the third component is 1.
    pub resolution: [u32; 3],
    /// Cell coordinate of the sample within the region's grid.
    pub cell: [u32; 3],
    /// Flat entry indices to read (vertex IDs within the region).
    pub entries: [u64; 8],
    /// Number of valid entries: 8 for trilinear, 4 for bilinear (tensor
    /// planes), 2 for linear (tensor lines).
    pub entry_count: u8,
    /// Bytes per entry (feature channels × bytes per channel).
    pub entry_bytes: u32,
    /// Whether entries are addressed densely by grid position (streamable by
    /// MVoxel reordering) or through a hash (inherently random — the paper's
    /// Instant-NGP levels ≥ 5 reversion, §IV-A).
    pub dense: bool,
}

impl LevelGather {
    /// Valid entry indices.
    pub fn entries(&self) -> &[u64] {
        &self.entries[..self.entry_count as usize]
    }

    /// Bytes read by this level gather.
    pub fn bytes(&self) -> u64 {
        self.entry_count as u64 * self.entry_bytes as u64
    }
}

/// The complete gather work of one ray sample across all encoding levels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GatherPlan {
    /// Per-level gathers, coarse to fine.
    pub levels: Vec<LevelGather>,
}

impl GatherPlan {
    /// Total bytes read by the sample.
    pub fn bytes(&self) -> u64 {
        self.levels.iter().map(LevelGather::bytes).sum()
    }

    /// Total entry reads (vertex feature fetches).
    pub fn entry_reads(&self) -> u64 {
        self.levels.iter().map(|l| l.entry_count as u64).sum()
    }

    /// Empties the plan, keeping the level buffer's capacity so it can be
    /// refilled without allocating (the renderer reuses one plan per thread
    /// across every sample).
    pub fn clear(&mut self) {
        self.levels.clear();
    }
}

/// Receives the gather plan of every rendered ray sample.
///
/// Implementations replay plans through cache/DRAM/bank simulators or build
/// Ray Index Tables. `ray_id` is a dense per-frame ray index (row-major pixel
/// order); `sample_t` is the ray parameter of the sample.
pub trait GatherSink {
    /// Called once per processed (non-skipped) ray sample.
    fn on_sample(&mut self, ray_id: u32, sample_t: f32, plan: &GatherPlan);

    /// Whether this sink actually observes samples. The renderer records an
    /// observing sink's committed samples and replays them to it ray-major,
    /// building each sample's plan as it goes; for a sink that discards
    /// everything (`false` here) nothing is recorded and no plan is built.
    /// The march itself is the same either way.
    fn observes_samples(&self) -> bool {
        true
    }
}

/// A sink that discards everything (for pure-quality rendering).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl GatherSink for NullSink {
    fn on_sample(&mut self, _ray_id: u32, _sample_t: f32, _plan: &GatherPlan) {}

    fn observes_samples(&self) -> bool {
        false
    }
}

impl<F: FnMut(u32, f32, &GatherPlan)> GatherSink for F {
    fn on_sample(&mut self, ray_id: u32, sample_t: f32, plan: &GatherPlan) {
        self(ray_id, sample_t, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(count: u8, bytes: u32) -> LevelGather {
        LevelGather {
            region: RegionId(0),
            resolution: [8, 8, 8],
            cell: [1, 2, 3],
            entries: [0; 8],
            entry_count: count,
            entry_bytes: bytes,
            dense: true,
        }
    }

    #[test]
    fn byte_accounting() {
        let plan = GatherPlan {
            levels: vec![level(8, 24), level(4, 56)],
        };
        assert_eq!(plan.bytes(), 8 * 24 + 4 * 56);
        assert_eq!(plan.entry_reads(), 12);
    }

    #[test]
    fn entries_slice_respects_count() {
        let mut l = level(4, 8);
        l.entries = [9, 8, 7, 6, 0, 0, 0, 0];
        assert_eq!(l.entries(), &[9, 8, 7, 6]);
    }

    #[test]
    fn closure_sink_collects() {
        let mut seen = Vec::new();
        {
            let mut sink = |ray: u32, t: f32, p: &GatherPlan| seen.push((ray, t, p.bytes()));
            let plan = GatherPlan {
                levels: vec![level(2, 4)],
            };
            sink.on_sample(3, 1.5, &plan);
        }
        assert_eq!(seen, vec![(3, 1.5, 8)]);
    }
}
