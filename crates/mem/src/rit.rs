//! Ray Index Tables (RIT): the per-MVoxel work lists of §IV-A.
//!
//! "We then compute a Ray Index Table (RIT), where each MVoxel has an entry.
//! Each entry records the IDs of all the ray samples whose features reside in
//! that particular MVoxel." During fully-streaming gathering the table is
//! walked in MVoxel order; each RIT record carries the eight vertex ids and
//! interpolation weights of one ray sample (48 bytes in the paper's GU: 8 ×
//! 4-byte vertex index + 8 × 2-byte weight).

/// Identifies one ray sample awaiting processing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRef {
    /// Dense per-frame ray index (row-major pixel order).
    pub ray_id: u32,
    /// Ray parameter of the sample (world units along the unit direction).
    pub t: f32,
}

/// RIT sizing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RitConfig {
    /// Bytes per RIT record (paper §V: 48 B = 8×4 B vertex ids + 8×2 B
    /// weights).
    pub bytes_per_record: u32,
    /// Records per on-chip RIT buffer fill (paper: 128 entries per 6 KB
    /// double buffer).
    pub buffer_records: u32,
}

impl Default for RitConfig {
    fn default() -> Self {
        RitConfig {
            bytes_per_record: 48,
            buffer_records: 128,
        }
    }
}

/// The per-MVoxel entry of a built table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RitEntry {
    /// Samples whose base vertex lies in this MVoxel.
    pub samples: Vec<SampleRef>,
}

/// A Ray Index Table over one region's MVoxel partition.
#[derive(Debug, Clone)]
pub struct RayIndexTable {
    entries: Vec<RitEntry>,
    total_samples: u64,
}

impl RayIndexTable {
    /// Creates an empty table for `mvoxel_count` MVoxels.
    pub fn new(mvoxel_count: usize) -> Self {
        RayIndexTable {
            entries: vec![RitEntry::default(); mvoxel_count],
            total_samples: 0,
        }
    }

    /// Appends a sample to an MVoxel's entry.
    ///
    /// # Panics
    ///
    /// Panics if `mvoxel` is out of range.
    pub fn push(&mut self, mvoxel: usize, sample: SampleRef) {
        self.entries[mvoxel].samples.push(sample);
        self.total_samples += 1;
    }

    /// Number of MVoxels (entries).
    pub fn mvoxel_count(&self) -> usize {
        self.entries.len()
    }

    /// Total recorded samples.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Entry of MVoxel `id`.
    pub fn entry(&self, id: usize) -> &RitEntry {
        &self.entries[id]
    }

    /// Number of MVoxels at least one sample touches.
    pub fn touched_mvoxels(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.samples.is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RayIndexTable {
        let mut t = RayIndexTable::new(4);
        t.push(2, SampleRef { ray_id: 0, t: 1.0 });
        t.push(2, SampleRef { ray_id: 1, t: 1.5 });
        t.push(0, SampleRef { ray_id: 0, t: 2.0 });
        t
    }

    #[test]
    fn push_and_count() {
        let t = table();
        assert_eq!(t.total_samples(), 3);
        assert_eq!(t.entry(2).samples.len(), 2);
        assert_eq!(t.entry(1).samples.len(), 0);
        assert_eq!(t.touched_mvoxels(), 2);
    }

    #[test]
    fn iteration_is_memory_ordered_and_sparse() {
        let t = table();
        let touched: Vec<usize> = (0..4)
            .filter(|&id| !t.entry(id).samples.is_empty())
            .collect();
        assert_eq!(touched, vec![0, 2], "entries sit at their MVoxel's index");
    }

    #[test]
    fn table_bytes_match_paper_record_size() {
        let t = table();
        let cfg = RitConfig::default();
        assert_eq!(cfg.bytes_per_record, 48);
        // The table's DRAM footprint, as `core::traffic` prices it.
        assert_eq!(t.total_samples() * cfg.bytes_per_record as u64, 3 * 48);
    }

    #[test]
    #[should_panic]
    fn out_of_range_mvoxel_panics() {
        let mut t = RayIndexTable::new(2);
        t.push(5, SampleRef { ray_id: 0, t: 0.0 });
    }
}
