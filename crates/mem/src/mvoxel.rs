//! MVoxel partitioning: the unit of fully-streaming DRAM transfer.
//!
//! §IV-A: "we first group all the voxel features into macro voxels (MVoxels).
//! All the data in a MVoxel is loaded to the SRAM together … we guarantee
//! that the data size of one MVoxel is smaller than the on-chip buffer size.
//! We store vertex features within one MVoxel continuously in the DRAM, and
//! store MVoxels continuously in the DRAM."
//!
//! A partition divides a region's *vertex* grid into axis-aligned blocks. Ray
//! samples are assigned to the MVoxel containing their base vertex; corner
//! vertices that fall outside that block (boundary cells) are *halo* reads,
//! which the streaming simulator charges as extra streaming traffic — the
//! storage layout itself is unchanged ("incurs no storage overhead").

/// MVoxel block dimensions in vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MVoxelConfig {
    /// Block size along x, y, z (vertices).
    pub dims: [u32; 3],
}

impl Default for MVoxelConfig {
    fn default() -> Self {
        // Paper §V: the 32 KB VFT "can store a MVoxel (8×8×8 points) with 32
        // channels".
        MVoxelConfig { dims: [8, 8, 8] }
    }
}

impl MVoxelConfig {
    /// Chooses the largest power-of-two block that fits `vft_bytes` of SRAM
    /// given the region's entry size, respecting 2-D regions (`nz == 1`).
    ///
    /// # Panics
    ///
    /// Panics if even a 1-vertex block exceeds the buffer.
    pub fn fit(entry_bytes: u32, vft_bytes: u64, region_resolution: [u32; 3]) -> Self {
        assert!(entry_bytes as u64 <= vft_bytes, "one entry exceeds the VFT");
        let is_2d = region_resolution[2] <= 1;
        let is_1d = is_2d && region_resolution[1] <= 1;
        let mut dims = [1u32; 3];
        loop {
            let axes: &[usize] = if is_1d {
                &[0]
            } else if is_2d {
                &[0, 1]
            } else {
                &[0, 1, 2]
            };
            let mut grew = false;
            for &a in axes {
                let mut next = dims;
                next[a] *= 2;
                let bytes = next[0] as u64 * next[1] as u64 * next[2] as u64 * entry_bytes as u64;
                let exceeds_region = next[a] > region_resolution[a].next_power_of_two();
                if bytes <= vft_bytes && !exceeds_region {
                    dims = next;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        MVoxelConfig { dims }
    }
}

/// A partition of one region's vertex grid into MVoxels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MVoxelPartition {
    /// Vertex resolution of the region.
    resolution: [u32; 3],
    dims: [u32; 3],
    counts: [u32; 3],
    entry_bytes: u32,
}

impl MVoxelPartition {
    /// Partitions a region of `resolution` vertices per axis.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(resolution: [u32; 3], cfg: MVoxelConfig, entry_bytes: u32) -> Self {
        assert!(resolution.iter().all(|&r| r > 0), "empty region");
        assert!(cfg.dims.iter().all(|&d| d > 0), "empty MVoxel dims");
        let counts = [
            resolution[0].div_ceil(cfg.dims[0]),
            resolution[1].div_ceil(cfg.dims[1]),
            resolution[2].div_ceil(cfg.dims[2]),
        ];
        MVoxelPartition {
            resolution,
            dims: cfg.dims,
            counts,
            entry_bytes,
        }
    }

    /// Total number of MVoxels.
    pub fn mvoxel_count(&self) -> usize {
        (self.counts[0] * self.counts[1] * self.counts[2]) as usize
    }

    /// MVoxel id containing vertex `(x, y, z)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the vertex is out of range.
    #[inline]
    pub fn mvoxel_of_vertex(&self, v: [u32; 3]) -> usize {
        debug_assert!(
            v[0] < self.resolution[0] && v[1] < self.resolution[1] && v[2] < self.resolution[2],
            "vertex {v:?} outside region {:?}",
            self.resolution
        );
        let m = [
            v[0] / self.dims[0],
            v[1] / self.dims[1],
            v[2] / self.dims[2],
        ];
        ((m[2] * self.counts[1] + m[1]) * self.counts[0] + m[0]) as usize
    }

    /// MVoxel id a cell's sample is assigned to (its base vertex's block).
    #[inline]
    pub fn mvoxel_of_cell(&self, cell: [u32; 3]) -> usize {
        self.mvoxel_of_vertex(cell)
    }

    /// Whether vertex `v` lies inside MVoxel `id`'s core block.
    pub fn contains_vertex(&self, id: usize, v: [u32; 3]) -> bool {
        self.mvoxel_of_vertex(v) == id
    }

    /// Number of vertices actually covered by MVoxel `id` (edge blocks clamp
    /// to the region boundary).
    pub fn vertex_count(&self, id: usize) -> u64 {
        let id = id as u32;
        let mx = id % self.counts[0];
        let my = (id / self.counts[0]) % self.counts[1];
        let mz = id / (self.counts[0] * self.counts[1]);
        let span = |m: u32, dim: u32, res: u32| -> u64 {
            let start = m * dim;
            (res.saturating_sub(start)).min(dim) as u64
        };
        span(mx, self.dims[0], self.resolution[0])
            * span(my, self.dims[1], self.resolution[1])
            * span(mz, self.dims[2], self.resolution[2])
    }

    /// DRAM bytes of MVoxel `id`.
    pub fn mvoxel_bytes(&self, id: usize) -> u64 {
        self.vertex_count(id) * self.entry_bytes as u64
    }

    /// Bytes per feature entry.
    pub fn entry_bytes(&self) -> u32 {
        self.entry_bytes
    }

    /// MVoxel block dimensions (vertices).
    pub fn dims(&self) -> [u32; 3] {
        self.dims
    }

    /// The MVoxel a sample in `cell` is assigned to, and how many of the
    /// sample's `entries` (region-flat vertex indices) are halo reads:
    /// vertices outside that MVoxel's core block.
    ///
    /// What [`Self::mvoxel_of_cell`] and a [`Self::contains_vertex`] test of
    /// every entry's [`Self::vertex_coord`] say, without their six divisions
    /// per entry. The block's vertex range is worked out once, and an entry
    /// that is a corner of the cell — offset 0 or 1 along each axis, which
    /// is every entry of a dense gather — is located by comparing its
    /// distance from the cell's own index with the axis strides; any other
    /// entry goes through `vertex_coord`.
    pub fn sample_reads(&self, cell: [u32; 3], entries: &[u64]) -> (usize, u64) {
        let block = [0, 1, 2].map(|a| cell[a] / self.dims[a]);
        let id = ((block[2] * self.counts[1] + block[1]) * self.counts[0] + block[0]) as usize;
        let lo = [0, 1, 2].map(|a| block[a] * self.dims[a]);
        let (nx, ny) = (self.resolution[0] as u64, self.resolution[1] as u64);
        let base = (cell[2] as u64 * ny + cell[1] as u64) * nx + cell[0] as u64;
        let mut halo = 0;
        for &e in entries {
            // `e - base = ox + oy·nx + oz·nx·ny`; an entry before the cell
            // wraps to a distance no offset explains.
            let mut rest = e.wrapping_sub(base);
            let oz = (rest >= nx * ny) as u64;
            rest -= oz * nx * ny;
            let oy = (rest >= nx) as u64;
            rest -= oy * nx;
            // The offsets name the entry's vertex only if they stay inside
            // the row and the slice (the flat index wraps otherwise).
            let coord = if rest <= 1 && cell[0] as u64 + rest < nx && cell[1] as u64 + oy < ny {
                [
                    cell[0] + rest as u32,
                    cell[1] + oy as u32,
                    cell[2] + oz as u32,
                ]
            } else {
                self.vertex_coord(e)
            };
            debug_assert_eq!(coord, self.vertex_coord(e));
            let inside = (0..3).all(|a| coord[a] >= lo[a] && coord[a] - lo[a] < self.dims[a]);
            halo += !inside as u64;
        }
        (id, halo)
    }

    /// Converts a region-flat vertex index (x-major: `(z·ny + y)·nx + x`)
    /// to its coordinate.
    pub fn vertex_coord(&self, flat: u64) -> [u32; 3] {
        let nx = self.resolution[0] as u64;
        let ny = self.resolution[1] as u64;
        [
            (flat % nx) as u32,
            ((flat / nx) % ny) as u32,
            (flat / (nx * ny)) as u32,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> MVoxelPartition {
        MVoxelPartition::new([17, 17, 17], MVoxelConfig { dims: [8, 8, 8] }, 24)
    }

    #[test]
    fn counts_cover_region() {
        let p = part();
        assert_eq!(p.mvoxel_count(), 27); // ceil(17/8)=3 per axis
        let total: u64 = (0..p.mvoxel_count()).map(|i| p.vertex_count(i)).sum();
        assert_eq!(total, 17 * 17 * 17);
    }

    #[test]
    fn vertex_to_mvoxel_mapping() {
        let p = part();
        assert_eq!(p.mvoxel_of_vertex([0, 0, 0]), 0);
        assert_eq!(p.mvoxel_of_vertex([7, 7, 7]), 0);
        assert_eq!(p.mvoxel_of_vertex([8, 0, 0]), 1);
        assert_eq!(p.mvoxel_of_vertex([16, 16, 16]), 26);
    }

    #[test]
    fn edge_blocks_clamp() {
        let p = part();
        // Block (2,2,2) covers vertices 16..17 per axis → 1³ vertices.
        assert_eq!(p.vertex_count(26), 1);
        assert_eq!(p.mvoxel_bytes(26), 24);
        // Interior block is full.
        assert_eq!(p.vertex_count(0), 512);
        assert_eq!(p.mvoxel_bytes(0), 512 * 24);
    }

    #[test]
    fn flat_vertex_roundtrip() {
        let p = part();
        let flat = (3u64 * 17 + 5) * 17 + 7; // (x=7, y=5, z=3)
        assert_eq!(p.vertex_coord(flat), [7, 5, 3]);
    }

    #[test]
    fn fit_respects_vft_capacity() {
        // Paper: 32 KB VFT, 32 ch × 2 B entries → 8×8×8 block exactly.
        let cfg = MVoxelConfig::fit(64, 32 * 1024, [161, 161, 161]);
        assert_eq!(cfg.dims, [8, 8, 8]);
        let bytes: u64 = cfg.dims.iter().map(|&d| d as u64).product::<u64>() * 64;
        assert!(bytes <= 32 * 1024);
    }

    #[test]
    fn fit_handles_2d_planes() {
        let cfg = MVoxelConfig::fit(56, 32 * 1024, [128, 128, 1]);
        assert_eq!(cfg.dims[2], 1);
        let bytes: u64 = cfg.dims.iter().map(|&d| d as u64).product::<u64>() * 56;
        assert!(bytes <= 32 * 1024);
        assert!(cfg.dims[0] >= 16, "should grow in-plane: {:?}", cfg.dims);
    }

    #[test]
    fn fit_handles_1d_lines() {
        let cfg = MVoxelConfig::fit(56, 4 * 1024, [128, 1, 1]);
        assert_eq!(cfg.dims[1], 1);
        assert_eq!(cfg.dims[2], 1);
        assert!(cfg.dims[0] >= 32);
    }

    #[test]
    fn sample_reads_match_the_per_entry_queries() {
        // 3-D, plane and line regions with blocks that do not divide them,
        // every cell, its corners and a few entries that are not corners.
        let parts = [
            MVoxelPartition::new([11, 7, 5], MVoxelConfig { dims: [4, 3, 2] }, 24),
            MVoxelPartition::new([9, 6, 1], MVoxelConfig { dims: [4, 4, 1] }, 56),
            MVoxelPartition::new([13, 1, 1], MVoxelConfig { dims: [8, 1, 1] }, 56),
        ];
        for p in &parts {
            let [nx, ny, nz] = p.resolution;
            let flat = |v: [u32; 3]| ((v[2] * ny + v[1]) * nx + v[0]) as u64;
            let total = u64::from(nx * ny * nz);
            for cz in 0..nz.max(2) - 1 {
                for cy in 0..ny.max(2) - 1 {
                    for cx in 0..nx - 1 {
                        let cell = [cx, cy, cz];
                        let mut entries: Vec<u64> = (0..8u32)
                            .map(|b| [cx + (b & 1), cy + (b >> 1 & 1), cz + (b >> 2)])
                            .filter(|v| v[1] < ny && v[2] < nz)
                            .map(flat)
                            .collect();
                        // Not corners: the region's first and last vertex,
                        // one two columns on, one two rows back.
                        entries.extend([0, total - 1, (flat(cell) + 2).min(total - 1)]);
                        entries.push(flat(cell).saturating_sub(2 * nx as u64));
                        let id = p.mvoxel_of_cell(cell);
                        let halo = entries
                            .iter()
                            .filter(|&&e| !p.contains_vertex(id, p.vertex_coord(e)))
                            .count() as u64;
                        assert_eq!(p.sample_reads(cell, &entries), (id, halo), "cell {cell:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn cell_assignment_matches_base_vertex() {
        let p = part();
        assert_eq!(p.mvoxel_of_cell([7, 7, 7]), p.mvoxel_of_vertex([7, 7, 7]));
        // The +1 corners of cell (7,7,7) live in neighboring MVoxels (halo).
        assert_ne!(p.mvoxel_of_vertex([8, 7, 7]), p.mvoxel_of_cell([7, 7, 7]));
    }
}
