//! Flat DRAM address layout of a model's storage regions.

/// Maps `(region, entry)` pairs to byte addresses in a flat DRAM image.
///
/// Regions (hash levels, tensor planes/lines, the single grid region) are laid
/// back-to-back in ascending region-id order, each aligned to `alignment`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMap {
    bases: Vec<u64>,
    sizes: Vec<u64>,
}

impl AddressMap {
    /// Builds a map from `(region_index, size_bytes)` pairs.
    ///
    /// Region ids must be dense `0..n` in order; `alignment` must be a power
    /// of two (64 is typical burst alignment).
    ///
    /// # Panics
    ///
    /// Panics if `alignment` is not a power of two or region ids are not
    /// consecutive from zero.
    pub fn new(regions: &[(u16, u64)], alignment: u64) -> Self {
        assert!(
            alignment.is_power_of_two(),
            "alignment must be a power of two"
        );
        let mut bases = Vec::with_capacity(regions.len());
        let mut sizes = Vec::with_capacity(regions.len());
        let mut cursor = 0u64;
        for (i, &(id, size)) in regions.iter().enumerate() {
            assert_eq!(id as usize, i, "region ids must be consecutive from zero");
            cursor = cursor.next_multiple_of(alignment);
            bases.push(cursor);
            sizes.push(size);
            cursor += size;
        }
        AddressMap { bases, sizes }
    }

    /// Byte address of `entry` (with `entry_bytes` stride) in `region`.
    ///
    /// # Panics
    ///
    /// Panics if the region is unknown or the entry exceeds the region size.
    #[inline]
    pub fn address(&self, region: u16, entry: u64, entry_bytes: u32) -> u64 {
        let r = region as usize;
        assert!(r < self.bases.len(), "unknown region {region}");
        let offset = entry * entry_bytes as u64;
        debug_assert!(
            offset + entry_bytes as u64 <= self.sizes[r],
            "entry {entry} ({entry_bytes} B) outside region {region} ({} B)",
            self.sizes[r]
        );
        self.bases[r] + offset
    }

    /// Base address of a region.
    #[inline]
    pub fn region_base(&self, region: u16) -> u64 {
        self.bases[region as usize]
    }

    /// Size of a region in bytes.
    pub fn region_size(&self, region: u16) -> u64 {
        self.sizes[region as usize]
    }

    /// Total image size in bytes (end of the last region).
    pub fn total_bytes(&self) -> u64 {
        match self.bases.last() {
            Some(b) => b + self.sizes.last().unwrap(),
            None => 0,
        }
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.bases.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_aligned() {
        let m = AddressMap::new(&[(0, 100), (1, 50), (2, 7)], 64);
        assert_eq!(m.region_base(0), 0);
        assert_eq!(m.region_base(1), 128); // 100 → aligned to 128
        assert_eq!(m.region_base(2), 192);
        assert_eq!(m.total_bytes(), 199);
        assert_eq!(m.region_count(), 3);
    }

    #[test]
    fn entry_addressing() {
        let m = AddressMap::new(&[(0, 1024), (1, 1024)], 64);
        assert_eq!(m.address(0, 3, 16), 48);
        assert_eq!(m.address(1, 0, 16), 1024);
    }

    #[test]
    #[should_panic]
    fn non_consecutive_regions_rejected() {
        let _ = AddressMap::new(&[(0, 10), (2, 10)], 64);
    }

    #[test]
    fn empty_map_is_zero_sized() {
        let m = AddressMap::new(&[], 64);
        assert_eq!(m.total_bytes(), 0);
    }
}
