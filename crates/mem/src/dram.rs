//! DRAM access accounting: streaming vs random bursts, time and energy.
//!
//! Modeled after the paper's setup (§V): Micron LPDDR3-1600, 4 channels,
//! with "the energy ratio between a random DRAM access and a streaming DRAM
//! access about 3:1, and the energy ratio between a random DRAM access and an
//! SRAM access about 25:1". The simulator classifies each burst by address
//! adjacency: a burst that starts exactly where the previous one ended
//! continues a stream; anything else is a random (row-miss-class) access.

/// DRAM model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Burst granularity in bytes; smaller requests still move a full burst.
    pub burst_bytes: u32,
    /// Peak sequential bandwidth in bytes/second (LPDDR3-1600 ×4 ≈ 25.6 GB/s).
    pub peak_bandwidth: f64,
    /// Fraction of peak bandwidth achieved by random bursts (row activation
    /// and bus turnaround overheads).
    pub random_efficiency: f64,
    /// Energy per byte of a streaming access, in picojoules.
    pub stream_energy_pj_per_byte: f64,
    /// Energy per byte of a random access, in picojoules (3× streaming).
    pub random_energy_pj_per_byte: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            burst_bytes: 32,
            peak_bandwidth: 25.6e9,
            random_efficiency: 0.25,
            stream_energy_pj_per_byte: 66.7,
            random_energy_pj_per_byte: 200.0,
        }
    }
}

/// Accumulated DRAM statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramStats {
    /// Bytes moved by streaming bursts.
    pub streaming_bytes: u64,
    /// Bytes moved by random bursts.
    pub random_bytes: u64,
    /// Number of streaming bursts.
    pub streaming_bursts: u64,
    /// Number of random bursts.
    pub random_bursts: u64,
    /// Bytes the requester actually asked for (≤ moved bytes).
    pub useful_bytes: u64,
}

impl DramStats {
    /// Total bytes moved on the bus.
    pub fn total_bytes(&self) -> u64 {
        self.streaming_bytes + self.random_bytes
    }

    /// Fraction of bursts classified as non-streaming (paper Fig. 4).
    pub fn non_streaming_fraction(&self) -> f64 {
        let total = self.streaming_bursts + self.random_bursts;
        if total == 0 {
            0.0
        } else {
            self.random_bursts as f64 / total as f64
        }
    }

    /// Merges another stats block.
    pub fn accumulate(&mut self, o: &DramStats) {
        self.streaming_bytes += o.streaming_bytes;
        self.random_bytes += o.random_bytes;
        self.streaming_bursts += o.streaming_bursts;
        self.random_bursts += o.random_bursts;
        self.useful_bytes += o.useful_bytes;
    }
}

/// A DRAM access simulator.
#[derive(Debug, Clone)]
pub struct DramSim {
    cfg: DramConfig,
    stats: DramStats,
    next_streaming_addr: Option<u64>,
}

impl DramSim {
    /// Creates a simulator.
    pub fn new(cfg: DramConfig) -> Self {
        DramSim {
            cfg,
            stats: DramStats::default(),
            next_streaming_addr: None,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Issues a read of `bytes` at `addr`, classifying by adjacency.
    pub fn read(&mut self, addr: u64, bytes: u32) {
        let burst = self.cfg.burst_bytes as u64;
        let start = addr / burst * burst;
        let end = (addr + bytes as u64).div_ceil(burst) * burst;
        let n_bursts = (end - start) / burst;
        let moved = end - start;
        // A request either continues the previous address stream (all bursts
        // ride the open row) or it pays the random cost for the whole
        // transaction — the paper's per-access notion of "non-continuous".
        let streaming = self.next_streaming_addr == Some(start);
        if streaming {
            self.stats.streaming_bytes += moved;
            self.stats.streaming_bursts += n_bursts;
        } else {
            self.stats.random_bytes += moved;
            self.stats.random_bursts += n_bursts;
        }
        self.stats.useful_bytes += bytes as u64;
        self.next_streaming_addr = Some(end);
    }

    /// Issues a purely sequential read of `bytes` (e.g. one MVoxel chunk),
    /// counting every burst as streaming regardless of the previous address.
    pub fn read_streaming(&mut self, bytes: u64) {
        let burst = self.cfg.burst_bytes as u64;
        let moved = bytes.div_ceil(burst) * burst;
        self.stats.streaming_bytes += moved;
        self.stats.streaming_bursts += moved / burst;
        self.stats.useful_bytes += bytes;
        self.next_streaming_addr = None;
    }

    /// Issues an isolated random read of `bytes` (e.g. a hashed-level entry).
    pub fn read_random(&mut self, bytes: u64) {
        let burst = self.cfg.burst_bytes as u64;
        let moved = bytes.div_ceil(burst) * burst;
        self.stats.random_bytes += moved;
        self.stats.random_bursts += moved / burst;
        self.stats.useful_bytes += bytes;
        self.next_streaming_addr = None;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Transfer time in seconds under the bandwidth model.
    pub fn time_seconds(&self) -> f64 {
        self.stats.streaming_bytes as f64 / self.cfg.peak_bandwidth
            + self.stats.random_bytes as f64
                / (self.cfg.peak_bandwidth * self.cfg.random_efficiency)
    }

    /// Access energy in joules.
    pub fn energy_joules(&self) -> f64 {
        (self.stats.streaming_bytes as f64 * self.cfg.stream_energy_pj_per_byte
            + self.stats.random_bytes as f64 * self.cfg.random_energy_pj_per_byte)
            * 1e-12
    }

    /// Resets counters (keeps configuration).
    pub fn reset(&mut self) {
        self.stats = DramStats::default();
        self.next_streaming_addr = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> DramSim {
        DramSim::new(DramConfig::default())
    }

    #[test]
    fn sequential_reads_stream_after_first() {
        let mut d = sim();
        d.read(0, 32);
        d.read(32, 32);
        d.read(64, 32);
        assert_eq!(d.stats().random_bursts, 1);
        assert_eq!(d.stats().streaming_bursts, 2);
        assert!(d.stats().non_streaming_fraction() < 0.34);
    }

    #[test]
    fn scattered_reads_are_random() {
        let mut d = sim();
        for i in 0..10 {
            d.read(i * 4096, 16);
        }
        assert_eq!(d.stats().random_bursts, 10);
        assert_eq!(d.stats().streaming_bursts, 0);
        assert_eq!(d.stats().non_streaming_fraction(), 1.0);
    }

    #[test]
    fn small_reads_move_full_bursts() {
        let mut d = sim();
        d.read(100, 4); // within one 32 B burst
        assert_eq!(d.stats().total_bytes(), 32);
        assert_eq!(d.stats().useful_bytes, 4);
    }

    #[test]
    fn unaligned_read_spanning_bursts() {
        let mut d = sim();
        d.read(30, 8); // spans bursts [0,32) and [32,64)
        assert_eq!(d.stats().total_bytes(), 64);
    }

    #[test]
    fn energy_ratio_is_three_to_one() {
        let cfg = DramConfig::default();
        let ratio = cfg.random_energy_pj_per_byte / cfg.stream_energy_pj_per_byte;
        assert!((ratio - 3.0).abs() < 0.01, "paper's 3:1 ratio, got {ratio}");
    }

    #[test]
    fn streaming_is_faster_than_random_for_same_bytes() {
        let mut a = sim();
        a.read_streaming(1 << 20);
        let mut b = sim();
        for i in 0..(1 << 20) / 32 {
            b.read(i * 64 * 37 % (1 << 30), 32);
        }
        assert!(a.time_seconds() < b.time_seconds());
        assert!(a.energy_joules() < b.energy_joules());
    }

    /// `SocModel` replays a workload's random bytes in one call; it used to
    /// issue them a burst at a time. Every chunk but the last is a whole
    /// burst, so the two must agree to the bit, paper-scale totals included.
    #[test]
    fn one_random_read_equals_its_burst_sized_chunks() {
        let burst = DramConfig::default().burst_bytes as u64;
        for bytes in [0, 1, 31, 32, 33, 1_000, 2_600_000_000, 2_600_000_007] {
            let mut chunked = sim();
            let mut left = bytes;
            while left > 0 {
                let chunk = left.min(burst);
                chunked.read_random(chunk);
                left -= chunk;
            }
            let mut single = sim();
            single.read_random(bytes);
            assert_eq!(single.stats(), chunked.stats(), "{bytes} bytes");
            assert_eq!(
                single.time_seconds().to_bits(),
                chunked.time_seconds().to_bits()
            );
            assert_eq!(
                single.energy_joules().to_bits(),
                chunked.energy_joules().to_bits()
            );
        }
    }

    #[test]
    fn whole_transaction_shares_one_classification() {
        let mut d = sim();
        d.read(1 << 20, 128); // discontinuous 4-burst transaction: all random
        assert_eq!(d.stats().random_bursts, 4);
        assert_eq!(d.stats().streaming_bursts, 0);
        d.read((1 << 20) + 128, 128); // continues the stream: all streaming
        assert_eq!(d.stats().streaming_bursts, 4);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = sim();
        d.read(0, 64);
        d.reset();
        assert_eq!(d.stats().total_bytes(), 0);
        // After reset the next read is random again (no stream context).
        d.read(64, 32);
        assert_eq!(d.stats().random_bursts, 1);
    }
}
