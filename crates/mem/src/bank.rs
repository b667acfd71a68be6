//! SRAM bank-conflict simulation: feature-major vs channel-major layouts.
//!
//! The paper's Fig. 13 contrasts two on-chip layouts for vertex features:
//!
//! - **feature-major** (prior accelerators): all channels of one feature
//!   vector share a bank, `bank = entry_index mod B`. Concurrent PEs serving
//!   different ray samples collide whenever two samples' vertices land in the
//!   same bank — a run-time, camera-dependent pattern that cannot be laid out
//!   away (§IV-B).
//! - **channel-major** (Cicero): channel `c` of every vector lives in bank
//!   `c mod B`; each PE owns one bank and gathers one channel of all samples.
//!   Conflicts are structurally impossible.
//!
//! [`BankSim`] replays per-cycle request groups and counts stalls.

/// On-chip feature layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureLayout {
    /// All channels of a feature vector in one bank (`bank = entry % B`).
    FeatureMajor,
    /// Channels spread across banks (`bank = channel % B`) with one PE per
    /// bank — the conflict-free layout of Fig. 13b.
    ChannelMajor,
}

/// Bank configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankSimConfig {
    /// Number of SRAM banks (paper Fig. 6: 16; GU VFT: 32).
    pub banks: usize,
    /// Read ports per bank (GU VFT: M = 2).
    pub ports_per_bank: usize,
    /// Concurrent lanes (PEs / parallel ray queries) issuing per cycle.
    pub lanes: usize,
}

impl Default for BankSimConfig {
    fn default() -> Self {
        BankSimConfig {
            banks: 16,
            ports_per_bank: 1,
            lanes: 16,
        }
    }
}

/// Conflict statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankStats {
    /// Total requests issued.
    pub requests: u64,
    /// Requests that had to wait for a later service cycle.
    pub stalled_requests: u64,
    /// Service cycles consumed.
    pub cycles: u64,
    /// Minimum cycles had there been no conflicts (one per issue round).
    pub ideal_cycles: u64,
}

impl BankStats {
    /// Fraction of requests that stalled (the paper's bank-conflict rate).
    pub fn conflict_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.stalled_requests as f64 / self.requests as f64
        }
    }

    /// Slowdown over the conflict-free schedule.
    pub fn slowdown(&self) -> f64 {
        if self.ideal_cycles == 0 {
            1.0
        } else {
            self.cycles as f64 / self.ideal_cycles as f64
        }
    }

    /// Merges another stats block.
    pub fn accumulate(&mut self, o: &BankStats) {
        self.requests += o.requests;
        self.stalled_requests += o.stalled_requests;
        self.cycles += o.cycles;
        self.ideal_cycles += o.ideal_cycles;
    }
}

/// A bank-conflict simulator.
#[derive(Debug, Clone)]
pub struct BankSim {
    cfg: BankSimConfig,
    stats: BankStats,
    loads: Vec<u32>,
}

impl BankSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if any config field is zero.
    pub fn new(cfg: BankSimConfig) -> Self {
        assert!(cfg.banks > 0 && cfg.ports_per_bank > 0 && cfg.lanes > 0);
        BankSim {
            cfg,
            stats: BankStats::default(),
            loads: vec![0; cfg.banks],
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &BankSimConfig {
        &self.cfg
    }

    /// Issues one round of concurrent requests, one per lane, where
    /// `banks_hit[i]` is the bank lane `i` addresses.
    ///
    /// A round in feature-major gathering = each of the `lanes` ray samples
    /// reading one of its eight vertex feature vectors.
    pub fn issue_round(&mut self, banks_hit: &[usize]) {
        debug_assert!(
            banks_hit.len() <= self.cfg.lanes,
            "more requests than lanes"
        );
        self.loads.fill(0);
        let banks = self.cfg.banks;
        let mut heaviest = 0u32;
        for &b in banks_hit {
            // Callers that replay whole frames reduce the bank themselves;
            // only a request that was not pays the division here.
            let load = &mut self.loads[if b < banks { b } else { b % banks }];
            *load += 1;
            heaviest = heaviest.max(*load);
        }
        let ports = self.cfg.ports_per_bank as u32;
        let stalled: u64 = self
            .loads
            .iter()
            .map(|&l| l.saturating_sub(ports) as u64)
            .sum();
        self.stats.requests += banks_hit.len() as u64;
        self.stats.stalled_requests += stalled;
        // The most loaded bank sets the round's length.
        self.stats.cycles += heaviest.div_ceil(ports).max(1) as u64;
        self.stats.ideal_cycles += 1;
    }

    /// Replays the gather of a group of concurrent ray samples under the
    /// given layout.
    ///
    /// `sample_vertex_entries[s]` lists the feature-vector entry indices read
    /// by concurrent sample `s` (eight for trilinear gathers). Samples are
    /// processed `lanes` at a time; vertices are issued round-by-round
    /// (vertex 0 of all lanes, then vertex 1, ... — the paper's Fig. 13
    /// execution order).
    ///
    /// Under [`FeatureLayout::ChannelMajor`] each concurrent read of one
    /// vertex broadcasts channels across all banks (one PE per bank), so each
    /// round issues exactly one request per bank per sample slot served by
    /// its ports — conflict-free by construction.
    pub fn replay_gather(&mut self, sample_vertex_entries: &[Vec<u64>], layout: FeatureLayout) {
        match layout {
            FeatureLayout::FeatureMajor => {
                for group in sample_vertex_entries.chunks(self.cfg.lanes) {
                    let max_verts = group.iter().map(|v| v.len()).max().unwrap_or(0);
                    for round in 0..max_verts {
                        let hits: Vec<usize> = group
                            .iter()
                            .filter_map(|verts| verts.get(round))
                            .map(|&e| (e % self.cfg.banks as u64) as usize)
                            .collect();
                        if !hits.is_empty() {
                            self.issue_round(&hits);
                        }
                    }
                }
            }
            FeatureLayout::ChannelMajor => {
                // M = ports samples served per cycle; every vertex read takes
                // exactly one cycle across all banks (channel c → bank c).
                let m = self.cfg.ports_per_bank;
                for group in sample_vertex_entries.chunks(m) {
                    let max_verts = group.iter().map(|v| v.len()).max().unwrap_or(0);
                    for _round in 0..max_verts {
                        let served = group.len() as u64;
                        self.stats.requests += served;
                        self.stats.cycles += 1;
                        self.stats.ideal_cycles += 1;
                    }
                }
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    /// Resets counters.
    pub fn reset(&mut self) {
        self.stats = BankStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_banks_do_not_stall() {
        let mut s = BankSim::new(BankSimConfig {
            banks: 4,
            ports_per_bank: 1,
            lanes: 4,
        });
        s.issue_round(&[0, 1, 2, 3]);
        assert_eq!(s.stats().stalled_requests, 0);
        assert_eq!(s.stats().cycles, 1);
        assert_eq!(s.stats().conflict_rate(), 0.0);
    }

    #[test]
    fn same_bank_serializes() {
        let mut s = BankSim::new(BankSimConfig {
            banks: 4,
            ports_per_bank: 1,
            lanes: 4,
        });
        s.issue_round(&[2, 2, 2, 2]);
        assert_eq!(s.stats().cycles, 4);
        assert_eq!(s.stats().stalled_requests, 3);
        assert!((s.stats().conflict_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.stats().slowdown(), 4.0);
    }

    #[test]
    fn multiport_banks_absorb_pairs() {
        let mut s = BankSim::new(BankSimConfig {
            banks: 4,
            ports_per_bank: 2,
            lanes: 4,
        });
        s.issue_round(&[1, 1, 3, 3]);
        assert_eq!(s.stats().cycles, 1);
        assert_eq!(s.stats().stalled_requests, 0);
    }

    #[test]
    fn feature_major_replay_detects_conflicts() {
        let cfg = BankSimConfig {
            banks: 4,
            ports_per_bank: 1,
            lanes: 2,
        };
        let mut s = BankSim::new(cfg);
        // Two concurrent samples whose vertex entries always share bank 0.
        let samples = vec![vec![0u64, 4, 8], vec![4u64, 8, 0]];
        s.replay_gather(&samples, FeatureLayout::FeatureMajor);
        assert!(
            s.stats().conflict_rate() > 0.4,
            "{}",
            s.stats().conflict_rate()
        );
    }

    #[test]
    fn channel_major_replay_never_conflicts() {
        let cfg = BankSimConfig {
            banks: 32,
            ports_per_bank: 2,
            lanes: 32,
        };
        let mut s = BankSim::new(cfg);
        let samples: Vec<Vec<u64>> = (0..64)
            .map(|i| (0..8).map(|v| (i * 7 + v * 13) as u64).collect())
            .collect();
        s.replay_gather(&samples, FeatureLayout::ChannelMajor);
        assert_eq!(s.stats().conflict_rate(), 0.0);
        assert_eq!(s.stats().slowdown(), 1.0);
    }

    #[test]
    fn channel_major_cycle_count_is_eight_per_sample_pair() {
        // M=2 ports → 2 samples in parallel, 8 vertices each → 8 cycles per pair.
        let cfg = BankSimConfig {
            banks: 32,
            ports_per_bank: 2,
            lanes: 32,
        };
        let mut s = BankSim::new(cfg);
        let samples: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 8]).collect();
        s.replay_gather(&samples, FeatureLayout::ChannelMajor);
        assert_eq!(s.stats().cycles, 16); // 4 samples / 2 per group × 8 rounds
    }

    #[test]
    fn random_feature_major_conflicts_grow_with_lanes() {
        let run = |lanes: usize| {
            let cfg = BankSimConfig {
                banks: 16,
                ports_per_bank: 1,
                lanes,
            };
            let mut s = BankSim::new(cfg);
            let samples: Vec<Vec<u64>> = (0..256)
                .map(|i| {
                    (0..8)
                        .map(|v| ((i * 2654435761u64 as usize + v * 805459861) % 9973) as u64)
                        .collect()
                })
                .collect();
            s.replay_gather(&samples, FeatureLayout::FeatureMajor);
            s.stats().conflict_rate()
        };
        // The paper observes conflict rate rising with concurrent rays
        // (Instant-NGP: 52% → 80% from 16 to 64 rays).
        assert!(run(64) > run(16));
    }

    #[test]
    fn stats_accumulate() {
        let mut a = BankStats {
            requests: 10,
            stalled_requests: 2,
            cycles: 5,
            ideal_cycles: 4,
        };
        a.accumulate(&BankStats {
            requests: 10,
            stalled_requests: 4,
            cycles: 10,
            ideal_cycles: 4,
        });
        assert_eq!(a.requests, 20);
        assert!((a.conflict_rate() - 0.3).abs() < 1e-12);
    }
}
