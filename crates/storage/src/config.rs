//! Disk cost-model parameters (Table 6 of the paper).

use serde::{Deserialize, Serialize};

/// Parameters of the simulated disk.
///
/// Defaults reproduce Table 6 of the paper ("Parameters for cost models"):
///
/// | parameter | paper value |
/// |---|---|
/// | `T_seek` (random seek)      | 10 ms |
/// | `T_read` (sequential read)  | 20 ms/MB |
/// | `T_write` (sequential write)| 50 ms/MB |
/// | `Cost_init` (open a DB file)| 100 ms |
///
/// Two parameters extend Table 6 so that *short* head movements behave like
/// a real drive rather than like a constant-cost teleport:
///
/// * [`seek_floor_ms`](DiskConfig::seek_floor_ms) — the minimum cost of any
///   discontiguous head move (head settle + rotational latency). Seek cost
///   grows from the floor to `seek_ms` with the square root of the distance,
///   the classical seek-curve approximation.
/// * A forward move is never charged more than "reading through" the skipped
///   bytes at the sequential rate. This mirrors what happens during a
///   bitmap-style heap scan that skips a few pages: the platter keeps
///   spinning under the head, so skipping costs no more than reading. This
///   is the physical mechanism behind the pointer *saturation* the paper
///   models with a sigmoid in §6.3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiskConfig {
    /// Full random seek cost in milliseconds (`T_seek`).
    pub seek_ms: f64,
    /// Minimum cost of a discontiguous move (settle + rotation), ms.
    pub seek_floor_ms: f64,
    /// Sequential read rate, ms per MiB (`T_read`).
    pub read_ms_per_mb: f64,
    /// Sequential write rate, ms per MiB (`T_write`).
    pub write_ms_per_mb: f64,
    /// Cost to open a database file, ms (`Cost_init`).
    pub init_ms: f64,
    /// Seek-distance normalization: a move of this many bytes (or more)
    /// costs the full `seek_ms`. Roughly the platter span of the paper's
    /// experimental database.
    pub stroke_bytes: u64,
    /// Sequential read-ahead depth of the buffer pool, in pages.
    ///
    /// When the pool observes **run-style access** — two consecutive
    /// cache misses at physically adjacent offsets of the same file, the
    /// signature of a UPI heap run or any other clustered scan — it
    /// prefetches up to this many physically contiguous pages of the same
    /// file in one batch while the head is already positioned there (one
    /// potential seek + one contiguous transfer, charged through the
    /// normal disk model; in practice the head is parked right at the run
    /// so the move is free). The payoff is that interleaved access to
    /// *other* files (cutoff pointer chases, secondary-index descents)
    /// no longer forces a seek back to the run for every leaf hop.
    ///
    /// `0` disables read-ahead, run estimates included. The default (8
    /// pages, 64 KiB at the 8 KiB experimental page size) mirrors a
    /// conservative OS readahead window: large enough to cover a
    /// leaf-chain hop pattern, small enough that a detected run that ends
    /// right after arming over-reads at most 8 pages. A run opened with an
    /// estimate ([`BufferPool::get_run`](crate::BufferPool::get_run)) never
    /// gets this window for the leaf past its estimate: that read is the
    /// detector's first miss, so a reader that stops on it (a top-k that
    /// has its rows, a probe on the key that ends its run) over-reads
    /// nothing, and a run that really continues arms the window on the
    /// next adjacent miss.
    pub readahead_pages: usize,
    /// Cost of one `fsync`-equivalent durability barrier, ms. The WAL
    /// charges this once per group-commit flush (on top of the ordinary
    /// write-transfer cost of the log pages), so the §6 device model
    /// prices commit latency: the default is half a revolution of a
    /// 10k RPM spindle — the platter must come around for the drive to
    /// acknowledge the forced write.
    pub fsync_ms: f64,
    /// Group-commit batch size: WAL appends are buffered in memory and
    /// flushed to the device — one contiguous write plus one
    /// [`fsync_ms`](DiskConfig::fsync_ms) barrier — every this many
    /// records (or earlier, on an explicit sync/checkpoint). `1` degrades
    /// to per-operation commit; larger values amortize the barrier across
    /// the batch at the cost of a longer window of acknowledged-but-
    /// volatile operations.
    pub wal_group_ops: usize,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            seek_ms: 10.0,
            // Settle + average rotational latency of a 10k RPM spindle
            // (half a revolution = 3 ms): even the shortest true seek
            // cannot beat the platter coming around.
            seek_floor_ms: 4.0,
            read_ms_per_mb: 20.0,
            write_ms_per_mb: 50.0,
            init_ms: 100.0,
            stroke_bytes: 10 << 30, // 10 GiB, Table 6's S_table
            readahead_pages: 8,
            // Same physics as `seek_floor_ms`: the barrier completes when
            // the platter comes around (half a 10k RPM revolution).
            fsync_ms: 3.0,
            wal_group_ops: 32,
        }
    }
}

impl DiskConfig {
    /// Milliseconds to sequentially read `bytes`.
    #[inline]
    pub fn read_cost_ms(&self, bytes: u64) -> f64 {
        bytes as f64 * self.read_ms_per_mb / (1024.0 * 1024.0)
    }

    /// Milliseconds to sequentially write `bytes`.
    #[inline]
    pub fn write_cost_ms(&self, bytes: u64) -> f64 {
        bytes as f64 * self.write_ms_per_mb / (1024.0 * 1024.0)
    }

    /// Cost of moving the head from `from` to `to` (exclusive of the
    /// subsequent transfer).
    ///
    /// * zero-distance moves are free (the definition of sequential access);
    /// * forward moves are charged `min(seek curve, read-through)`;
    /// * backward moves are charged the seek curve (the platter cannot spin
    ///   backwards).
    pub fn move_cost_ms(&self, from: u64, to: u64) -> f64 {
        if from == to {
            return 0.0;
        }
        let dist = from.abs_diff(to);
        let frac = (dist as f64 / self.stroke_bytes as f64).min(1.0);
        let curve = self.seek_floor_ms + (self.seek_ms - self.seek_floor_ms) * frac.sqrt();
        if to > from {
            curve.min(self.read_cost_ms(dist))
        } else {
            curve
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table6() {
        let c = DiskConfig::default();
        assert_eq!(c.seek_ms, 10.0);
        assert_eq!(c.read_ms_per_mb, 20.0);
        assert_eq!(c.write_ms_per_mb, 50.0);
        assert_eq!(c.init_ms, 100.0);
    }

    #[test]
    fn sequential_moves_are_free() {
        let c = DiskConfig::default();
        assert_eq!(c.move_cost_ms(4096, 4096), 0.0);
    }

    #[test]
    fn tiny_forward_hops_cost_read_through() {
        let c = DiskConfig::default();
        // Skipping 8 KiB forward should cost the same as reading 8 KiB,
        // which is far below the seek floor.
        let hop = c.move_cost_ms(0, 8192);
        assert!((hop - c.read_cost_ms(8192)).abs() < 1e-9);
        assert!(hop < c.seek_floor_ms);
    }

    #[test]
    fn long_moves_cost_a_full_seek() {
        let c = DiskConfig::default();
        let far = c.stroke_bytes;
        assert!((c.move_cost_ms(0, far) - c.seek_ms).abs() < 1e-9);
        // Backward long moves too.
        assert!((c.move_cost_ms(far, 0) - c.seek_ms).abs() < 1e-9);
    }

    #[test]
    fn backward_moves_never_use_read_through() {
        let c = DiskConfig::default();
        let back = c.move_cost_ms(8192, 0);
        assert!(back >= c.seek_floor_ms);
    }

    #[test]
    fn seek_curve_is_monotone_in_distance() {
        let c = DiskConfig::default();
        let mut prev = 0.0;
        for exp in 10..34 {
            let d = 1u64 << exp;
            let cost = c.move_cost_ms(d, 0); // backward: pure curve
            assert!(cost >= prev, "seek curve must be monotone");
            prev = cost;
        }
    }

    #[test]
    fn transfer_costs_scale_linearly() {
        let c = DiskConfig::default();
        assert!((c.read_cost_ms(1 << 20) - 20.0).abs() < 1e-9);
        assert!((c.write_cost_ms(1 << 20) - 50.0).abs() < 1e-9);
        assert!((c.read_cost_ms(2 << 20) - 40.0).abs() < 1e-9);
    }
}
