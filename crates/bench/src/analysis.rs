//! Analytical performance model (paper §6).
//!
//! Closed-form estimates of the cost and space of TMA and SMA under the
//! paper's assumptions: `N` tuples uniformly distributed in the unit
//! d-dimensional workspace, arrival rate `r` per cycle, `Q` queries with
//! result size `k`, grid cell extent `δ` per axis. The `model` figure of
//! the `paper` binary compares these formulas against counters collected
//! from the running engines.
//!
//! All quantities are *unit-free operation counts*, not seconds: the paper
//! uses them for asymptotic comparison (e.g. `Pr_rec · T_comp` explains why
//! TMA falls behind SMA as `k` grows).

/// Model parameters (defaults = the paper's default setting, Table 1).
#[derive(Clone, Copy, Debug)]
pub struct ModelParams {
    /// Average number of valid tuples `N`.
    pub n: f64,
    /// Dimensionality `d`.
    pub d: f64,
    /// Arrivals per processing cycle `r`.
    pub r: f64,
    /// Number of running queries `Q`.
    pub q: f64,
    /// Result cardinality `k`.
    pub k: f64,
    /// Grid cell extent per axis `δ`.
    pub delta: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        // Table 1 defaults: d = 4, N = 1M, r = 10K, Q = 1K, k = 20 and the
        // best grid of 12⁴ cells (δ = 1/12).
        ModelParams {
            n: 1.0e6,
            d: 4.0,
            r: 1.0e4,
            q: 1.0e3,
            k: 20.0,
            delta: 1.0 / 12.0,
        }
    }
}

impl ModelParams {
    /// Average number of tuples per cell, `N · δ^d`.
    pub fn tuples_per_cell(&self) -> f64 {
        self.n * self.delta.powf(self.d)
    }

    /// Expected number of cells intersecting one query's influence region:
    /// `C = ⌈k / (N·δ^d)⌉` (the region holds k of the N uniform tuples, so
    /// its volume is k/N).
    pub fn cells_per_query(&self) -> f64 {
        (self.k / self.tuples_per_cell()).ceil().max(1.0)
    }

    /// Points inside the processed cells, `|C| = C · N · δ^d`.
    pub fn points_per_query(&self) -> f64 {
        self.cells_per_query() * self.tuples_per_cell()
    }

    /// Cost of one top-k computation,
    /// `T_comp = O(C·log C + |C|·log k)`.
    pub fn t_comp(&self) -> f64 {
        let c = self.cells_per_query();
        let pts = self.points_per_query();
        c * c.log2().max(1.0) + pts * self.k.log2().max(1.0)
    }

    /// Upper bound for the probability that a query must be recomputed in
    /// a cycle: `Pr_rec ≤ 1 − (1 − r/N)^k` (the probability that at least
    /// one of the k result tuples expires).
    pub fn pr_rec(&self) -> f64 {
        1.0 - (1.0 - (self.r / self.n).min(1.0)).powf(self.k)
    }

    /// Per-cycle running time of TMA:
    /// `T_TMA = O(r + Q·(C·r·δ^d + k·r·log k/N + Pr_rec·T_comp))`.
    pub fn t_tma(&self) -> f64 {
        let events = self.cells_per_query() * self.r * self.delta.powf(self.d);
        let updates = self.k * self.r * self.k.log2().max(1.0) / self.n;
        self.r + self.q * (events + updates + self.pr_rec() * self.t_comp())
    }

    /// Per-cycle running time of SMA:
    /// `T_SMA = O(r + Q·(C·r·δ^d + k²·r/N))` — no recomputation term under
    /// uniform data.
    pub fn t_sma(&self) -> f64 {
        let events = self.cells_per_query() * self.r * self.delta.powf(self.d);
        let updates = self.k * self.k * self.r / self.n;
        self.r + self.q * (events + updates)
    }

    /// Space of TMA in "slots":
    /// `S_TMA = O(N·(d+1) + Q·(C + d + 2k))`.
    pub fn s_tma(&self) -> f64 {
        self.n * (self.d + 1.0) + self.q * (self.cells_per_query() + self.d + 2.0 * self.k)
    }

    /// Space of SMA in "slots":
    /// `S_SMA = O(N·(d+1) + Q·(C + d + 3k))` — the extra `k` stores the
    /// dominance counters.
    pub fn s_sma(&self) -> f64 {
        self.n * (self.d + 1.0) + self.q * (self.cells_per_query() + self.d + 3.0 * self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ModelParams {
        ModelParams::default()
    }

    #[test]
    fn defaults_match_table1() {
        let m = p();
        assert_eq!(m.n, 1.0e6);
        assert_eq!(m.k, 20.0);
        // 12^4 cells with 1M tuples → ~48 tuples per cell.
        assert!((m.tuples_per_cell() - 48.2).abs() < 0.5);
        // Influence region of a default query fits in one cell.
        assert_eq!(m.cells_per_query(), 1.0);
    }

    #[test]
    fn pr_rec_behaviour() {
        let m = p();
        // r/N = 1%, k = 20 → Pr_rec ≈ 1 − 0.99^20 ≈ 0.182.
        assert!((m.pr_rec() - 0.182).abs() < 0.005);
        // Monotone in k and r.
        let mut hk = m;
        hk.k = 100.0;
        assert!(hk.pr_rec() > m.pr_rec());
        let mut hr = m;
        hr.r = 1.0e5;
        assert!(hr.pr_rec() > m.pr_rec());
        // Bounded by 1.
        hr.r = 1.0e7;
        assert!(hr.pr_rec() <= 1.0);
    }

    #[test]
    fn sma_beats_tma_at_default_and_gap_grows_with_k() {
        let m = p();
        assert!(m.t_sma() < m.t_tma());
        let ratio_at = |k: f64| {
            let mut m = p();
            m.k = k;
            m.t_tma() / m.t_sma()
        };
        assert!(
            ratio_at(100.0) > ratio_at(1.0),
            "the TMA/SMA gap must widen with k (Figure 19)"
        );
    }

    /// Why the default grid puts one cell per k tuples: over every grid
    /// of m cells per axis, `T_comp` is least where a cell holds k tuples
    /// (`C = 1`, `|C| = k`). A finer grid pops more cells for the same k
    /// points, a coarser one scans more points. N = k·8^d so that m = 8
    /// gives exactly k a cell.
    #[test]
    fn t_comp_is_least_at_k_tuples_per_cell() {
        for d in [2.0, 4.0] {
            let grid = |m: u32| ModelParams {
                n: 20.0 * 8f64.powf(d),
                d,
                delta: 1.0 / f64::from(m),
                ..p()
            };
            let best = (1..=64)
                .map(grid)
                .min_by(|a, b| a.t_comp().total_cmp(&b.t_comp()))
                .unwrap_or_else(p);
            assert_eq!(best.tuples_per_cell(), best.k, "d = {d}");
        }
    }

    #[test]
    fn space_ordering() {
        let m = p();
        assert!(m.s_sma() > m.s_tma(), "skyband costs an extra k per query");
        // Both are dominated by the N·(d+1) tuple storage.
        assert!(m.s_tma() > m.n * m.d);
    }

    #[test]
    fn costs_scale_with_load() {
        let m = p();
        for (field, grow) in [
            ("q", {
                let mut x = p();
                x.q *= 10.0;
                x
            }),
            ("r", {
                let mut x = p();
                x.r *= 10.0;
                x
            }),
            ("k", {
                let mut x = p();
                x.k *= 5.0;
                x
            }),
        ] {
            assert!(grow.t_tma() > m.t_tma(), "T_TMA not increasing in {field}");
            assert!(grow.t_sma() > m.t_sma(), "T_SMA not increasing in {field}");
        }
    }
}
