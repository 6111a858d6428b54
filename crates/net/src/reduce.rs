//! Fixed-order report reductions for the fleet engine.
//!
//! Floating-point addition is not associative, so the *order* in which
//! per-client values are folded into the aggregate, the per-population
//! means and the Jain index is part of the byte-identity contract:
//! [`ShardedFleetSim`](crate::shard::ShardedFleetSim) must fold in the
//! identical order regardless of how clients were partitioned across
//! shards or worker threads. Every reduction here iterates in ascending
//! client id — the one order every partition can reproduce for free.

/// Goodput in Mbit/s for `bytes` delivered over `secs` seconds.
pub fn mbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 * 8.0 / secs / 1e6
}

/// The fairness block of a [`FleetReport`](crate::fleet::FleetReport),
/// reduced from per-client goodput in ascending-client-id order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FairnessStats {
    /// Sum of per-client goodput.
    pub aggregate_mbps: f64,
    /// Mean goodput of the MPTCP clients (0 when none).
    pub mptcp_mean_mbps: f64,
    /// Mean goodput of the TCP clients (0 when none).
    pub tcp_mean_mbps: f64,
    /// `mptcp_mean / tcp_mean`, 0 when either side is absent.
    pub mptcp_tcp_ratio: f64,
    /// Jain's fairness index over per-client goodput.
    pub jain_index: f64,
}

/// Reduce per-client goodput into the report's fairness block in one
/// fixed-order pass. `is_mptcp(i)` classifies client `i`; the folds run
/// in ascending `i`, so the result is a pure function of the slice —
/// independent of shard count, worker schedule, or any other execution
/// detail.
pub fn fairness_stats(per_client_mbps: &[f64], is_mptcp: impl Fn(usize) -> bool) -> FairnessStats {
    let mut sum = 0.0;
    let mut sq_sum = 0.0;
    let (mut m_sum, mut m_count) = (0.0, 0u64);
    let (mut t_sum, mut t_count) = (0.0, 0u64);
    for (i, &x) in per_client_mbps.iter().enumerate() {
        sum += x;
        sq_sum += x * x;
        if is_mptcp(i) {
            m_sum += x;
            m_count += 1;
        } else {
            t_sum += x;
            t_count += 1;
        }
    }
    let mean = |s: f64, n: u64| if n == 0 { 0.0 } else { s / n as f64 };
    let m_mean = mean(m_sum, m_count);
    let t_mean = mean(t_sum, t_count);
    FairnessStats {
        aggregate_mbps: sum,
        mptcp_mean_mbps: m_mean,
        tcp_mean_mbps: t_mean,
        mptcp_tcp_ratio: if t_mean > 0.0 && m_mean > 0.0 {
            m_mean / t_mean
        } else {
            0.0
        },
        jain_index: if sq_sum > 0.0 {
            sum * sum / (per_client_mbps.len() as f64 * sq_sum)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_naive_two_pass_formulas() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        let s = fairness_stats(&xs, |i| i % 2 == 0);
        let mptcp: Vec<f64> = xs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(_, &x)| x)
            .collect();
        let tcp: Vec<f64> = xs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 != 0)
            .map(|(_, &x)| x)
            .collect();
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        assert_eq!(s.aggregate_mbps, sum);
        assert_eq!(
            s.mptcp_mean_mbps,
            mptcp.iter().sum::<f64>() / mptcp.len() as f64
        );
        assert_eq!(s.tcp_mean_mbps, tcp.iter().sum::<f64>() / tcp.len() as f64);
        assert_eq!(s.mptcp_tcp_ratio, s.mptcp_mean_mbps / s.tcp_mean_mbps);
        assert_eq!(s.jain_index, sum * sum / (xs.len() as f64 * sq));
    }

    #[test]
    fn degenerate_populations() {
        let all_zero = fairness_stats(&[0.0, 0.0], |_| false);
        assert_eq!(all_zero.jain_index, 0.0);
        assert_eq!(all_zero.mptcp_tcp_ratio, 0.0);
        let all_mptcp = fairness_stats(&[1.0, 3.0], |_| true);
        assert_eq!(all_mptcp.tcp_mean_mbps, 0.0);
        assert_eq!(all_mptcp.mptcp_tcp_ratio, 0.0);
        assert_eq!(fairness_stats(&[], |_| true).aggregate_mbps, 0.0);
    }

    #[test]
    fn mbps_scaling() {
        // 5 MB over 4 s = 10 Mbit/s.
        assert_eq!(mbps(5_000_000, 4.0), 10.0);
    }
}
