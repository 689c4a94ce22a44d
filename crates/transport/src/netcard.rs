//! The inter-node network model: a LogGP-style description of the Intel
//! Omni-Path adapter from the paper's testbed (100 Gb/s, ~97 M messages/s)
//! extended with the distinction that motivates the multi-object design:
//!
//! * every *process* pays a host-side overhead `o` for each message it sends
//!   or receives, which limits a single process to roughly `1/o` messages per
//!   second, while
//! * the *NIC* can accept a new message every `g_nic` nanoseconds (its
//!   aggregate message rate) and streams payload at the link bandwidth `G`.
//!
//! Because `o` is an order of magnitude larger than `g_nic` for small
//! messages, one sender per node (the classic single-leader hierarchical
//! collective) leaves the adapter mostly idle; eighteen concurrent senders —
//! the paper's multi-object design — approach the adapter's message rate.
//! The discrete-event simulator serializes per-process work at `o`, per-node
//! injection at `g_nic`/`G`, and adds the wire latency `L`.

use crate::cost::Nanos;

/// Parameters of one NIC / one link in LogGP-with-rate-caps form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicParams {
    /// Wire + switch latency, one direction (LogGP `L`).
    pub wire_latency: Nanos,
    /// Host CPU time to initiate a send (LogGP `o`, sender side).
    pub send_overhead_base: Nanos,
    /// Additional sender host time per payload byte (header build, copy to
    /// the injection buffer for eager messages).
    pub send_overhead_per_byte: Nanos,
    /// Host CPU time to complete a receive (LogGP `o`, receiver side).
    pub recv_overhead_base: Nanos,
    /// Additional receiver host time per payload byte.
    pub recv_overhead_per_byte: Nanos,
    /// Minimum interval between two messages entering the NIC, i.e. the
    /// inverse of the adapter's aggregate message rate (LogGP `g`).
    pub nic_message_gap: Nanos,
    /// Link bandwidth in bytes per nanosecond (inverse of LogGP `G`).
    pub bytes_per_ns: f64,
}

impl NicParams {
    /// The paper's testbed adapter: Intel Omni-Path, 100 Gb/s, a maximum
    /// message rate of 97 million messages per second.
    pub fn omni_path_hpdc23() -> Self {
        Self {
            wire_latency: 900.0,
            send_overhead_base: 280.0,
            send_overhead_per_byte: 0.012,
            recv_overhead_base: 300.0,
            recv_overhead_per_byte: 0.012,
            // 97e6 msg/s  =>  one message every ~10.3 ns.
            nic_message_gap: 1e9 / 97e6,
            // 100 Gb/s = 12.5 GB/s = 12.5 bytes/ns.
            bytes_per_ns: 12.5,
        }
    }

    /// A slower commodity fabric (useful for sensitivity studies): 25 Gb/s,
    /// 20 M msg/s, higher latency.
    pub fn commodity_25g() -> Self {
        Self {
            wire_latency: 1800.0,
            send_overhead_base: 450.0,
            send_overhead_per_byte: 0.02,
            recv_overhead_base: 500.0,
            recv_overhead_per_byte: 0.02,
            nic_message_gap: 1e9 / 20e6,
            bytes_per_ns: 3.125,
        }
    }

    /// Validate that the parameters are physically meaningful.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("wire_latency", self.wire_latency),
            ("send_overhead_base", self.send_overhead_base),
            ("send_overhead_per_byte", self.send_overhead_per_byte),
            ("recv_overhead_base", self.recv_overhead_base),
            ("recv_overhead_per_byte", self.recv_overhead_per_byte),
            ("nic_message_gap", self.nic_message_gap),
        ];
        for (name, value) in fields {
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "{name} must be finite and non-negative, got {value}"
                ));
            }
        }
        if !(self.bytes_per_ns.is_finite() && self.bytes_per_ns > 0.0) {
            return Err(format!(
                "bytes_per_ns must be positive, got {}",
                self.bytes_per_ns
            ));
        }
        Ok(())
    }
}

impl Default for NicParams {
    fn default() -> Self {
        Self::omni_path_hpdc23()
    }
}

/// Cost queries over a [`NicParams`], used by the simulator and by analytic
/// sanity checks in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicModel {
    params: NicParams,
}

impl NicModel {
    /// Wrap a parameter set.
    pub fn new(params: NicParams) -> Self {
        Self { params }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &NicParams {
        &self.params
    }

    /// Sender host CPU time for one message of `bytes` payload bytes.
    pub fn host_send_overhead(&self, bytes: usize) -> Nanos {
        self.params.send_overhead_base + self.params.send_overhead_per_byte * bytes as Nanos
    }

    /// Receiver host CPU time for one message of `bytes` payload bytes.
    pub fn host_recv_overhead(&self, bytes: usize) -> Nanos {
        self.params.recv_overhead_base + self.params.recv_overhead_per_byte * bytes as Nanos
    }

    /// Time the NIC is occupied injecting one message of `bytes` bytes: the
    /// larger of the per-message gap and the payload serialization time.
    pub fn nic_occupancy(&self, bytes: usize) -> Nanos {
        let serialization = bytes as Nanos / self.params.bytes_per_ns;
        serialization.max(self.params.nic_message_gap)
    }

    /// One-way wire latency.
    pub fn wire_latency(&self) -> Nanos {
        self.params.wire_latency
    }

    /// End-to-end latency of a single isolated message (no contention):
    /// `o_send + occupancy + L + o_recv`.
    pub fn isolated_message_latency(&self, bytes: usize) -> Nanos {
        self.host_send_overhead(bytes)
            + self.nic_occupancy(bytes)
            + self.wire_latency()
            + self.host_recv_overhead(bytes)
    }

    /// Messages per second a single sending process can sustain (limited by
    /// its host overhead).
    pub fn single_process_message_rate(&self, bytes: usize) -> f64 {
        1e9 / self
            .host_send_overhead(bytes)
            .max(self.nic_occupancy(bytes))
    }

    /// Messages per second `senders` concurrent processes on one node can
    /// sustain through one adapter — the quantity the multi-object design
    /// maximizes.  Bounded by the adapter's aggregate message rate.
    pub fn node_message_rate(&self, senders: usize, bytes: usize) -> f64 {
        if senders == 0 {
            return 0.0;
        }
        let host_limited = senders as f64 * 1e9 / self.host_send_overhead(bytes);
        let nic_limited = 1e9 / self.nic_occupancy(bytes);
        host_limited.min(nic_limited)
    }

    /// Achievable node throughput in bytes per second with `senders`
    /// concurrent sender processes and `bytes`-byte messages.
    pub fn node_throughput(&self, senders: usize, bytes: usize) -> f64 {
        self.node_message_rate(senders, bytes) * bytes as f64
    }
}

impl Default for NicModel {
    fn default() -> Self {
        Self::new(NicParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn omni_path_parameters_match_paper_testbed() {
        let params = NicParams::omni_path_hpdc23();
        params.validate().unwrap();
        // 100 Gbps.
        assert!((params.bytes_per_ns - 12.5).abs() < 1e-9);
        // 97 M msg/s aggregate.
        let rate = 1e9 / params.nic_message_gap;
        assert!((rate - 97e6).abs() / 97e6 < 1e-6);
    }

    #[test]
    fn single_process_cannot_saturate_the_nic_message_rate() {
        let nic = NicModel::default();
        let single = nic.single_process_message_rate(64);
        let adapter = 1e9 / nic.nic_occupancy(64);
        assert!(
            single < adapter / 5.0,
            "one process ({single:.0} msg/s) should be far below the adapter ({adapter:.0} msg/s)"
        );
    }

    #[test]
    fn multi_object_scales_message_rate_until_nic_limit() {
        let nic = NicModel::default();
        let one = nic.node_message_rate(1, 64);
        let eighteen = nic.node_message_rate(18, 64);
        assert!(
            eighteen > 10.0 * one,
            "18 senders ({eighteen:.0}) should be ~18x one sender ({one:.0})"
        );
        // And the adapter cap is respected.
        assert!(eighteen <= 1e9 / nic.nic_occupancy(64) + 1.0);
        let thousand = nic.node_message_rate(1000, 64);
        assert!(thousand <= 1e9 / nic.nic_occupancy(64) + 1.0);
    }

    #[test]
    fn large_messages_become_bandwidth_bound() {
        let nic = NicModel::default();
        let bytes = 1 << 20;
        // Serialization of 1 MiB at 12.5 B/ns is ~84 us, far above the gap.
        assert!(nic.nic_occupancy(bytes) > 80_000.0);
        // Message rate with many senders equals the bandwidth limit.
        let rate = nic.node_message_rate(18, bytes);
        let expected = nic.params().bytes_per_ns * 1e9 / bytes as f64;
        assert!((rate - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn isolated_latency_is_sum_of_components() {
        let nic = NicModel::default();
        let latency = nic.isolated_message_latency(0);
        let params = nic.params();
        let expected = params.send_overhead_base
            + params.nic_message_gap
            + params.wire_latency
            + params.recv_overhead_base;
        assert!((latency - expected).abs() < 1e-9);
    }

    #[test]
    fn zero_senders_have_zero_rate() {
        let nic = NicModel::default();
        assert_eq!(nic.node_message_rate(0, 64), 0.0);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let no_bandwidth = NicParams {
            bytes_per_ns: 0.0,
            ..NicParams::default()
        };
        assert!(no_bandwidth.validate().is_err());
        let nan_latency = NicParams {
            wire_latency: f64::NAN,
            ..NicParams::default()
        };
        assert!(nan_latency.validate().is_err());
        let negative_overhead = NicParams {
            send_overhead_base: -1.0,
            ..NicParams::default()
        };
        assert!(negative_overhead.validate().is_err());
    }

    proptest! {
        #[test]
        fn prop_node_rate_monotone_in_senders(senders in 1usize..64, bytes in 1usize..65536) {
            let nic = NicModel::default();
            prop_assert!(nic.node_message_rate(senders + 1, bytes) + 1e-6 >= nic.node_message_rate(senders, bytes));
        }

        #[test]
        fn prop_latency_monotone_in_bytes(bytes in 0usize..(1 << 22), extra in 1usize..4096) {
            let nic = NicModel::default();
            prop_assert!(nic.isolated_message_latency(bytes + extra) >= nic.isolated_message_latency(bytes));
        }

        #[test]
        fn prop_throughput_never_exceeds_link_bandwidth(senders in 1usize..64, bytes in 1usize..(1 << 22)) {
            let nic = NicModel::default();
            let throughput = nic.node_throughput(senders, bytes);
            let link = nic.params().bytes_per_ns * 1e9;
            prop_assert!(throughput <= link * 1.0000001);
        }
    }
}
