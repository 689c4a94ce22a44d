//! The compression rewrite pass: turn a compiled plan's large plain
//! transfers into fused [`PlanOp::Compress`] / [`PlanOp::Decompress`] pairs.
//!
//! The pass runs *after* assembly, so the collective algorithms stay
//! unmodified — ring, recursive doubling and the hierarchical schedules all
//! pick up compression for free.  Only plain [`PlanOp::Send`] /
//! [`PlanOp::Recv`] ops are rewritten; the zero-copy shared-region
//! transfers ([`PlanOp::SendFromShared`] / [`PlanOp::RecvIntoShared`])
//! stay exact, as do messages below the policy's wire threshold, messages
//! whose length is not a whole number of elements, and **node-local**
//! transfers — compression trades codec compute for wire bytes, and a
//! shared-memory copy has no wire to save, so only traffic that crosses a
//! node boundary is rewritten.
//!
//! **Symmetry.** Each rank's plan is rewritten independently, so the
//! predicate deciding whether a transfer is compressed must agree on both
//! endpoints.  It depends only on the message *length* (plus the codec,
//! which is part of the cache key and therefore identical cluster-wide)
//! and on whether the endpoints sit on different nodes — a property both
//! ends compute identically from the shared topology.  Plan validation
//! guarantees matched sends and receives carry equal lengths — so a send
//! is rewritten exactly when its matching receive is, and both stamp the
//! same calibrated `wire_bytes`.

use crate::compress::{calibrated_wire_bytes, Codec};
use crate::plan::ir::{PlanOp, RankPlan};

/// Whether a transfer of `len` bytes is compressed under `codec` with the
/// given wire threshold.  Pure in the length so both endpoints agree.
fn eligible(len: usize, codec: Codec, min_wire_bytes: usize) -> bool {
    codec.bound > 0.0 && len >= min_wire_bytes && len > 0 && len.is_multiple_of(codec.elem.size())
}

/// Rewrite `plan`'s eligible plain inter-node transfers into compressed
/// ones.  Returns how many ops were rewritten.
pub fn compress_rank_transfers(plan: &mut RankPlan, codec: Codec, min_wire_bytes: usize) -> usize {
    let mut rewritten = 0;
    let topology = plan.topology;
    let node = topology.node_of(plan.rank);
    let internode = |peer: usize| topology.node_of(peer) != node;
    for op in &mut plan.ops {
        match op {
            PlanOp::Send { dest, tag, src }
                if internode(*dest) && eligible(src.len(), codec, min_wire_bytes) =>
            {
                let wire_bytes = calibrated_wire_bytes(src.len(), codec);
                *op = PlanOp::Compress {
                    dest: *dest,
                    tag: *tag,
                    src: std::mem::take(src),
                    codec,
                    wire_bytes,
                };
                rewritten += 1;
            }
            PlanOp::Recv {
                source,
                tag,
                len,
                dst,
            } if internode(*source) && eligible(*len, codec, min_wire_bytes) => {
                *op = PlanOp::Decompress {
                    source: *source,
                    tag: *tag,
                    raw_len: *len,
                    dst: *dst,
                    codec,
                    wire_bytes: calibrated_wire_bytes(*len, codec),
                };
                rewritten += 1;
            }
            _ => {}
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::FloatElem;
    use crate::plan::ir::{Fidelity, IoShape, Plan, Src, SrcSeg};
    use pip_netsim::trace::TraceOp;
    use pip_runtime::Topology;

    fn codec() -> Codec {
        Codec {
            elem: FloatElem::F64,
            bound: 1e-3,
        }
    }

    fn exchange_ranks() -> Vec<RankPlan> {
        exchange_ranks_on(Topology::new(2, 1))
    }

    fn exchange_ranks_on(topo: Topology) -> Vec<RankPlan> {
        let big = 1024usize;
        let small = 16usize;
        let mk = |rank: usize, peer: usize| RankPlan {
            rank,
            topology: topo,
            fidelity: Fidelity::Exec,
            io: IoShape {
                sendbuf: Some(big + small),
                recvbuf: Some(big + small),
                ..IoShape::default()
            },
            names: Vec::new(),
            val_lens: vec![big, small],
            ops: vec![
                PlanOp::Send {
                    dest: peer,
                    tag: 0,
                    src: Src {
                        segs: vec![SrcSeg::SendBuf {
                            offset: 0,
                            len: big,
                        }],
                    },
                },
                PlanOp::Recv {
                    source: peer,
                    tag: 0,
                    len: big,
                    dst: 0,
                },
                PlanOp::Send {
                    dest: peer,
                    tag: 1,
                    src: Src {
                        segs: vec![SrcSeg::SendBuf {
                            offset: big,
                            len: small,
                        }],
                    },
                },
                PlanOp::Recv {
                    source: peer,
                    tag: 1,
                    len: small,
                    dst: 1,
                },
            ],
        };
        vec![mk(0, 1), mk(1, 0)]
    }

    /// The whole-cluster plan of `ranks`, all compiled for one topology.
    fn plan_of(ranks: Vec<RankPlan>) -> Plan {
        Plan::from_ranks(ranks[0].topology, ranks)
    }

    #[test]
    fn rewrites_only_transfers_above_the_threshold() {
        let mut ranks = exchange_ranks();
        for rank in &mut ranks {
            assert_eq!(compress_rank_transfers(rank, codec(), 512), 2);
        }
        let rank0 = &ranks[0].ops;
        assert!(matches!(rank0[0], PlanOp::Compress { .. }));
        assert!(matches!(rank0[1], PlanOp::Decompress { .. }));
        assert!(matches!(rank0[2], PlanOp::Send { .. }), "small send exact");
        assert!(matches!(rank0[3], PlanOp::Recv { .. }), "small recv exact");
        plan_of(ranks).validate().unwrap();
    }

    #[test]
    fn lowered_trace_prices_the_calibrated_wire_size_on_both_ends() {
        let mut ranks = exchange_ranks();
        for rank in &mut ranks {
            compress_rank_transfers(rank, codec(), 512);
        }
        let wire = calibrated_wire_bytes(1024, codec());
        assert!(wire < 1024, "calibration stream must compress");
        let trace = plan_of(ranks).to_trace(0);
        trace.validate().unwrap();
        let sent: Vec<usize> = trace.ranks[0]
            .ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Send { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(sent, vec![wire, 16]);
    }

    #[test]
    fn node_local_transfers_stay_exact() {
        // Same exchange, but both ranks share one node: a shared-memory
        // copy has no wire to save, so nothing rewrites.
        let mut ranks = exchange_ranks_on(Topology::new(1, 2));
        for rank in &mut ranks {
            assert_eq!(compress_rank_transfers(rank, codec(), 0), 0);
        }
        assert!(ranks[0]
            .ops
            .iter()
            .all(|op| matches!(op, PlanOp::Send { .. } | PlanOp::Recv { .. })));
        plan_of(ranks).validate().unwrap();
    }

    #[test]
    fn zero_bound_rewrites_nothing() {
        let exact = Codec {
            elem: FloatElem::F64,
            bound: 0.0,
        };
        for rank in &mut exchange_ranks() {
            assert_eq!(compress_rank_transfers(rank, exact, 0), 0);
        }
    }

    #[test]
    fn misaligned_lengths_stay_exact() {
        let mut ranks = exchange_ranks();
        // f64 codec, but pretend the big transfer were 1023 bytes: simulate
        // by using a codec whose element width does not divide the length.
        let wide = Codec {
            elem: FloatElem::F64,
            bound: 1e-3,
        };
        // 16-byte small message is a multiple of 8, so with threshold 0 all
        // four ops rewrite; with a non-dividing width nothing would.  Here we
        // check the alignment guard directly.
        assert!(eligible(1024, wide, 512));
        assert!(!eligible(1023, wide, 512));
        assert!(!eligible(0, wide, 0));
        for rank in &mut ranks {
            assert_eq!(compress_rank_transfers(rank, wide, 0), 4);
        }
        plan_of(ranks).validate().unwrap();
    }
}
