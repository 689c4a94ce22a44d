//! A 2-D application kernel on top of the MPI-like API: a Jacobi
//! heat-diffusion stencil on a PX × PY process grid, exercising the two
//! features real stencil codes lean on:
//!
//! * **derived datatypes** — the east/west halos are *columns* of the
//!   row-major tile, exchanged in place with [`Layout::vector`]-shaped
//!   strided sends that pick every `C + 2`-th element (the
//!   `MPI_Type_vector` idiom); the north/south halos are contiguous rows
//!   and use the plain point-to-point calls;
//! * **a user-defined operator** — the global residual is the
//!   absolute-value maximum of the per-cell update deltas, reduced with a
//!   registered `(f64, abs-max)` operator ([`Op::of_typed`], the
//!   `MPI_Op_create` idiom) rather than a builtin.
//!
//! Every rank's tile and the reduced residual are checked against a
//! sequential oracle that runs the identical update on the undecomposed
//! global grid — cell for cell, the distributed run must reproduce it
//! exactly.
//!
//! ```text
//! cargo run --release --example halo_exchange
//! ```

#![forbid(unsafe_code)]

use pip_mcoll::core::prelude::*;

/// Process grid: PX × PY ranks on 2 nodes × 4 processes.
const PX: usize = 4;
const PY: usize = 2;
/// Interior tile size per rank: R rows × C cols (deliberately non-square).
const R: usize = 6;
const C: usize = 5;
const STEPS: usize = 25;

/// Index into a row-major grid with a one-cell ghost ring.
fn idx(row: usize, col: usize, width: usize) -> usize {
    row * (width + 2) + col
}

/// One Jacobi update over the interior of a ghost-ringed grid; returns
/// (next grid, max |delta|).  Shared verbatim by the distributed tiles and
/// the sequential oracle so their arithmetic is identical.
fn jacobi_step(u: &[f64], rows: usize, cols: usize) -> (Vec<f64>, f64) {
    let mut next = u.to_vec();
    let mut max_delta = 0.0f64;
    for r in 1..=rows {
        for c in 1..=cols {
            let here = u[idx(r, c, cols)];
            let neighbours = u[idx(r - 1, c, cols)]
                + u[idx(r + 1, c, cols)]
                + u[idx(r, c - 1, cols)]
                + u[idx(r, c + 1, cols)];
            let updated = here + 0.25 * (neighbours - 4.0 * here);
            next[idx(r, c, cols)] = updated;
            max_delta = max_delta.max((updated - here).abs());
        }
    }
    (next, max_delta)
}

/// The sequential oracle: the same stencil on the undecomposed global grid
/// (ghost ring pinned at zero — Dirichlet boundaries).  Returns the final
/// grid and the final step's residual.
fn sequential_oracle() -> (Vec<f64>, f64) {
    let (width, height) = (PX * C, PY * R);
    let mut g = vec![0.0f64; (height + 2) * (width + 2)];
    g[idx(height / 2 + 1, width / 2 + 1, width)] = 1000.0;
    let mut residual = 0.0;
    for _ in 0..STEPS {
        let (next, delta) = jacobi_step(&g, height, width);
        g = next;
        residual = delta;
    }
    (g, residual)
}

fn main() {
    let results = World::builder()
        .nodes(2)
        .ppn(PX * PY / 2)
        .library(Library::PipMColl)
        .run(|comm| {
            let rank = comm.rank();
            assert_eq!(comm.size(), PX * PY, "the process grid must fill the world");
            let (cx, cy) = (rank % PX, rank / PX);
            let west = (cx > 0).then(|| rank - 1);
            let east = (cx + 1 < PX).then(|| rank + 1);
            let north = (cy > 0).then(|| rank - PX);
            let south = (cy + 1 < PY).then(|| rank + PX);

            // Local tile with a one-cell ghost ring, row-major.
            let mut u = vec![0.0f64; (R + 2) * (C + 2)];
            let (width, height) = (PX * C, PY * R);
            let (gx_mid, gy_mid) = (width / 2, height / 2);
            for r in 1..=R {
                for c in 1..=C {
                    if (cy * R + r - 1, cx * C + c - 1) == (gy_mid, gx_mid) {
                        u[idx(r, c, C)] = 1000.0;
                    }
                }
            }

            // A column of the interior: R single-element blocks, one per
            // row, stride = the padded row width.  This is
            // MPI_Type_vector(R, 1, C + 2) — the wire carries the packed
            // column, the receiver scatters it into its ghost column.
            let column = Layout::vector(R, 1, C + 2);

            // The residual operator: |x| vs |y| maximum over f64, a
            // registered user operator with its own plan-cache identity.
            let abs_max = Op::of_typed::<f64>(|x, y| if x.abs() >= y.abs() { x } else { y });

            let mut residual = 0.0;
            for step in 0..STEPS {
                // One tag per (step, axis); both ends of an exchange must
                // use the same tag, and messages are matched by (source,
                // tag), so west and east traffic share the axis tag safely.
                let tag = 2 * step as u64;

                // East/west: strided column halos, in place.  The send
                // column is copied out first because the receive column of
                // the same tile overlaps it element-wise in memory.
                for (peer, send_col, ghost_col) in [(west, 1, 0), (east, C, C + 1)] {
                    if let Some(peer) = peer {
                        let start = idx(1, send_col, C);
                        let outgoing = u[start..start + column.extent()].to_vec();
                        let ghost = idx(1, ghost_col, C);
                        comm.sendrecv_strided(
                            peer,
                            &outgoing,
                            column,
                            peer,
                            column,
                            &mut u[ghost..ghost + column.extent()],
                            tag,
                        );
                    }
                }
                // North/south: rows are contiguous, plain sendrecv.
                for (peer, send_row, ghost_row) in [(north, 1, 0), (south, R, R + 1)] {
                    if let Some(peer) = peer {
                        let row = u[idx(send_row, 1, C)..=idx(send_row, C, C)].to_vec();
                        let got = comm.sendrecv(peer, &row, peer, C, tag + 1);
                        u[idx(ghost_row, 1, C)..=idx(ghost_row, C, C)].copy_from_slice(&got);
                    }
                }

                let (next, local_delta) = jacobi_step(&u, R, C);
                u = next;

                // Global residual: abs-max across ranks via the user
                // operator.
                let mut acc = [local_delta];
                comm.allreduce(&mut acc, &abs_max);
                residual = acc[0];
            }

            // Total heat is conserved up to boundary losses: a builtin-op
            // allreduce alongside the user-operator one.
            let local_heat: f64 = (1..=R)
                .flat_map(|r| (1..=C).map(move |c| (r, c)))
                .map(|(r, c)| u[idx(r, c, C)])
                .sum();
            let mut heat = [local_heat];
            comm.allreduce(&mut heat, ReduceOp::Sum);

            (u, residual, heat[0])
        })
        .expect("halo exchange ran");

    // Every rank's tile must reproduce the sequential oracle exactly —
    // identical arithmetic, identical order, so no tolerance.
    let (global, want_residual) = sequential_oracle();
    let width = PX * C;
    for (rank, (tile, residual, _)) in results.iter().enumerate() {
        let (cx, cy) = (rank % PX, rank / PX);
        for r in 1..=R {
            for c in 1..=C {
                let want = global[idx(cy * R + r, cx * C + c, width)];
                assert_eq!(
                    tile[idx(r, c, C)],
                    want,
                    "rank {rank} cell ({r},{c}) diverged from the oracle"
                );
            }
        }
        assert_eq!(
            *residual, want_residual,
            "rank {rank} disagrees with the oracle residual"
        );
    }
    let heat = results[0].2;
    for (_, _, h) in &results {
        assert!((h - heat).abs() < 1e-9, "ranks disagree on the total heat");
    }

    println!(
        "halo_exchange: {STEPS} steps of a {}x{} global grid on a {PX}x{PY} process grid",
        PY * R,
        PX * C
    );
    println!("final abs-max residual (user op, matches oracle): {want_residual:.6}");
    println!("total heat (minus boundary losses): {heat:.3}");
    // The reduced heat must equal the oracle's global sum (up to summation
    // order) and stay within the initial injection.
    let want_heat: f64 = global.iter().sum();
    assert!((heat - want_heat).abs() < 1e-6, "heat diverged from oracle");
    assert!(heat > 0.0 && heat <= 1000.0 + 1e-9);
}
