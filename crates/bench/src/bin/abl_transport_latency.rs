//! Ablation **ABL-TRANSPORT** (§1 motivation): intra-node transfer latency
//! of the four data-movement mechanisms (PiP, CMA, XPMEM, POSIX-SHMEM)
//! across message sizes, showing the system-call, page-fault and
//! double-copy overheads the paper's introduction discusses.
//!
//! ```text
//! cargo run --release -p pip-mcoll-bench --bin abl_transport_latency
//! ```

#![forbid(unsafe_code)]

use pip_transport::cost::{IntranodeCost, IntranodeMechanism};

fn main() {
    let sizes = [16usize, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576];
    println!("=== ABL-TRANSPORT: intra-node transfer latency (warm buffers, ns) ===\n");
    print!("| Bytes |");
    for mechanism in IntranodeMechanism::ALL {
        print!(" {} |", mechanism.name());
    }
    println!();
    print!("|---|");
    for _ in IntranodeMechanism::ALL {
        print!("---|");
    }
    println!();
    for &bytes in &sizes {
        print!("| {bytes} |");
        for mechanism in IntranodeMechanism::ALL {
            let cost = IntranodeCost::defaults_for(mechanism).transfer_cost(bytes, false);
            print!(" {cost:.0} |");
        }
        println!();
    }

    println!("\nCold-buffer latency (first use: attach + page faults, ns)\n");
    print!("| Bytes |");
    for mechanism in IntranodeMechanism::ALL {
        print!(" {} |", mechanism.name());
    }
    println!();
    print!("|---|");
    for _ in IntranodeMechanism::ALL {
        print!("---|");
    }
    println!();
    for &bytes in &[64usize, 4096, 65536] {
        print!("| {bytes} |");
        for mechanism in IntranodeMechanism::ALL {
            let cost = IntranodeCost::defaults_for(mechanism).transfer_cost(bytes, true);
            print!(" {cost:.0} |");
        }
        println!();
    }

    let pip = IntranodeCost::defaults_for(IntranodeMechanism::Pip);
    let cma = IntranodeCost::defaults_for(IntranodeMechanism::Cma);
    let shm = IntranodeCost::defaults_for(IntranodeMechanism::PosixShmem);
    println!(
        "\nAt 64 B, CMA pays {:.1}x PiP's latency (system call); at 1 MiB, POSIX-SHMEM pays {:.1}x (double copy).",
        cma.transfer_cost(64, false) / pip.transfer_cost(64, false),
        shm.transfer_cost(1 << 20, false) / pip.transfer_cost(1 << 20, false)
    );
}
