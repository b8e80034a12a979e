//! Writes the benchmark's base circuit pairs as AIGER files.
//!
//! Each pair is a generated design (`left`) and its `resyn2`-optimized
//! version (`right`), both enlarged with `double`, exactly as the Table II
//! harness builds its cases. Benchmark runs read only these files, so a
//! later change to the generators or the optimizer cannot change what the
//! benchmark measures.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml \
//!     --features gen --bin gen_inputs -- perfbench/inputs [NAME...]
//! ```

use parsweep_aig::{write_aiger_file, Aig};
use parsweep_bench::gen;
use parsweep_bench::harness::{suite, Scale};
use parsweep_synth::resyn2;

/// The engine workloads' pairs: `(name, design, doublings)`.
fn engine_pairs() -> Vec<(&'static str, Aig, usize)> {
    vec![
        // eq_local (voter41 also feeds neq_nearmiss)
        ("sqrt10_1xd", gen::gen_sqrt(10), 1),
        ("voter41_1xd", gen::gen_voter(41), 1),
        // eq_po
        ("log2_12_2xd", gen::gen_log2(12, 6), 2),
        ("sin12_2xd", gen::gen_sin(12), 2),
        ("square10_2xd", gen::gen_square(10), 2),
        ("ac97_16_2xd", gen::gen_bus_ctrl(16, 8, 0xac97), 2),
        ("vga_6_2xd", gen::gen_video_timing(9, 6, 0x60a), 2),
        // neq_nearmiss
        ("voter25_2xd", gen::gen_voter(25), 2),
    ]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args.next().unwrap_or_else(|| {
        eprintln!("usage: gen_inputs OUT_DIR [NAME...]");
        std::process::exit(64);
    });
    let only: Vec<String> = args.collect();
    let wanted = |name: &str| only.is_empty() || only.iter().any(|o| o == name);
    std::fs::create_dir_all(&dir).expect("output directory can be created");
    let mut pairs: Vec<(String, Aig, Aig)> = Vec::new();
    for (name, design, doublings) in engine_pairs() {
        if wanted(name) {
            let right = resyn2(&design).double_times(doublings);
            pairs.push((name.to_string(), design.double_times(doublings), right));
        }
    }
    // The Tiny suite feeds the service workload.
    if only.is_empty() || only.iter().any(|o| o.starts_with("tiny_")) {
        for case in suite(Scale::Tiny) {
            let name = format!("tiny_{}", case.name);
            if wanted(&name) || only.iter().any(|o| o == "tiny_all") {
                pairs.push((name, case.original, case.optimized));
            }
        }
    }
    for (name, left, right) in pairs {
        for (side, aig) in [("left", &left), ("right", &right)] {
            let path = format!("{dir}/{name}.{side}.aig");
            write_aiger_file(aig, &path).expect("input file can be written");
        }
        println!(
            "{name}: {} PIs, {} POs, left {} ANDs, right {} ANDs",
            left.num_pis(),
            left.num_pos(),
            left.num_ands(),
            right.num_ands()
        );
    }
}
