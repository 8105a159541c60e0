//! Ablation: the δ switching threshold (§5.1).
//!
//! The paper argues the volume-equality threshold `δ = N·isize/(c+isize)`
//! should be shrunk in practice because sparse summation costs more
//! compute than dense summation. This ablation sweeps the policy factor
//! and reports virtual completion times (bandwidth + γ-compute) of
//! `SSAR_Recursive_double` at a fill level near the switching point,
//! plus the never-densify extreme — quantifying how much the adaptive
//! switch actually buys.

use sparcml_bench::{fmt_time, header, print_row, BenchArgs};
use sparcml_core::{max_communicator_time, Algorithm};
use sparcml_net::CostModel;
use sparcml_stream::{random_sparse, DensityPolicy};

fn main() {
    let _args = BenchArgs::parse();
    header(
        "Ablation: δ switching policy (§5.1)",
        "SSAR_Recursive_double completion time vs density-policy factor, P = 16,\n\
         N = 2^18, per-rank density chosen so the reduction crosses δ mid-way.",
    );
    let p = 16;
    let n = 1 << 18;
    // k such that E[K] ≈ 0.75·N: heavy fill-in, the regime where the
    // switch matters.
    let k = n / 10;
    let factors = [
        ("0.25", DensityPolicy { factor: 0.25 }),
        ("0.5 (conservative)", DensityPolicy::conservative()),
        ("1.0 (volume-equal)", DensityPolicy::default()),
        ("never densify", DensityPolicy::never_densify()),
    ];
    let widths = vec![22usize, 14, 14];
    print_row(
        ["policy factor", "aries", "gige"]
            .map(String::from)
            .as_ref(),
        &widths,
    );
    for (name, policy) in factors {
        let mut row = vec![name.to_string()];
        for cost in [CostModel::aries(), CostModel::gige()] {
            let t = max_communicator_time(p, cost, |comm| {
                let input = random_sparse::<f32>(n, k, 2024 + comm.rank() as u64);
                comm.allreduce(&input)
                    .algorithm(Algorithm::SsarRecDbl)
                    .policy(policy)
                    .launch()
                    .and_then(|handle| handle.wait())
                    .unwrap();
            });
            row.push(fmt_time(t));
        }
        print_row(&row, &widths);
    }
    println!();
    println!(
        "expected shape: aggressive factors densify early and pay dense bandwidth\n\
         sooner. Never densifying pays merge compute on a nearly dense result but,\n\
         since the wire gap-codes indices, only 1.25x a word per pair (it was 2x):\n\
         on this shape it is now the fastest row, ahead of the in-memory\n\
         volume-equality default that δ deliberately still is (see the threshold\n\
         module docs of sparcml_stream)."
    );
}
