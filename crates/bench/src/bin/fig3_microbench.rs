//! Figure 3: micro-benchmarks of the sparse allreduce algorithms.
//!
//! Left plot: reduction time versus node count on a Piz-Daint-class
//! network (paper: N = 16M, d = 0.781%). Right plot: reduction time
//! versus density on a GigE-class network at P = 8 (paper: N = 16M).
//! Times are virtual α–β-model completion times of the *actually
//! executed* collectives on uniform random supports ("k indices out of N
//! are selected uniformly at random at each node", §8.1).
//!
//! Expected shape (paper): SSAR_Recursive_double wins at small data /
//! low P; SSAR_Split_allgather dominates DSAR while the result stays
//! sparse; DSAR's improvement over the dense baseline is bounded by a
//! constant at high fill.

use sparcml_bench::{fmt_time, header, print_row, BenchArgs};
use sparcml_core::{max_communicator_time, Algorithm};
use sparcml_net::CostModel;
use sparcml_stream::random_sparse;

fn reduction_time(algo: Algorithm, p: usize, n: usize, k: usize, cost: CostModel) -> f64 {
    max_communicator_time(p, cost, move |comm| {
        let input = random_sparse::<f32>(n, k, 1000 + comm.rank() as u64);
        comm.allreduce(&input)
            .algorithm(algo)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
    })
}

fn main() {
    let args = BenchArgs::parse();
    let n = args.dim(16 * 1024 * 1024);

    header(
        "Figure 3 (left)",
        &format!(
            "Reduction time vs node count, Aries-class network (Piz Daint), N = {n}, d = 0.781%.\n\
             Dense baseline: MPI-style allreduce (Rabenseifner)."
        ),
    );
    let k = ((n as f64) * 0.00781) as usize;
    let widths = vec![22usize, 10, 10, 10, 10, 10, 10];
    let mut head = vec!["algorithm \\ P".to_string()];
    let node_counts = [2usize, 4, 8, 16, 32];
    head.extend(node_counts.iter().map(|p| p.to_string()));
    print_row(&head, &widths);
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for algo in Algorithm::ALL {
        let mut times = Vec::new();
        for &p in &node_counts {
            times.push(reduction_time(algo, p, n, k, CostModel::aries()));
        }
        rows.push((algo.name().to_string(), times));
    }
    for (name, times) in &rows {
        let mut row = vec![name.clone()];
        row.extend(times.iter().map(|t| fmt_time(*t)));
        print_row(&row, &widths);
    }

    header(
        "Figure 3 (right)",
        &format!("Reduction time vs density, GigE-class network (Greina), N = {n}, P = 8."),
    );
    let densities = [0.0001f64, 0.001, 0.005, 0.01, 0.05, 0.10];
    let mut head = vec!["algorithm \\ d".to_string()];
    head.extend(densities.iter().map(|d| format!("{:.2}%", d * 100.0)));
    print_row(&head, &widths);
    for algo in Algorithm::ALL {
        let mut row = vec![algo.name().to_string()];
        for &d in &densities {
            let k = ((n as f64) * d).max(1.0) as usize;
            row.push(fmt_time(reduction_time(algo, 8, n, k, CostModel::gige())));
        }
        print_row(&row, &widths);
    }
    println!();
    println!(
        "(--scale {} of paper dims; run with --full for N = 16M)",
        args.scale
    );
}
