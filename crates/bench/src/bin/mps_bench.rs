//! `mps_bench` — matrix-product-state backend timings, recorded as
//! `BENCH_mps.json`.
//!
//! ```text
//! cargo run -p qns-bench --release --bin mps_bench \
//!     [-- --smoke] [-- --out PATH] [-- --check PATH]
//! ```
//!
//! Two sections:
//!
//! 1. `throughput_n{10,16,24}` — full-state evolution + all-qubit `<Z>`
//!    readout of a brickwork U3+CU3 candidate on the MPS backend
//!    (`max_bond` 32) vs. the fast state-vector kernels. The dense state
//!    is 16 MiB at n=20 and 256 MiB at n=24; the MPS never densifies, so
//!    the crossover past the dense memory wall is the headline.
//! 2. `truncation_bond{2,4,8,16,32}` — a `max_bond` sweep at 16 qubits:
//!    wall time, fidelity against the exact state, truncation events and
//!    discarded Schmidt weight per bond cap.
//!
//! `--smoke` shrinks both sections so CI can run the binary as a
//! build-and-run check without thresholds. `--check PATH` compares the
//! fresh `throughput_n16.mps_s` against a previously committed JSON and
//! exits non-zero on a >20% regression.

use qns_bench::{scoped_num, time_median, Json};
use qns_circuit::{Circuit, GateKind, Param};
use qns_sim::{
    mps_stats, reset_mps_stats, run_mps, run_with, ExecMode, MpsConfig, MpsState, SimBackend,
};

/// A brickwork candidate: per-layer U3 on every qubit, CU3 on even then
/// odd nearest-neighbor pairs, and one ring-closing CU3 that exercises
/// the MPS SWAP routing for non-adjacent operands.
fn brickwork(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n);
    let angle = |i: usize| Param::Fixed(0.3 * ((i % 11) as f64) - 1.2);
    let mut t = 0;
    for _ in 0..layers {
        for q in 0..n {
            c.push(GateKind::U3, &[q], &[angle(t), angle(t + 1), angle(t + 2)]);
            t += 3;
        }
        for start in [0usize, 1] {
            let mut q = start;
            while q + 1 < n {
                c.push(
                    GateKind::CU3,
                    &[q, q + 1],
                    &[angle(t), angle(t + 1), angle(t + 2)],
                );
                t += 3;
                q += 2;
            }
        }
        c.push(
            GateKind::CU3,
            &[0, n - 1],
            &[angle(t), angle(t + 1), angle(t + 2)],
        );
        t += 3;
    }
    c
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_mps.json".to_string());
    let check_path = flag("--check");
    let reps = if smoke { 1 } else { 5 };

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut json = Json::new();
    json.str("bench", "mps");
    json.str("mode", if smoke { "smoke" } else { "full" });
    json.int("cores", cores);

    // 1. Throughput vs the dense state vector. Layers shrink with width
    //    so the dense side stays affordable at 24 qubits.
    let sizes: &[(usize, usize)] = if smoke {
        &[(6, 1), (8, 1)]
    } else {
        &[(10, 2), (16, 2), (24, 1)]
    };
    let bench_config = MpsConfig {
        max_bond: 32,
        ..Default::default()
    };
    let mut n16_mps_s = f64::NAN;
    for &(n, layers) in sizes {
        let circuit = brickwork(n, layers);
        let mps_s = time_median(reps, || {
            let mut mps = MpsState::zero_state(n, bench_config);
            run_mps(&circuit, &[], &[], ExecMode::Static, &mut mps);
            assert_eq!(mps.expect_z_all().len(), n);
        });
        let dense_s = time_median(reps, || {
            let state = run_with(&circuit, &[], &[], ExecMode::Static, SimBackend::Fast);
            assert_eq!(state.expect_z_all().len(), n);
        });
        if n == 16 {
            n16_mps_s = mps_s;
        }
        println!(
            "throughput n={n} ({} gates): mps {:.3}ms dense {:.3}ms (dense/mps {:.2}x, dense state {} MiB)",
            circuit.num_ops(),
            mps_s * 1e3,
            dense_s * 1e3,
            dense_s / mps_s.max(1e-12),
            (1usize << n) * 16 / (1 << 20),
        );
        json.obj(&format!("throughput_n{n}"), |j| {
            j.int("qubits", n);
            j.int("gates", circuit.num_ops());
            j.int("max_bond", bench_config.max_bond);
            j.num("mps_s", mps_s);
            j.num("dense_s", dense_s);
            j.num("dense_over_mps", dense_s / mps_s.max(1e-12));
            j.int("dense_bytes", (1usize << n) * 16);
        });
    }

    // 2. Truncation sweep: accuracy-vs-bond at a width where the exact
    //    state is still densifiable for the fidelity reference.
    let (sweep_n, sweep_layers, bonds): (usize, usize, &[usize]) = if smoke {
        (8, 1, &[2, 4])
    } else {
        (16, 3, &[2, 4, 8, 16, 32])
    };
    let circuit = brickwork(sweep_n, sweep_layers);
    let exact = run_with(&circuit, &[], &[], ExecMode::Static, SimBackend::Fast);
    for &bond in bonds {
        let config = MpsConfig::with_max_bond(bond);
        reset_mps_stats();
        let mut mps = MpsState::zero_state(sweep_n, config);
        let trunc_s = time_median(reps, || {
            mps = MpsState::zero_state(sweep_n, config);
            run_mps(&circuit, &[], &[], ExecMode::Static, &mut mps);
        });
        let stats = mps_stats();
        let fidelity = exact.inner(&mps.to_statevec()).norm_sqr();
        println!(
            "truncation n={sweep_n} max_bond={bond}: {:.3}ms fidelity {fidelity:.6} \
             ({} truncations, {:.3e} weight dropped)",
            trunc_s * 1e3,
            stats.truncation_events,
            stats.truncated_weight_pico as f64 * 1e-12,
        );
        json.obj(&format!("truncation_bond{bond}"), |j| {
            j.int("qubits", sweep_n);
            j.int("max_bond", bond);
            j.num("mps_s", trunc_s);
            j.num("fidelity", fidelity);
            j.int("truncation_events", stats.truncation_events as usize);
            j.num(
                "truncated_weight",
                stats.truncated_weight_pico as f64 * 1e-12,
            );
        });
    }

    std::fs::write(&out_path, json.finish()).expect("write BENCH_mps.json");
    println!("\nwrote {out_path}");

    if let Some(path) = check_path {
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read committed baseline {path}: {e}"));
        let committed_s = scoped_num(&committed, "throughput_n16", "mps_s")
            .expect("committed baseline has throughput_n16.mps_s");
        let ratio = n16_mps_s / committed_s.max(1e-12);
        println!(
            "check vs {path}: committed n=16 {:.3}ms, fresh {:.3}ms ({ratio:.2}x)",
            committed_s * 1e3,
            n16_mps_s * 1e3,
        );
        if ratio > 1.2 {
            eprintln!("regression: n=16 MPS run is {ratio:.2}x the committed baseline (>1.20x)");
            std::process::exit(1);
        }
    }
}
