//! `batch_bench` — timings for the batched multi-state engine, recorded
//! as `BENCH_batch.json`.
//!
//! ```text
//! cargo run -p qns-bench --release --bin batch_bench \
//!     [-- --smoke] [-- --out PATH] [-- --check PATH]
//! ```
//!
//! Two sections, each per-sample-vs-batched:
//!
//! 1. `forward` — minibatch inference: `parallel_map` over per-sample
//!    plan replays vs. one `replay_batch_into` sweep per minibatch.
//! 2. `epoch` — a QML training epoch (forward + adjoint gradient) at
//!    10 qubits, batch 32: the old per-sample `qml_sample_grad` shape
//!    under `parallel_map` vs. `adjoint_gradient_batch`. The acceptance
//!    target is ≥2× here.
//!
//! `--smoke` shrinks both sections to a single cheap iteration so CI can
//! run the binary as a build-and-run check without thresholds.
//! `--check PATH` compares the fresh `epoch.batched_s` against a
//! previously committed JSON and exits non-zero on a >20% regression.

use qns_bench::{scoped_num, time_median, Json};
use qns_circuit::{Circuit, GateKind, Param};
use qns_ml::{cross_entropy_grad, nll_loss};
use qns_sim::{
    adjoint_gradient, adjoint_gradient_batch, parallel_map, run, DiagObservable, ExecMode, SimPlan,
    StateBatch, StateVec, DEFAULT_BATCH_LANES, DEFAULT_FUSION_LEVEL,
};
use quantumnas::Readout;
use std::cell::RefCell;

/// A QML-style benchmark candidate: an input-encoding layer (RY + affine
/// RZ per qubit) followed by `layers` of U3 rotations and a CU3
/// entangling ring — the SuperCircuit U3+CU3 design space shape.
fn qml_circuit(n: usize, layers: usize) -> (Circuit, Vec<f64>) {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push(GateKind::RY, &[q], &[Param::Input(q)]);
        c.push(
            GateKind::RZ,
            &[q],
            &[Param::AffineInput {
                index: q,
                scale: 0.5,
                offset: 0.1,
            }],
        );
    }
    let mut t = 0;
    for _ in 0..layers {
        for q in 0..n {
            c.push(
                GateKind::U3,
                &[q],
                &[Param::Train(t), Param::Train(t + 1), Param::Train(t + 2)],
            );
            t += 3;
        }
        for q in 0..n {
            c.push(
                GateKind::CU3,
                &[q, (q + 1) % n],
                &[Param::Train(t), Param::Train(t + 1), Param::Train(t + 2)],
            );
            t += 3;
        }
    }
    let params = (0..t).map(|i| 0.1 * (i as f64 % 7.0) - 0.3).collect();
    (c, params)
}

/// Deterministic sample features (angles) and labels.
fn dataset(n_samples: usize, dim: usize, classes: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let features = (0..n_samples)
        .map(|s| {
            (0..dim)
                .map(|q| 0.3 * ((s * dim + q) as f64 % 11.0) - 1.2)
                .collect()
        })
        .collect();
    let labels = (0..n_samples).map(|s| s % classes).collect();
    (features, labels)
}

/// One sample of the pre-batching training shape: a Static forward for
/// the loss weights, then `adjoint_gradient` (which runs its own
/// forward) — kept verbatim as the per-sample baseline.
fn sample_grad_baseline(
    circuit: &Circuit,
    params: &[f64],
    input: &[f64],
    label: usize,
    readout: &Readout,
) -> (f64, Vec<f64>) {
    let state = run(circuit, params, input, ExecMode::Static);
    let logits = readout.logits(&state.expect_z_all());
    let loss = nll_loss(&logits, label);
    let dlogits = cross_entropy_grad(&logits, label);
    let weights = readout.weights_from_logit_grad(&dlogits);
    let obs = DiagObservable::new(weights);
    let (_, grad) = adjoint_gradient(circuit, params, input, &obs);
    (loss, grad)
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
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_batch.json".to_string());
    let check_path = flag("--check");
    let reps = if smoke { 1 } else { 9 };

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut json = Json::new();
    json.str("bench", "batch");
    json.str("mode", if smoke { "smoke" } else { "full" });
    json.int("cores", cores);

    let (n, layers, n_samples) = if smoke { (6, 1, 16) } else { (10, 3, 128) };
    let batch_size = 32.min(n_samples);
    let classes = 4;
    let (circuit, params) = qml_circuit(n, layers);
    let (features, labels) = dataset(n_samples, n, classes);
    let readout = Readout::per_qubit(classes, n);

    // 1. Forward-only minibatch inference.
    let plan = SimPlan::compile(&circuit, DEFAULT_FUSION_LEVEL);
    let base = plan.materialize(&circuit, &params, &features[0]);
    // Both paths reuse per-worker scratch state across chunks and reps
    // (replay resets it), as a real inference loop would: the comparison
    // is gate throughput, not allocator throughput.
    thread_local! {
        static VEC_SCRATCH: RefCell<Option<StateVec>> = const { RefCell::new(None) };
        static BATCH_SCRATCH: RefCell<Option<StateBatch>> = const { RefCell::new(None) };
    }
    let per_sample_fwd = time_median(reps, || {
        let logits: Vec<Vec<f64>> = parallel_map(&features, |input| {
            VEC_SCRATCH.with(|cell| {
                let mut slot = cell.borrow_mut();
                let state = match slot.as_mut() {
                    Some(s) if s.num_qubits() == n => s,
                    _ => slot.insert(StateVec::zero_state(n)),
                };
                plan.replay_input_into(&circuit, &base, &params, input, state);
                readout.logits(&state.expect_z_all())
            })
        });
        assert_eq!(logits.len(), n_samples);
    });
    let batched_fwd = time_median(reps, || {
        let chunks: Vec<&[Vec<f64>]> = features.chunks(DEFAULT_BATCH_LANES).collect();
        let logits: Vec<Vec<f64>> = parallel_map(&chunks, |chunk| {
            let inputs: Vec<&[f64]> = chunk.iter().map(|s| s.as_slice()).collect();
            BATCH_SCRATCH.with(|cell| {
                let mut slot = cell.borrow_mut();
                let batch = match slot.as_mut() {
                    Some(b) if b.num_qubits() == n && b.lanes() == inputs.len() => b,
                    _ => slot.insert(StateBatch::zero_state(n, inputs.len())),
                };
                plan.replay_batch_into(&circuit, &base, &params, &inputs, batch);
                batch
                    .expect_z_all_lanes()
                    .iter()
                    .map(|ez| readout.logits(ez))
                    .collect::<Vec<Vec<f64>>>()
            })
        })
        .into_iter()
        .flatten()
        .collect();
        assert_eq!(logits.len(), n_samples);
    });
    println!(
        "forward (n={n}, {} samples): per-sample {:.3}ms batched {:.3}ms ({:.2}x)",
        n_samples,
        per_sample_fwd * 1e3,
        batched_fwd * 1e3,
        per_sample_fwd / batched_fwd.max(1e-12),
    );
    json.obj("forward", |j| {
        j.int("qubits", n);
        j.int("samples", n_samples);
        j.int("gates", circuit.num_ops());
        j.num("per_sample_s", per_sample_fwd);
        j.num("batched_s", batched_fwd);
        j.num("speedup", per_sample_fwd / batched_fwd.max(1e-12));
    });

    // 2. Training epoch: forward + adjoint gradient over every minibatch.
    let minibatches: Vec<Vec<usize>> = (0..n_samples)
        .collect::<Vec<usize>>()
        .chunks(batch_size)
        .map(<[usize]>::to_vec)
        .collect();
    let epoch_per_sample = time_median(reps, || {
        for batch in &minibatches {
            let per_sample: Vec<(f64, Vec<f64>)> = parallel_map(batch, |&i| {
                sample_grad_baseline(&circuit, &params, &features[i], labels[i], &readout)
            });
            let mut grad = vec![0.0; circuit.num_train_params()];
            for (_, g) in &per_sample {
                for (acc, gi) in grad.iter_mut().zip(g) {
                    *acc += gi;
                }
            }
        }
    });
    let epoch_batched = time_median(reps, || {
        for batch in &minibatches {
            let chunks: Vec<&[usize]> = batch.chunks(DEFAULT_BATCH_LANES).collect();
            let partials = parallel_map(&chunks, |chunk| {
                let inputs: Vec<&[f64]> = chunk.iter().map(|&i| features[i].as_slice()).collect();
                adjoint_gradient_batch(&circuit, &params, &inputs, |lane, ez| {
                    let logits = readout.logits(ez);
                    let loss = nll_loss(&logits, labels[chunk[lane]]);
                    let dlogits = cross_entropy_grad(&logits, labels[chunk[lane]]);
                    (loss, readout.weights_from_logit_grad(&dlogits))
                })
            });
            let mut grad = vec![0.0; circuit.num_train_params()];
            for (_, g) in &partials {
                for (acc, gi) in grad.iter_mut().zip(g) {
                    *acc += gi;
                }
            }
        }
    });
    let speedup = epoch_per_sample / epoch_batched.max(1e-12);
    println!(
        "epoch (n={n}, batch {batch_size}, {} samples, {} params): \
         per-sample {:.3}ms batched {:.3}ms ({speedup:.2}x)",
        n_samples,
        circuit.num_train_params(),
        epoch_per_sample * 1e3,
        epoch_batched * 1e3,
    );
    json.obj("epoch", |j| {
        j.int("qubits", n);
        j.int("batch", batch_size);
        j.int("samples", n_samples);
        j.int("gates", circuit.num_ops());
        j.int("params", circuit.num_train_params());
        j.num("per_sample_s", epoch_per_sample);
        j.num("batched_s", epoch_batched);
        j.num("speedup", speedup);
    });

    std::fs::write(&out_path, json.finish()).expect("write BENCH_batch.json");
    println!("\nwrote {out_path}");

    if let Some(path) = check_path {
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read committed baseline {path}: {e}"));
        let committed_s = scoped_num(&committed, "epoch", "batched_s")
            .expect("committed baseline has epoch.batched_s");
        let ratio = epoch_batched / committed_s.max(1e-12);
        println!(
            "check vs {path}: committed epoch {:.3}ms, fresh {:.3}ms ({ratio:.2}x)",
            committed_s * 1e3,
            epoch_batched * 1e3,
        );
        if ratio > 1.2 {
            eprintln!("regression: batched epoch is {ratio:.2}x the committed baseline (>1.20x)");
            std::process::exit(1);
        }
    }

    // The acceptance comparison is serial-core: on multi-core hosts the
    // per-sample baseline fans out over all cores via `parallel_map` while
    // the batched path has only one chunk per minibatch to parallelize, so
    // the kernel-level speedup is only well-defined at one worker.
    if !smoke && cores == 1 {
        assert!(
            speedup >= 2.0,
            "acceptance: batched epoch speedup {speedup:.2}x is below the 2x target"
        );
    }
}
