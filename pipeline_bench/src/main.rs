//! End-to-end and per-layer benchmark of the QuantumNAS pipeline.
//!
//! ```text
//! qnas-pipeline-bench --workload qml_noisy|vqe_lih_pareto|tfim12_mps \
//!     --seed N --seconds S --trace 0|1 [--instances K]
//! ```
//!
//! A run derives K problem instances from the seed. Set-up, once per
//! instance, builds the task, dataset, device and SuperCircuit and runs
//! `QuantumNas::run` as a warm-up; `setup_s` is the median over instances,
//! and each warm-up report is the reference its instance's repetitions
//! must reproduce bitwise. Each set-up is followed by one timed
//! repetition of the whole five-stage pipeline; then repetitions go
//! round-robin over the instances until S seconds have passed since the
//! start. Timings are medians over all repetitions and the quality gap is
//! the mean over the instances, so both host noise and seed-to-seed
//! differences in search outcome average out.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics: the stage split,
//! counter deltas, a replay of a fixed seeded candidate set through the
//! transpiler, estimators and proxy, and (on `vqe_lih_pareto`) one extra
//! repetition with checkpointing. Earlier lines give each metric's
//! median, quartiles and sample count and the host it ran on.

mod stats;
mod workload;

use qns_transpile::Layout;
use quantumnas::{
    compute_features, CheckpointOptions, EstimatorKind, Report, RuntimeOptions, Sampler,
    SamplerConfig, Task,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::{median, peak_rss_mb, Host, Summary};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{mismatch, quality_gap, rep, runtime_options, Bench, Rep, Workload};

/// Candidates in the per-layer replay set.
const REPLAY_CANDIDATES: usize = 12;
/// Timing passes over the replay set for the cheap transpile layer.
const TRANSPILE_PASSES: usize = 5;
/// Replay candidates scored on the exact density-matrix path, which costs
/// about a second per 6-qubit VQE score.
const DENSITY_CANDIDATES: usize = 3;

const USAGE: &str = "usage: qnas-pipeline-bench --workload qml_noisy|vqe_lih_pareto|tfim12_mps \
                     --seed N --seconds S --trace 0|1 [--instances K]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Problem instances per run (the workload's default unless given).
    instances: usize,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let name = need("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err("--seconds must be in [0, 600]".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let instances = match get("--instances") {
        None => workload.instances(),
        Some(k) => k
            .parse()
            .ok()
            .filter(|k| (1..=256).contains(k))
            .ok_or("--instances must be in [1, 256]")?,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        instances,
    })
}

/// One metric of the result line: its reported value and the summary of
/// the samples behind it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    summary: Summary,
}

impl Metric {
    /// A metric reported as the median of its samples.
    fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name,
            unit,
            value: summary.median,
            summary,
        }
    }

    /// A metric reported as `value`, with `samples` for its dispersion.
    fn with(name: &'static str, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: Summary::of(samples),
        }
    }

    fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::with(name, unit, value, &[value])
    }
}

/// A JSON number; non-finite values (which only a failed run produces)
/// print as 0 so the line stays parseable.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn print_result(host: &Host, args: &Args, correct: bool, tally: &Tally, metrics: &[Metric]) {
    println!(
        "{:<34} {:>6} {:>14} {:>14} {:>14} {:>14} {:>5}",
        "metric", "unit", "value", "median", "q1", "q3", "n"
    );
    for m in metrics {
        let s = m.summary;
        println!(
            "{:<34} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>5}",
            m.name, m.unit, m.value, s.median, s.q1, s.q3, s.n
        );
    }
    let detail: Vec<String> = metrics
        .iter()
        .map(|m| {
            let s = m.summary;
            format!(
                "\"{}\": {{\"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                m.name,
                num(m.value),
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            )
        })
        .collect();
    println!(
        "detail {{\"workload\": \"{}\", \"seed\": {}, \"instances\": {}, \"host\": {}, \"stats\": {{{}}}}}",
        args.workload.name(),
        args.seed,
        args.instances,
        host.json(),
        detail.join(", ")
    );
    println!(
        "correctness: {} ({} attempted, {} failed)",
        if correct { "pass" } else { "FAIL" },
        tally.attempted,
        tally.failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// One problem instance: the workload built at an instance seed, with
/// the report of its warm-up `QuantumNas::run` as correctness reference.
struct Instance {
    bench: Bench,
    reference: Report,
    gap: f64,
}

/// Instance seeds derived from the benchmark seed (splitmix64 steps).
fn instance_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Runs one repetition and applies the correctness gate: outputs bitwise
/// equal to the reference report, no isolated evaluation panics, a finite
/// quality gap, and (on the MPS workload) at least one truncation.
fn checked_rep(inst: &Instance, trace: bool, runtime: RuntimeOptions) -> Result<Rep, String> {
    let b = &inst.bench;
    let r = catch_unwind(AssertUnwindSafe(|| rep(b, trace, runtime)))
        .map_err(|_| "repetition panicked".to_string())?;
    if let Some(why) = mismatch(&r, &inst.reference) {
        return Err(why);
    }
    if r.counters.eval_panics > 0 {
        return Err(format!("{} evaluation panics", r.counters.eval_panics));
    }
    if !quality_gap(r.final_accuracy, r.final_energy, b.exact).is_finite() {
        return Err("quality gap is not finite".into());
    }
    if b.workload == Workload::Tfim12Mps && r.counters.mps_truncations == 0 {
        return Err("MPS backend stopped truncating".into());
    }
    Ok(r)
}

/// Tally of attempted and failed operations.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, outcome: Result<Rep, String>) -> Option<Rep> {
        self.attempted += 1;
        match outcome {
            Ok(r) => Some(r),
            Err(why) => {
                self.failed += 1;
                eprintln!("operation {} failed: {why}", self.attempted);
                None
            }
        }
    }
}

/// An instance's typical repetition: its lower-median one by wall time.
fn typical(reps: &[Rep]) -> Option<&Rep> {
    let mut order: Vec<&Rep> = reps.iter().collect();
    order.sort_by(|x, y| x.times.total.total_cmp(&y.times.total));
    order.get(order.len().checked_sub(1)? / 2).copied()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    qns_sim::set_parallelism(workload::WORKERS);
    let host = Host::detect(workload::WORKERS);

    // Set-up, once per instance: task, dataset, device, SuperCircuit, and
    // a warm-up `QuantumNas::run` whose report is the reference. Untraced
    // runs follow each set-up with one timed repetition of its instance,
    // so set-ups and repetitions both spread over the whole run and host
    // drift averages out of both.
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(args.instances);
    let mut instances = Vec::with_capacity(args.instances);
    let mut reps: Vec<Vec<Rep>> = Vec::with_capacity(args.instances);
    for seed in instance_seeds(args.seed, args.instances) {
        let t = Instant::now();
        let bench = Bench::build(args.workload, seed);
        let reference = bench.nas().run(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        let gap = quality_gap(
            reference.final_accuracy,
            reference.final_energy,
            bench.exact,
        );
        let inst = Instance {
            bench,
            reference,
            gap,
        };
        if !args.trace {
            let first = tally.record(checked_rep(&inst, false, runtime_options()));
            reps.push(first.into_iter().collect());
        }
        instances.push(inst);
    }
    let gaps: Vec<f64> = instances.iter().map(|i| i.gap).collect();
    let gaps_finite = gaps.iter().all(|g| g.is_finite());

    let metrics = if args.trace {
        traced(&args, &instances, &mut tally)
    } else {
        // Then round-robin until `--seconds` have passed since the start.
        let mut k = 0;
        while start.elapsed().as_secs_f64() < args.seconds {
            if let Some(r) = tally.record(checked_rep(&instances[k], false, runtime_options())) {
                reps[k].push(r);
            }
            k = (k + 1) % instances.len();
        }
        let all = reps.iter().flatten();
        let run_s: Vec<f64> = all.clone().map(|r| r.times.total).collect();
        let cands: Vec<f64> = all.map(|r| r.candidates as f64 / r.times.search).collect();
        vec![
            Metric::median("setup_s", "s", &setup_s),
            Metric::median("run_s", "s", &run_s),
            Metric::median("search_cands_per_s", "1/s", &cands),
            Metric::with("quality_gap", "ratio", mean(&gaps), &gaps),
            Metric::one("peak_rss_mb", "MiB", peak_rss_mb()),
        ]
    };
    let correct = gaps_finite && tally.failed == 0 && !metrics.is_empty();
    print_result(&host, &args, correct, &tally, &metrics);
}

/// The per-layer run: untraced and traced repetitions interleaved over the
/// instances for `--seconds`, then the checkpointing repetition and the
/// candidate replay on the first instance.
fn traced(args: &Args, instances: &[Instance], tally: &mut Tally) -> Vec<Metric> {
    // Pairs run for `--seconds` (at least one), not a full cycle, which
    // would take minutes on `tfim12_mps`; the layer metrics cover the
    // instances reached.
    let n = instances.len();
    let (mut untraced, mut traced): (Vec<Vec<Rep>>, Vec<Vec<Rep>>) =
        (vec![Vec::new(); n], vec![Vec::new(); n]);
    let start = Instant::now();
    let mut step = 0;
    while step == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let k = step % n;
        for (slot, trace) in [(&mut untraced, false), (&mut traced, true)] {
            if let Some(r) = tally.record(checked_rep(&instances[k], trace, runtime_options())) {
                slot[k].push(r);
            }
        }
        step += 1;
    }
    let reached = traced
        .iter()
        .zip(&untraced)
        .take_while(|(t, u)| !t.is_empty() && !u.is_empty())
        .count();
    if reached == 0 {
        return Vec::new();
    }
    traced.truncate(reached);
    untraced.truncate(reached);

    // Each instance's typical traced repetition; their mean stage split
    // adds up to the reported traced `run_s`.
    let typ: Vec<&Rep> = traced.iter().filter_map(|r| typical(r)).collect();
    let stage = |f: &dyn Fn(&Rep) -> f64| mean(&typ.iter().map(|r| f(r)).collect::<Vec<_>>());
    let untraced_typ: Vec<f64> = untraced
        .iter()
        .filter_map(|r| typical(r))
        .map(|r| r.times.total)
        .collect();
    let traced_run = stage(&|r| r.times.total);
    let untraced_run = mean(&untraced_typ);
    let all_traced: Vec<&Rep> = traced.iter().flatten().collect();
    let traced_total: Vec<f64> = all_traced.iter().map(|r| r.times.total).collect();
    let untraced_total: Vec<f64> = untraced.iter().flatten().map(|r| r.times.total).collect();

    let per_rep =
        |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { all_traced.iter().map(|r| f(r)).collect() };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut metrics = vec![
        Metric::one("stage.super_train_s", "s", stage(&|r| r.times.super_train)),
        Metric::one("stage.search_s", "s", stage(&|r| r.times.search)),
        Metric::one("stage.train_s", "s", stage(&|r| r.times.train)),
        Metric::one("stage.prune_s", "s", stage(&|r| r.times.prune)),
        Metric::one("stage.measure_s", "s", stage(&|r| r.times.measure)),
        Metric::one("stage.other_s", "s", stage(&|r| r.times.other())),
        Metric::with("trace.run_s", "s", traced_run, &traced_total),
        Metric::with("trace.untraced_run_s", "s", untraced_run, &untraced_total),
        Metric::one("trace.overhead_ratio", "ratio", traced_run / untraced_run),
        Metric::median(
            "runtime.evaluations",
            "count",
            &per_rep(&|r| r.counters.evaluations as f64),
        ),
        Metric::median(
            "runtime.memo_hits",
            "count",
            &per_rep(&|r| r.counters.memo_hits as f64),
        ),
        Metric::median(
            "runtime.memo_hit_ratio",
            "ratio",
            &per_rep(&|r| {
                let c = r.counters;
                ratio(c.memo_hits, c.memo_hits + c.evaluations)
            }),
        ),
        Metric::median(
            "runtime.transpile_misses",
            "count",
            &per_rep(&|r| r.counters.transpile_misses as f64),
        ),
        Metric::median(
            "runtime.transpile_hit_ratio",
            "ratio",
            &per_rep(&|r| {
                let c = r.counters;
                ratio(c.transpile_hits, c.transpile_hits + c.transpile_misses)
            }),
        ),
        Metric::median(
            "runtime.eval_panics",
            "count",
            &per_rep(&|r| r.counters.eval_panics as f64),
        ),
        Metric::median(
            "runtime.simulate_busy_s",
            "s",
            &per_rep(&|r| r.counters.search_simulate_busy),
        ),
        Metric::median(
            "runtime.busy_per_wall",
            "ratio",
            &per_rep(&|r| r.counters.search_simulate_busy / r.times.search),
        ),
        Metric::median(
            "mps.truncations",
            "count",
            &per_rep(&|r| r.counters.mps_truncations as f64),
        ),
        Metric::median(
            "mps.trunc_weight_pico",
            "count",
            &per_rep(&|r| r.counters.mps_trunc_weight_pico as f64),
        ),
        Metric::median(
            "mps.max_bond",
            "count",
            &per_rep(&|r| r.counters.mps_max_bond as f64),
        ),
        Metric::median(
            "proxy.evals",
            "count",
            &per_rep(&|r| r.counters.proxy_evals as f64),
        ),
        Metric::median(
            "proxy.escalations",
            "count",
            &per_rep(&|r| r.counters.proxy_escalations as f64),
        ),
        Metric::median(
            "proxy.escalation_ratio",
            "ratio",
            &per_rep(&|r| ratio(r.counters.proxy_escalations, r.counters.proxy_evals)),
        ),
        Metric::median(
            "proxy.dedup_hits",
            "count",
            &per_rep(&|r| r.counters.proxy_dedup_hits as f64),
        ),
        Metric::median(
            "pareto.generations",
            "count",
            &per_rep(&|r| r.counters.pareto_generations as f64),
        ),
        Metric::median(
            "pareto.front_sum",
            "count",
            &per_rep(&|r| r.counters.pareto_front_sum as f64),
        ),
        Metric::median(
            "pareto.hv_sum_milli",
            "count",
            &per_rep(&|r| r.counters.pareto_hv_sum_milli as f64),
        ),
    ];
    let first = &instances[0];
    metrics.extend(checkpoint_rep(first, &untraced[0], tally));
    let shared = &traced[0][0].shared_params;
    tally.attempted += 1;
    match catch_unwind(AssertUnwindSafe(|| replay(&first.bench, shared))) {
        Ok(Ok(m)) => metrics.extend(m),
        Ok(Err(why)) => {
            tally.failed += 1;
            eprintln!("candidate replay failed: {why}");
        }
        Err(_) => {
            tally.failed += 1;
            eprintln!("candidate replay panicked");
        }
    }
    metrics
}

/// One extra repetition of `vqe_lih_pareto`'s first instance with a
/// snapshot after every loop unit, into a directory under the working
/// directory; its stage times are compared with the same instance's
/// untraced repetitions. Zero on the other workloads.
fn checkpoint_rep(inst: &Instance, untraced: &[Rep], tally: &mut Tally) -> Vec<Metric> {
    let b = &inst.bench;
    let (mut writes, mut bytes, mut d_super, mut d_search, mut d_run) = (0.0, 0.0, 0.0, 0.0, 0.0);
    if b.workload == Workload::VqeLihPareto {
        let dir = PathBuf::from(".bench_tmp").join(format!("ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runtime = RuntimeOptions {
            checkpoint: Some(CheckpointOptions::new(&dir)),
            ..runtime_options()
        };
        if let Some(r) = tally.record(checked_rep(inst, true, runtime)) {
            let med = |f: &dyn Fn(&Rep) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
            writes = r.counters.checkpoint_writes as f64;
            bytes = snapshot_bytes_per_write(&dir);
            d_super = r.times.super_train - med(&|u| u.times.super_train);
            d_search = r.times.search - med(&|u| u.times.search);
            d_run = r.times.total - med(&|u| u.times.total);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
    vec![
        Metric::one("checkpoint.writes", "count", writes),
        Metric::one("checkpoint.bytes_per_write", "bytes", bytes),
        Metric::one("checkpoint.super_train_delta_s", "s", d_super),
        Metric::one("checkpoint.search_delta_s", "s", d_search),
        Metric::one("checkpoint.run_delta_s", "s", d_run),
    ]
}

/// Mean snapshot size, estimated from the files rotation retained: each
/// snapshot kind's mean retained size, weighted by its write count (the
/// highest sequence number in a fresh directory).
fn snapshot_bytes_per_write(dir: &Path) -> f64 {
    use std::collections::BTreeMap;
    let mut kinds: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new(); // bytes, files, max seq
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some((label, rest)) = name.rsplit_once('-') else {
            continue;
        };
        let Some(seq) = rest.split('.').next().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let size = entry.metadata().map_or(0, |m| m.len());
        let k = kinds.entry(label.to_string()).or_default();
        k.0 += size;
        k.1 += 1;
        k.2 = k.2.max(seq);
    }
    let writes: u64 = kinds.values().map(|k| k.2).sum();
    if writes == 0 {
        return 0.0;
    }
    let total: f64 = kinds
        .values()
        .map(|&(bytes, files, seq)| bytes as f64 / files as f64 * seq as f64)
        .sum();
    total / writes as f64
}

/// Replays a fixed seeded candidate set — sampler architectures with
/// seeded random layouts, scored with the inherited SuperCircuit
/// parameters — through each layer on the calling thread, as one search
/// worker scores them.
fn replay(b: &Bench, shared: &[f64]) -> Result<Vec<Metric>, String> {
    let sc = b.nas().supercircuit();
    let mut sampler = Sampler::new(
        &sc,
        SamplerConfig {
            progressive: false,
            seed: b.seed ^ 0xB5E7,
            ..SamplerConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(b.seed ^ 0x1A70);
    let n = b.task.num_qubits();
    let candidates: Vec<_> = (0..REPLAY_CANDIDATES)
        .map(|_| {
            let config = sampler.next_config();
            let circuit = match &b.task {
                Task::Qml { encoder, .. } => sc.build(&config, Some(encoder)),
                Task::Vqe { .. } => sc.build(&config, None),
            };
            (circuit, Layout::random(n, &b.device, &mut rng))
        })
        .collect();
    let count = candidates.len() as f64;

    qns_sim::sequential_scope(|| {
        let mut passes = Vec::with_capacity(TRANSPILE_PASSES);
        let (mut swaps, mut cx) = (0usize, 0usize);
        for _ in 0..TRANSPILE_PASSES {
            let t = Instant::now();
            let (mut s, mut c) = (0, 0);
            for (circuit, layout) in &candidates {
                let out = black_box(qns_transpile::transpile(
                    circuit,
                    &b.device,
                    layout,
                    b.config.opt_level,
                ));
                s += out.swaps_inserted;
                c += out.circuit.count_2q();
            }
            passes.push(t.elapsed().as_secs_f64() * 1e3 / count);
            (swaps, cx) = (s, c);
        }

        let ms_per_score = |kind: EstimatorKind, n: usize| -> Result<f64, String> {
            let est = b.plain_estimator(kind);
            let t = Instant::now();
            for (circuit, layout) in &candidates[..n] {
                let score = black_box(est.score(circuit, shared, &b.task, layout));
                if !score.is_finite() {
                    return Err(format!("{kind:?} score is not finite"));
                }
            }
            Ok(t.elapsed().as_secs_f64() * 1e3 / n as f64)
        };
        let noiseless = ms_per_score(EstimatorKind::Noiseless, candidates.len())?;
        let noisy = ms_per_score(b.config.estimator, candidates.len())?;
        let density = if b.workload.density_fits() {
            ms_per_score(EstimatorKind::DensitySim, DENSITY_CANDIDATES)?
        } else {
            0.0
        };
        let features = if b.config.evo.proxy.enabled {
            let est = b.plain_estimator(b.config.estimator);
            let t = Instant::now();
            for (i, (circuit, layout)) in candidates.iter().enumerate() {
                let cx = est.proxy_context(circuit, layout.as_slice(), b.seed ^ i as u64);
                black_box(compute_features(&cx));
            }
            t.elapsed().as_secs_f64() * 1e3 / count
        } else {
            0.0
        };
        Ok(vec![
            Metric::median("transpile.ms_per_call", "ms", &passes),
            Metric::one("transpile.swaps_per_circuit", "count", swaps as f64 / count),
            Metric::one("transpile.cx_per_circuit", "count", cx as f64 / count),
            Metric::one("estimator.noiseless_ms_per_score", "ms", noiseless),
            Metric::one("estimator.noisy_ms_per_score", "ms", noisy),
            Metric::one("noise.overhead_ms_per_score", "ms", noisy - noiseless),
            Metric::one("estimator.density_ms_per_score", "ms", density),
            Metric::one("proxy.ms_per_features", "ms", features),
        ])
    })
}
