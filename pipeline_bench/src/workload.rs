//! The three benchmark workloads and one pipeline repetition, driven
//! through the program's public stage functions in `QuantumNas::run`'s
//! order so each stage can be timed on its own.

use qns_chem::{Molecule, PauliString, PauliSum};
use qns_noise::Device;
use qns_runtime::{counters, timers, Metrics};
use qns_sim::{MpsConfig, SimBackend};
use quantumnas::{
    eval_task, evolutionary_search_pareto_rt, evolutionary_search_seeded_rt, iterative_prune_rt,
    train_supercircuit_rt, train_task, Estimator, Gene, Objective, ProxyOptions, QuantumNas,
    QuantumNasConfig, Report, RuntimeOptions, SearchRuntime, SpaceKind, Split, SuperCircuit, Task,
    TrainConfig,
};
use std::time::Instant;

/// Worker threads for every stage: no more than the two cores of the
/// reference host, and fixed so results compare across hosts.
pub const WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QmlNoisy,
    VqeLihPareto,
    Tfim12Mps,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "qml_noisy" => Some(Workload::QmlNoisy),
            "vqe_lih_pareto" => Some(Workload::VqeLihPareto),
            "tfim12_mps" => Some(Workload::Tfim12Mps),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::QmlNoisy => "qml_noisy",
            Workload::VqeLihPareto => "vqe_lih_pareto",
            Workload::Tfim12Mps => "tfim12_mps",
        }
    }

    /// Problem instances per run. Search outcome, and with it run time
    /// and quality, varies from seed to seed (the VQE energy gap most), so
    /// each run averages over several seeds. Each instance costs a set-up
    /// and a repetition; the 2 s TFIM pipeline affords the fewest, and
    /// fewer than 10 leave its quality gap spread too wide over seeds.
    pub fn instances(self) -> usize {
        match self {
            Workload::QmlNoisy => 16,
            Workload::VqeLihPareto => 32,
            Workload::Tfim12Mps => 10,
        }
    }

    /// Whether the exact density-matrix estimator fits this workload's
    /// width (`4^n` memory rules out the 12-qubit TFIM).
    pub fn density_fits(self) -> bool {
        self != Workload::Tfim12Mps
    }
}

/// Everything one workload needs, built from the benchmark seed.
#[derive(Clone, Debug)]
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub device: Device,
    pub task: Task,
    pub config: QuantumNasConfig,
    /// Exact ground-state energy of a VQE task (`None` for QML).
    pub exact: Option<f64>,
}

/// A 12-qubit transverse-field Ising chain, `H = -Σ Z_q Z_{q+1} - 0.7 Σ X_q`,
/// wide enough that `max_bond = 4` truncates.
fn tfim_12() -> Task {
    let n = 12usize;
    let mut h = PauliSum::new(n);
    for q in 0..n - 1 {
        h.add(
            -1.0,
            PauliString {
                x: 0,
                z: (1 << q) | (1 << (q + 1)),
            },
        );
    }
    for q in 0..n {
        h.add(-0.7, PauliString::x_on(q));
    }
    Task::Vqe {
        name: "tfim12".to_string(),
        hamiltonian: h,
        n_qubits: n,
    }
}

impl Bench {
    /// Builds the task (and its dataset), device and configuration.
    pub fn build(workload: Workload, seed: u64) -> Bench {
        let (device, task, mut config) = match workload {
            Workload::QmlNoisy => (
                Device::yorktown(),
                Task::qml_digits(&[0, 1, 2, 3], 150, 4, seed),
                QuantumNasConfig::fast(),
            ),
            Workload::VqeLihPareto => {
                // The fast preset with the overrides `qnas run` applies to
                // VQE tasks.
                let mut config = QuantumNasConfig::fast();
                config.train = TrainConfig {
                    epochs: 250,
                    lr: 0.05,
                    ..Default::default()
                };
                config.prune = None;
                config.objectives = Some(vec![Objective::Loss, Objective::Depth, Objective::TwoQ]);
                config.evo.proxy = ProxyOptions {
                    enabled: true,
                    ..ProxyOptions::default()
                };
                (Device::jakarta(), Task::vqe(&Molecule::lih()), config)
            }
            Workload::Tfim12Mps => {
                // Half the fast preset's search generations, and its own
                // 25-step final training rather than the 250 steps `qnas
                // run` gives VQE: the MPS pipeline swings most with host
                // load, so a run needs more and shorter repetitions than
                // 4.6 s ones (about 2 s here).
                let mut config = QuantumNasConfig::fast();
                config.prune = None;
                config.evo.iterations = 4;
                config.backend = SimBackend::Mps(MpsConfig {
                    max_bond: 4,
                    ..Default::default()
                });
                (Device::guadalupe(), tfim_12(), config)
            }
        };
        config.runtime = runtime_options();
        let exact = match &task {
            Task::Vqe {
                hamiltonian,
                n_qubits,
                ..
            } => Some(qns_chem::ground_state_energy(hamiltonian, *n_qubits)),
            Task::Qml { .. } => None,
        };
        Bench {
            workload,
            seed,
            device,
            task,
            config,
            exact,
        }
    }

    pub fn nas(&self) -> QuantumNas {
        QuantumNas::new(
            SpaceKind::U3Cu3,
            self.device.clone(),
            self.task.clone(),
            self.config.clone(),
        )
    }

    /// The search-stage estimator, wired into `rt` as `QuantumNas::run`
    /// wires it.
    pub fn estimator(&self, rt: &SearchRuntime) -> Estimator {
        rt.instrument_estimator(&self.plain_estimator(self.config.estimator))
    }

    /// An estimator of `kind` on this workload's device and backend, with
    /// no runtime attached (every score compiles afresh).
    pub fn plain_estimator(&self, kind: quantumnas::EstimatorKind) -> Estimator {
        Estimator::new(self.device.clone(), kind, self.config.opt_level)
            .with_backend(self.config.backend)
            .with_valid_cap(12)
    }
}

/// Runtime options for every stage: fixed workers, caches on.
pub fn runtime_options() -> RuntimeOptions {
    RuntimeOptions {
        workers: WORKERS,
        ..RuntimeOptions::default()
    }
}

/// Wall time of each pipeline stage of one repetition, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub super_train: f64,
    pub search: f64,
    pub train: f64,
    pub prune: f64,
    pub measure: f64,
    pub total: f64,
}

impl StageTimes {
    /// Time outside the five named stages (runtime and estimator set-up,
    /// circuit builds).
    pub fn other(&self) -> f64 {
        self.total - (self.super_train + self.search + self.train + self.prune + self.measure)
    }
}

/// Per-repetition deltas of the program's own counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub evaluations: u64,
    pub memo_hits: u64,
    pub transpile_hits: u64,
    pub transpile_misses: u64,
    pub eval_panics: u64,
    /// Thread-summed simulate time inside the search stage, in seconds
    /// (read by traced repetitions only).
    pub search_simulate_busy: f64,
    pub proxy_evals: u64,
    pub proxy_escalations: u64,
    pub proxy_dedup_hits: u64,
    pub pareto_generations: u64,
    pub pareto_front_sum: u64,
    pub pareto_hv_sum_milli: u64,
    pub checkpoint_writes: u64,
    pub mps_truncations: u64,
    pub mps_trunc_weight_pico: u64,
    /// High-water mark of the bond dimension after the repetition.
    pub mps_max_bond: u64,
}

/// The outcome of one repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    pub gene: Gene,
    pub search_score: f64,
    pub trained_loss: f64,
    pub accuracy_before_prune: f64,
    pub final_accuracy: f64,
    pub final_energy: f64,
    pub final_params: Vec<f64>,
    /// Search budget: evaluations plus memo hits.
    pub candidates: usize,
    pub shared_params: Vec<f64>,
    pub times: StageTimes,
    /// Counter deltas over the repetition.
    pub counters: Counters,
}

fn counter_snapshot(m: &Metrics) -> Counters {
    let mps = qns_sim::mps_stats();
    Counters {
        evaluations: m.counter(counters::EVALUATIONS),
        memo_hits: m.counter(counters::MEMO_HITS),
        transpile_hits: m.counter(counters::TRANSPILE_HITS),
        transpile_misses: m.counter(counters::TRANSPILE_MISSES),
        eval_panics: m.counter(counters::PANICS),
        search_simulate_busy: 0.0,
        proxy_evals: m.counter(counters::PROXY_EVALS),
        proxy_escalations: m.counter(counters::PROXY_ESCALATIONS),
        proxy_dedup_hits: m.counter(counters::PROXY_DEDUP_HITS),
        pareto_generations: m.counter(counters::PARETO_GENERATIONS),
        pareto_front_sum: m.counter(counters::PARETO_FRONT_SUM),
        pareto_hv_sum_milli: m.counter(counters::PARETO_HV_SUM_MILLI),
        checkpoint_writes: m.counter(counters::CHECKPOINT_WRITES),
        mps_truncations: mps.truncation_events,
        mps_trunc_weight_pico: mps.truncated_weight_pico,
        mps_max_bond: mps.max_bond_seen,
    }
}

fn delta(after: &Counters, before: &Counters) -> Counters {
    Counters {
        evaluations: after.evaluations - before.evaluations,
        memo_hits: after.memo_hits - before.memo_hits,
        transpile_hits: after.transpile_hits - before.transpile_hits,
        transpile_misses: after.transpile_misses - before.transpile_misses,
        eval_panics: after.eval_panics - before.eval_panics,
        search_simulate_busy: 0.0,
        proxy_evals: after.proxy_evals - before.proxy_evals,
        proxy_escalations: after.proxy_escalations - before.proxy_escalations,
        proxy_dedup_hits: after.proxy_dedup_hits - before.proxy_dedup_hits,
        pareto_generations: after.pareto_generations - before.pareto_generations,
        pareto_front_sum: after.pareto_front_sum - before.pareto_front_sum,
        pareto_hv_sum_milli: after.pareto_hv_sum_milli - before.pareto_hv_sum_milli,
        checkpoint_writes: after.checkpoint_writes - before.checkpoint_writes,
        mps_truncations: after.mps_truncations - before.mps_truncations,
        mps_trunc_weight_pico: after.mps_trunc_weight_pico - before.mps_trunc_weight_pico,
        mps_max_bond: after.mps_max_bond,
    }
}

/// One full five-stage pipeline repetition at the benchmark seed, on a
/// fresh runtime (so no cache carries over between repetitions).
///
/// The runtime counters and the process-wide MPS statistics are read as
/// before/after deltas (the MPS statistics are never reset); the reads sit
/// outside the timed stages. Traced repetitions also read the simulate
/// timer around the search stage. `runtime` overrides the workload's runtime options (used for
/// the checkpointing repetition).
pub fn rep(b: &Bench, trace: bool, runtime: RuntimeOptions) -> Rep {
    let seed = b.seed;
    let cfg = &b.config;
    let start = Instant::now();
    let rt = SearchRuntime::new(runtime.clone());
    let before = counter_snapshot(rt.metrics());
    let sc: SuperCircuit = b.nas().supercircuit();

    // Stage 1: SuperCircuit training.
    let t = Instant::now();
    let mut super_cfg = cfg.super_train;
    super_cfg.seed = seed;
    let (shared, _) = train_supercircuit_rt(&sc, &b.task, &super_cfg, &rt);
    let super_train = t.elapsed().as_secs_f64();

    // Stage 2: co-search.
    let estimator = b.estimator(&rt);
    let mut evo = cfg.evo.clone();
    evo.seed = seed ^ 0x5EA7C;
    evo.runtime = runtime;
    let busy_before = trace.then(|| {
        rt.metrics()
            .histogram(timers::SIMULATE)
            .total()
            .as_secs_f64()
    });
    let t = Instant::now();
    let search = match &cfg.objectives {
        Some(objectives) => evolutionary_search_pareto_rt(
            &sc,
            &shared,
            &b.task,
            &estimator,
            &evo,
            objectives,
            &[],
            &rt,
        )
        .into_search_result(),
        None => evolutionary_search_seeded_rt(&sc, &shared, &b.task, &estimator, &evo, &[], &rt),
    };
    let search_s = t.elapsed().as_secs_f64();
    let busy = busy_before.map(|b0| {
        rt.metrics()
            .histogram(timers::SIMULATE)
            .total()
            .as_secs_f64()
            - b0
    });

    // Stage 3: from-scratch training of the searched SubCircuit.
    let circuit = match &b.task {
        Task::Qml { encoder, .. } => sc.build(&search.best.config, Some(encoder)),
        Task::Vqe { .. } => sc.build(&search.best.config, None),
    };
    let t = Instant::now();
    let mut train_cfg = cfg.train;
    train_cfg.seed = seed ^ 0x7A11;
    let (params, _) = train_task(&circuit, &b.task, &train_cfg, None);
    let (trained_loss, _) = eval_task(&circuit, &params, &b.task, Split::Valid);
    let train = t.elapsed().as_secs_f64();

    let layout = search.best.layout();
    let t = Instant::now();
    let accuracy_before_prune = if b.task.is_qml() {
        estimator.test_accuracy(&circuit, &params, &b.task, &layout, cfg.n_test, cfg.measure)
    } else {
        f64::NAN
    };
    let mut measure = t.elapsed().as_secs_f64();

    // Stage 4: iterative pruning + finetuning.
    let t = Instant::now();
    let (final_circuit, final_params) = match &cfg.prune {
        Some(prune_cfg) => {
            let mut pc = *prune_cfg;
            pc.seed = seed ^ 0x9121;
            let result = iterative_prune_rt(&circuit, &params, &b.task, &pc, &rt);
            (result.circuit, result.params)
        }
        None => (circuit, params),
    };
    let prune = t.elapsed().as_secs_f64();

    // Stage 5: measured deployment on the noisy device model.
    let t = Instant::now();
    let (final_accuracy, final_energy) = match &b.task {
        Task::Qml { .. } => (
            estimator.test_accuracy(
                &final_circuit,
                &final_params,
                &b.task,
                &layout,
                cfg.n_test,
                cfg.measure,
            ),
            f64::NAN,
        ),
        Task::Vqe { hamiltonian, .. } => (
            f64::NAN,
            estimator.vqe_energy_measured(
                &final_circuit,
                &final_params,
                hamiltonian,
                &layout,
                cfg.measure,
            ),
        ),
    };
    measure += t.elapsed().as_secs_f64();
    let total = start.elapsed().as_secs_f64();

    let mut counters = delta(&counter_snapshot(rt.metrics()), &before);
    counters.search_simulate_busy = busy.unwrap_or(0.0);
    Rep {
        candidates: search.candidates(),
        gene: search.best,
        search_score: search.best_score,
        trained_loss,
        accuracy_before_prune,
        final_accuracy,
        final_energy,
        final_params,
        shared_params: shared,
        times: StageTimes {
            super_train,
            search: search_s,
            train,
            prune,
            measure,
            total,
        },
        counters,
    }
}

/// Bitwise equality of floats (NaN equals NaN of the same payload).
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Why a repetition disagrees with the warm-up `QuantumNas::run` report,
/// or `None` when every checked output is bitwise equal.
pub fn mismatch(rep: &Rep, reference: &Report) -> Option<String> {
    if rep.gene != reference.gene {
        return Some("searched gene differs".into());
    }
    if !same(rep.search_score, reference.search_score) {
        return Some("search score differs".into());
    }
    if rep.candidates != reference.search_evaluations + reference.search_memo_hits {
        return Some("search budget differs".into());
    }
    if !same(rep.trained_loss, reference.trained_loss) {
        return Some("trained loss differs".into());
    }
    if !same(rep.accuracy_before_prune, reference.accuracy_before_prune) {
        return Some("pre-prune accuracy differs".into());
    }
    if !same(rep.final_accuracy, reference.final_accuracy)
        || !same(rep.final_energy, reference.final_energy)
    {
        return Some("final accuracy/energy differs".into());
    }
    if rep.final_params.len() != reference.final_params.len()
        || !rep
            .final_params
            .iter()
            .zip(&reference.final_params)
            .all(|(&a, &b)| same(a, b))
    {
        return Some("final params differ".into());
    }
    None
}

/// The deterministic quality metric: `1 − accuracy` for QML, the relative
/// energy error `(E − E_exact)/|E_exact|` for VQE.
pub fn quality_gap(report_accuracy: f64, report_energy: f64, exact: Option<f64>) -> f64 {
    match exact {
        Some(e) => (report_energy - e) / e.abs(),
        None => 1.0 - report_accuracy,
    }
}
