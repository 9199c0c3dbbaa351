//! Determinism and quality drills for the proxy-prescreening stage.
//!
//! The prescreener must never cost the search its core invariants: proxy
//! scores (and therefore the whole search trajectory) are bitwise
//! reproducible across worker counts and kill/resume, and the fusion
//! model's ranking is good enough that escalating a fraction of each
//! generation still recovers most of the genuinely-best candidates.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use qns_noise::Device;
use qns_runtime::counters;
use quantumnas::{
    candidate_seed, compute_features, evolutionary_search_seeded_rt, gene_key, CheckpointOptions,
    DesignSpace, Estimator, EstimatorKind, EvoConfig, FaultPlan, Gene, Prescreener, ProxyContext,
    ProxyFeatures, ProxyOptions, RuntimeOptions, SearchResult, SearchRuntime, SpaceKind, SubConfig,
    SuperCircuit, Task, FAULT_MARKER,
};

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("qns-proxy-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup() -> (SuperCircuit, Vec<f64>, Task, Estimator) {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let task = Task::qml_digits(&[1, 8], 15, 4, 4);
    let params: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
        .collect();
    let est = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1).with_valid_cap(4);
    (sc, params, task, est)
}

fn proxy_cfg(runtime: RuntimeOptions) -> EvoConfig {
    EvoConfig {
        iterations: 4,
        population: 8,
        parents: 3,
        mutations: 3,
        crossovers: 2,
        runtime,
        proxy: ProxyOptions {
            enabled: true,
            keep: 0.5,
            warmup: 1,
        },
        ..EvoConfig::fast(17)
    }
}

fn assert_search_bitwise_eq(a: &SearchResult, b: &SearchResult) {
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.memo_hits, b.memo_hits);
    assert_eq!(a.proxy_evals, b.proxy_evals);
    assert_eq!(a.proxy_escalations, b.proxy_escalations);
    assert_eq!(a.proxy_dedup_hits, b.proxy_dedup_hits);
}

/// Proxy scores derive from splitmix64 candidate seeds, never from
/// evaluation order, so the whole prescreened search is worker-count
/// independent.
#[test]
fn proxy_search_is_bitwise_identical_across_worker_counts() {
    let (sc, params, task, est) = setup();
    let mut results = Vec::new();
    for workers in [1usize, 2, 4] {
        let cfg = proxy_cfg(RuntimeOptions {
            workers,
            ..Default::default()
        });
        let rt = SearchRuntime::new(cfg.runtime.clone());
        results.push(evolutionary_search_seeded_rt(
            &sc,
            &params,
            &task,
            &est,
            &cfg,
            &[],
            &rt,
        ));
    }
    assert!(results[0].proxy_evals > 0, "prescreening never ran");
    assert!(results[0].proxy_escalations > 0);
    assert_search_bitwise_eq(&results[1], &results[0]);
    assert_search_bitwise_eq(&results[2], &results[0]);
}

/// Runs `f`, asserting it dies with an injected boundary crash.
fn expect_boundary_crash(f: impl FnOnce()) {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("run should crash");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.starts_with(FAULT_MARKER),
        "crash was not the injected one: {msg:?}"
    );
}

/// The prescreener state (fusion weights, feature cache, counters) rides
/// in the search snapshot: a killed-and-resumed proxy search finishes
/// bitwise-identical to an uninterrupted one.
#[test]
fn proxy_search_killed_and_resumed_is_bitwise_identical() {
    let (sc, params, task, est) = setup();
    let reference = {
        let cfg = proxy_cfg(RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt)
    };
    for boundary in [1u64, 2, 3] {
        let dir = TempDir::new(&format!("resume-b{boundary}"));
        let ck = CheckpointOptions::new(dir.path());
        let crash_cfg = proxy_cfg(RuntimeOptions {
            checkpoint: Some(ck.clone()),
            ..Default::default()
        });
        let rt = SearchRuntime::new(crash_cfg.runtime.clone())
            .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(boundary)));
        expect_boundary_crash(|| {
            evolutionary_search_seeded_rt(&sc, &params, &task, &est, &crash_cfg, &[], &rt);
        });

        let resume_cfg = proxy_cfg(RuntimeOptions {
            checkpoint: Some(ck.resume()),
            ..Default::default()
        });
        let rt = SearchRuntime::new(resume_cfg.runtime.clone());
        let resumed =
            evolutionary_search_seeded_rt(&sc, &params, &task, &est, &resume_cfg, &[], &rt);
        assert_eq!(
            rt.metrics().counter(counters::CHECKPOINT_RESUMES),
            1,
            "resume was not recorded (boundary {boundary})"
        );
        assert_search_bitwise_eq(&resumed, &reference);
    }
}

/// A proxy-enabled snapshot must not resume a proxy-off run (and vice
/// versa): the options are part of the context digest.
#[test]
fn proxy_snapshot_is_rejected_by_proxy_off_run() {
    let (sc, params, task, est) = setup();
    let dir = TempDir::new("mismatch");
    let ck = CheckpointOptions::new(dir.path());
    let crash_cfg = proxy_cfg(RuntimeOptions {
        checkpoint: Some(ck.clone()),
        ..Default::default()
    });
    let rt = SearchRuntime::new(crash_cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(2)));
    expect_boundary_crash(|| {
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &crash_cfg, &[], &rt);
    });

    let mut off_cfg = proxy_cfg(RuntimeOptions {
        checkpoint: Some(ck.resume()),
        ..Default::default()
    });
    off_cfg.proxy = ProxyOptions::default();
    let rt = SearchRuntime::new(off_cfg.runtime.clone());
    let result = evolutionary_search_seeded_rt(&sc, &params, &task, &est, &off_cfg, &[], &rt);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_REJECTED), 1);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 0);
    assert_eq!(result.proxy_evals, 0, "proxy-off run ran the prescreener");
}

/// A deterministic spread of candidates over the 4-qubit U3+CU3 space:
/// every (depth, width-pattern, layout-rotation) combination.
fn candidate_genes(n_phys: usize) -> Vec<Gene> {
    let mut genes = Vec::new();
    for nb in 1..=2usize {
        for a in 1..=4usize {
            for b in 1..=4usize {
                let r = (nb * 7 + a * 3 + b) % n_phys;
                let layout: Vec<usize> = (0..4).map(|q| (q + r) % n_phys).collect();
                genes.push(Gene {
                    config: SubConfig {
                        n_blocks: nb,
                        widths: vec![vec![a, b], vec![b, a]],
                    },
                    layout,
                });
            }
        }
    }
    genes
}

/// Trained on the full scores it would see during a search, the fusion
/// model's top-half selection recovers at least half of the true
/// top-quarter candidates.
#[test]
fn prescreener_topk_recall_beats_floor() {
    let (sc, params, task, est) = setup();
    let encoder = match &task {
        Task::Qml { encoder, .. } => encoder.clone(),
        _ => unreachable!(),
    };
    let genes = candidate_genes(est.device().num_qubits());
    let scores: Vec<f64> = genes
        .iter()
        .map(|g| {
            let circuit = sc.build(&g.config, Some(&encoder));
            est.score(&circuit, &params, &task, &g.layout())
        })
        .collect();
    let features: Vec<ProxyFeatures> = genes
        .iter()
        .map(|g| {
            let circuit = sc.build(&g.config, Some(&encoder));
            let key = gene_key(g);
            compute_features(&ProxyContext {
                circuit: &circuit,
                device: est.device(),
                layout: &g.layout,
                seed: candidate_seed(7, key.lo, key.hi),
            })
        })
        .collect();
    assert!(features.iter().all(ProxyFeatures::is_finite));

    let mut pre = Prescreener::new(ProxyOptions {
        enabled: true,
        keep: 0.5,
        warmup: 0,
    });
    // Two passes of online observations — the same volume a short search
    // would deliver.
    for _ in 0..2 {
        for (f, &s) in features.iter().zip(&scores) {
            pre.observe(f, s);
        }
    }
    let predicted: Vec<f64> = features.iter().map(|f| pre.predict(f)).collect();
    let kept = pre.select(&predicted, genes.len() / 2);

    let mut by_score: Vec<usize> = (0..genes.len()).collect();
    by_score.sort_by(|&i, &j| scores[i].total_cmp(&scores[j]));
    let top_k = genes.len() / 4;
    let truly_best: std::collections::HashSet<usize> = by_score[..top_k].iter().copied().collect();
    let recalled = kept.iter().filter(|i| truly_best.contains(i)).count();
    let recall = recalled as f64 / top_k as f64;
    assert!(
        recall >= 0.5,
        "top-{top_k} recall {recall:.2} below the 0.5 floor (recalled {recalled})"
    );
}

/// The headline trade: prescreening lets a 4x-larger population reach a
/// final score at least as good as the default population's (mean over
/// three search seeds), while each run spends at most 1.5x the baseline's
/// full-estimator evaluations. Duplicate offspring are skipped before
/// any scoring along the way.
#[test]
fn larger_population_under_proxy_matches_baseline_within_budget() {
    let (sc, params, task, est) = setup();
    let mut base_scores = Vec::new();
    let mut proxy_scores = Vec::new();
    for seed in [5u64, 11, 42] {
        let baseline_cfg = EvoConfig {
            iterations: 5,
            population: 8,
            parents: 3,
            mutations: 3,
            crossovers: 2,
            ..EvoConfig::fast(seed)
        };
        let baseline = {
            let rt = SearchRuntime::new(baseline_cfg.runtime.clone());
            evolutionary_search_seeded_rt(&sc, &params, &task, &est, &baseline_cfg, &[], &rt)
        };
        assert_eq!(baseline.proxy_evals, 0);
        assert_eq!(baseline.proxy_escalations, 0);
        assert_eq!(baseline.proxy_dedup_hits, 0);

        // Same generation count over a 4x population; every offspring slot
        // filled by mutation/crossover (parents + 17 + 12 = 32).
        let proxy_config = EvoConfig {
            iterations: 5,
            population: 32,
            parents: 3,
            mutations: 17,
            crossovers: 12,
            proxy: ProxyOptions {
                enabled: true,
                keep: 0.2,
                warmup: 1,
            },
            ..EvoConfig::fast(seed)
        };
        let proxied = {
            let rt = SearchRuntime::new(proxy_config.runtime.clone());
            evolutionary_search_seeded_rt(&sc, &params, &task, &est, &proxy_config, &[], &rt)
        };

        let budget = proxied.candidates() as f64 / baseline.candidates() as f64;
        assert!(
            budget <= 1.5,
            "seed {seed}: proxy run spent {budget}x the baseline's full evaluations \
             ({} vs {})",
            proxied.candidates(),
            baseline.candidates()
        );
        assert!(
            proxied.proxy_dedup_hits > 0,
            "seed {seed}: no duplicate offspring were skipped"
        );
        assert!(proxied.proxy_evals > 0);
        // Every scored candidate passed through the escalation gate.
        assert_eq!(proxied.proxy_escalations as usize, proxied.candidates());
        base_scores.push(baseline.best_score);
        proxy_scores.push(proxied.best_score);
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    assert!(
        mean(&proxy_scores) <= mean(&base_scores),
        "4x population under proxy scored {proxy_scores:?} vs baseline {base_scores:?}"
    );
}

/// Prescreening never changes the snapshot wire kind: a proxy-on
/// loss-only search still writes only `PARE` search frames under the
/// `pareto` label (the proxy state travels inside the payload, not as a
/// separate kind).
#[test]
fn proxy_on_search_snapshots_keep_the_scalar_wire_kind() {
    let (sc, params, task, est) = setup();
    let dir = common::TempDir::new("proxy-kind");
    let cfg = proxy_cfg(RuntimeOptions {
        workers: 1,
        checkpoint: Some(CheckpointOptions::new(dir.path())),
        ..Default::default()
    });
    let rt = SearchRuntime::new(cfg.runtime.clone());
    let result = evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt);
    assert!(result.proxy_evals > 0, "prescreening never ran");
    assert_eq!(
        common::snapshot_kind(dir.path(), "pareto"),
        u32::from_le_bytes(*b"PARE")
    );
    assert_eq!(
        common::snapshot_kinds(dir.path()),
        vec![u32::from_le_bytes(*b"PARE")]
    );
}
