//! The multi-objective Pareto search battery: property tests for the
//! NSGA-II front invariants, a golden test pinning loss-only searches to
//! the recorded outputs of the former scalar engine, worker-count bitwise
//! identity of fronts, snapshot isolation between objective vectors, and
//! the one-search-many-devices front matching helper.

mod common;

use proptest::prelude::*;
use qns_noise::{Device, TrajectoryConfig};
use qns_runtime::{counters, CacheKey, StructuralHasher};
use quantumnas::{
    crowding_distance, dominates, evolutionary_search_pareto_rt, evolutionary_search_seeded_rt,
    front_json, gene_key, match_front_to_device, non_dominated_sort, selection_order,
    CheckpointOptions, DesignSpace, Estimator, EstimatorKind, EvoConfig, FaultPlan, FrontPoint,
    Gene, Objective, ParetoSearchResult, ProxyOptions, RuntimeOptions, SearchRuntime, SpaceKind,
    SuperCircuit, Task, FAULT_MARKER,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

const ALL_OBJECTIVES: [Objective; 3] = [Objective::Loss, Objective::Depth, Objective::TwoQ];
const PARETO_KIND: u32 = u32::from_le_bytes(*b"PARE");

fn setup() -> (SuperCircuit, Vec<f64>, Task, Estimator) {
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 2);
    let task = Task::qml_digits(&[1, 8], 15, 4, 4);
    let params: Vec<f64> = (0..sc.num_params())
        .map(|i| 0.2 * ((i % 5) as f64) - 0.4)
        .collect();
    let est = Estimator::new(Device::yorktown(), EstimatorKind::SuccessRate, 1).with_valid_cap(4);
    (sc, params, task, est)
}

fn evo_cfg(seed: u64, runtime: RuntimeOptions) -> EvoConfig {
    EvoConfig {
        iterations: 4,
        population: 8,
        parents: 3,
        mutations: 3,
        crossovers: 2,
        runtime,
        ..EvoConfig::fast(seed)
    }
}

fn ckpt_options(dir: &Path, workers: usize, resume: bool) -> RuntimeOptions {
    let ck = CheckpointOptions::new(dir);
    RuntimeOptions {
        workers,
        cache: true,
        checkpoint: Some(if resume { ck.resume() } else { ck }),
        ..Default::default()
    }
}

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

fn assert_pareto_bitwise_eq(a: &ParetoSearchResult, b: &ParetoSearchResult) {
    assert_eq!(a.front.len(), b.front.len(), "front size mismatch");
    for (pa, pb) in a.front.iter().zip(&b.front) {
        assert_eq!(pa.gene, pb.gene);
        assert_eq!(pa.objectives.len(), pb.objectives.len());
        for (x, y) in pa.objectives.iter().zip(&pb.objectives) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.memo_hits, b.memo_hits);
}

/// Deterministic value picker for the property strategies.
fn pick(seed: u64, bound: u64) -> u64 {
    let mut h = StructuralHasher::new();
    h.write_u64(seed);
    h.finish().lo % bound
}

/// Strategy: an arbitrary objective matrix (1–9 candidates, 1–3 dims)
/// over a coarse value grid — small enough to force exact ties and
/// duplicate vectors — with occasional `+inf` and `NaN` poison, plus a
/// distinct digest per candidate in scrambled order.
fn arb_matrix() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<CacheKey>)> {
    (1usize..=9, 1usize..=3, 0u64..u64::MAX).prop_map(|(n, dims, seed)| {
        let objs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..dims)
                    .map(|d| {
                        let code = pick(seed ^ (i as u64 * 131 + d as u64 + 1), 8);
                        match code {
                            6 => f64::INFINITY,
                            7 => f64::NAN,
                            c => c as f64,
                        }
                    })
                    .collect()
            })
            .collect();
        let keys: Vec<CacheKey> = (0..n)
            .map(|i| CacheKey {
                lo: pick(seed.wrapping_add(i as u64), u64::MAX),
                hi: i as u64, // guarantees distinctness
            })
            .collect();
        (objs, keys)
    })
}

/// Like [`arb_matrix`] but with per-candidate perturbations making every
/// value within a dimension distinct (no ties, all finite) — the regime
/// where selection must be fully permutation-invariant.
fn arb_distinct_matrix() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<CacheKey>)> {
    arb_matrix().prop_map(|(objs, keys)| {
        let distinct = objs
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.iter()
                    .map(|v| {
                        let base = if v.is_finite() { *v } else { 9.0 };
                        base + (i as f64) * 1e-3
                    })
                    .collect()
            })
            .collect();
        (distinct, keys)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Front invariants: the fronts partition the candidate set; no
    /// member of front k dominates another member of front k; every
    /// member of front k>0 is dominated by at least one member of front
    /// k−1.
    #[test]
    fn fronts_partition_and_respect_dominance((objs, _) in arb_matrix()) {
        let fronts = non_dominated_sort(&objs);
        let mut seen = vec![false; objs.len()];
        for front in &fronts {
            for w in front.windows(2) {
                prop_assert!(w[0] < w[1], "front indices must ascend");
            }
            for &i in front {
                prop_assert!(!seen[i], "candidate {} in two fronts", i);
                seen[i] = true;
            }
            for &a in front {
                for &b in front {
                    if a != b {
                        prop_assert!(
                            !dominates(&objs[a], &objs[b]),
                            "{} dominates {} within one front",
                            a,
                            b
                        );
                    }
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some candidate lost");
        for k in 1..fronts.len() {
            for &b in &fronts[k] {
                prop_assert!(
                    fronts[k - 1].iter().any(|&a| dominates(&objs[a], &objs[b])),
                    "front-{} member {} not dominated by front {}",
                    k,
                    b,
                    k - 1
                );
            }
        }
    }

    /// Boundary points — the extreme of any objective within a front,
    /// under the module's total value-then-index order — get infinite
    /// crowding distance.
    #[test]
    fn boundary_points_get_infinite_crowding((objs, _) in arb_matrix()) {
        for front in non_dominated_sort(&objs) {
            let dist = crowding_distance(&objs, &front);
            prop_assert_eq!(dist.len(), front.len());
            let dims = objs[front[0]].len();
            // `dim` indexes the inner objective vectors through `front`,
            // so an iterator rewrite would not apply.
            #[allow(clippy::needless_range_loop)]
            for dim in 0..dims {
                let lo = (0..front.len()).min_by(|&a, &b| {
                    objs[front[a]][dim]
                        .total_cmp(&objs[front[b]][dim])
                        .then(front[a].cmp(&front[b]))
                }).unwrap();
                let hi = (0..front.len()).max_by(|&a, &b| {
                    objs[front[a]][dim]
                        .total_cmp(&objs[front[b]][dim])
                        .then(front[a].cmp(&front[b]))
                }).unwrap();
                prop_assert!(dist[lo].is_infinite(), "min of dim {} not infinite", dim);
                prop_assert!(dist[hi].is_infinite(), "max of dim {} not infinite", dim);
            }
        }
    }

    /// Selection is a deterministic total order: a permutation of the
    /// candidate indices, stable across calls, consistent with the
    /// (rank, crowding, digest, index) comparator at every adjacent pair.
    #[test]
    fn selection_is_a_deterministic_total_order((objs, keys) in arb_matrix()) {
        let order = selection_order(&objs, &keys);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..objs.len()).collect::<Vec<_>>());
        prop_assert_eq!(&selection_order(&objs, &keys), &order, "not stable across calls");

        let mut rank = vec![0usize; objs.len()];
        let fronts = non_dominated_sort(&objs);
        let mut crowd = vec![0.0f64; objs.len()];
        for (r, front) in fronts.iter().enumerate() {
            let d = crowding_distance(&objs, front);
            for (pos, &i) in front.iter().enumerate() {
                rank[i] = r;
                crowd[i] = d[pos];
            }
        }
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            let cmp = rank[a]
                .cmp(&rank[b])
                .then(crowd[b].total_cmp(&crowd[a]))
                .then(keys[a].cmp(&keys[b]))
                .then(a.cmp(&b));
            prop_assert!(cmp.is_lt(), "adjacent pair ({}, {}) out of order", a, b);
        }
    }

    /// With distinct objective values and distinct digests, selection is
    /// invariant under permutation of the input: relabeling candidates
    /// relabels the order, nothing else.
    #[test]
    fn selection_is_permutation_invariant((objs, keys) in arb_distinct_matrix()) {
        let n = objs.len();
        let order = selection_order(&objs, &keys);
        let rev_objs: Vec<Vec<f64>> = objs.iter().rev().cloned().collect();
        let rev_keys: Vec<CacheKey> = keys.iter().rev().copied().collect();
        let rev_order: Vec<usize> = selection_order(&rev_objs, &rev_keys)
            .into_iter()
            .map(|j| n - 1 - j)
            .collect();
        prop_assert_eq!(rev_order, order);
    }
}

/// Outputs of the former standalone scalar evolutionary engine, recorded
/// before it was folded into the Pareto engine: 4 configurations × seeds
/// 1–12 on [`setup`]'s task with [`golden_cfg`]. One run per line:
/// `config seed best-gene-digest best-score-bits evaluations memo-hits
/// proxy-evals proxy-escalations proxy-dedup-hits history-bits,…`.
/// Configurations: 0 = SuccessRate; 1 = proxy on (keep 0.5, warmup 1);
/// 2 = `max_params: Some(6)`; 3 = NoisySim, 6 trajectories.
const SCALAR_GOLDEN: &str = "
0 1 3a4739afc5b10d85a439fadd9aa16f18 400695acb3b66570 26 22 0 0 0 40082d691d7db6e8,400695acb3b66570,400695acb3b66570,400695acb3b66570,400695acb3b66570,400695acb3b66570
0 2 eb474555afabbb11949616637f5b55f4 40070c5ec7297e59 24 24 0 0 0 4008d42c5d818a71,4007e6ed508203e2,4007e6ed508203e2,4007e6ed508203e2,40076946948e6a65,40070c5ec7297e59
0 3 7a59469b3e79006b802df3b7a12cbb41 40060a5b033ae585 26 22 0 0 0 400a5953e21eec96,40077ca352c37e1c,40077ca352c37e1c,40077ca352c37e1c,40060a5b033ae585,40060a5b033ae585
0 4 be4a0c2bf197b29c329fbcb3cf19ed86 4007a4fed8a03825 23 25 0 0 0 40091936353463e8,40091936353463e8,40091936353463e8,40091936353463e8,4007a4fed8a03825,4007a4fed8a03825
0 5 d4a18f8fdb478e2baebf2ef4df0d88f2 40067deb7073b24b 30 18 0 0 0 4007680bb5711e9d,4006c20f4a611c7d,400697555324fa24,400690ea7ebc06da,400690ea7ebc06da,40067deb7073b24b
0 6 00051871e5892f692e616d1a47ee61ea 400756363d4081e0 28 20 0 0 0 40079743f1833a99,40079743f1833a99,40079743f1833a99,40079743f1833a99,40079743f1833a99,400756363d4081e0
0 7 6b8f7c3997a48036de4255c420c7952c 4006d1a85bc75985 25 23 0 0 0 4009ed240ca000d5,40074477d8eadd20,4006d1a85bc75985,4006d1a85bc75985,4006d1a85bc75985,4006d1a85bc75985
0 8 b35c21ab3039e0321f0c077a543867d7 4005947c043842e0 30 18 0 0 0 40082e0e5bfba897,4006aa4bd33229cc,40066cb9d13a5564,40066cb9d13a5564,4005947c043842e0,4005947c043842e0
0 9 e99f3205fdc4e0ad8416d4a01743e6f6 400695acb3b66570 27 21 0 0 0 4007eb3d63d0bdde,4007eb3d63d0bdde,400695acb3b66570,400695acb3b66570,400695acb3b66570,400695acb3b66570
0 10 8de11de45aea26ce2467e18484a38e6c 4008c29910cc3844 25 23 0 0 0 4008c29910cc3844,4008c29910cc3844,4008c29910cc3844,4008c29910cc3844,4008c29910cc3844,4008c29910cc3844
0 11 24ffbbc6f6eed73ab028f2d280b88ca6 40063f962c47fe5f 28 20 0 0 0 400681fa1a31a690,400681fa1a31a690,400681fa1a31a690,40063f962c47fe5f,40063f962c47fe5f,40063f962c47fe5f
0 12 6346f9f0d5ee3a2beb9e4494bdb6509e 4006658ac6a544f8 27 21 0 0 0 40081923e31ebd19,4006ede5cbf39969,4006ede5cbf39969,4006658ac6a544f8,4006658ac6a544f8,4006658ac6a544f8
1 1 3a4739afc5b10d85a439fadd9aa16f18 400695acb3b66570 16 12 26 28 6 40082d691d7db6e8,400695acb3b66570,400695acb3b66570,400695acb3b66570,400695acb3b66570,400695acb3b66570
1 2 d26f95d95efc4e70fa58599a0a5eacd5 400680a64f58adf8 18 10 27 28 5 4008d42c5d818a71,4007e6ed508203e2,4007e6ed508203e2,4007e6ed508203e2,40072b94b9998512,400680a64f58adf8
1 3 23933c2e79ee5f4f04fbee19c3ef640c 40077ca352c37e1c 18 10 27 28 6 400a5953e21eec96,40077ca352c37e1c,40077ca352c37e1c,40077ca352c37e1c,40077ca352c37e1c,40077ca352c37e1c
1 4 ac5fe4bd297dbad3002d9f7b64ada2e1 4005a43fc0df356a 16 12 26 28 7 40091936353463e8,40091936353463e8,4006d41a881fe861,4006d41a881fe861,4005a43fc0df356a,4005a43fc0df356a
1 5 39392c4a6ae969e619503626523bf650 400690ea7ebc06da 17 11 29 28 4 4007680bb5711e9d,4006c20f4a611c7d,400697555324fa24,400690ea7ebc06da,400690ea7ebc06da,400690ea7ebc06da
1 6 00051871e5892f692e616d1a47ee61ea 400756363d4081e0 16 12 27 28 6 40079743f1833a99,40079743f1833a99,40079743f1833a99,40079743f1833a99,40079743f1833a99,400756363d4081e0
1 7 e9f6483a6009ef619f327bc0dc496ade 40081923e31ebd19 15 13 27 28 6 4009ed240ca000d5,4009ed240ca000d5,4009ed240ca000d5,4009a4174d7e5629,4009a4174d7e5629,40081923e31ebd19
1 8 647c039dbe23b0fe10aa3650d47a9d37 4005dff9148dec03 17 11 30 28 3 40082e0e5bfba897,4006aa4bd33229cc,4006aa4bd33229cc,4006aa4bd33229cc,4005dff9148dec03,4005dff9148dec03
1 9 fa74545a32eedca37984d5782bc1f99a 4005a43fc0df356a 16 12 27 28 6 4007eb3d63d0bdde,4007eb3d63d0bdde,4005caa0e835fe1e,4005caa0e835fe1e,4005caa0e835fe1e,4005a43fc0df356a
1 10 7c4a145f5dbb939e65dd5872f3b6607f 40088dddcfccd563 17 11 28 28 5 4008c29910cc3844,4008c29910cc3844,4008c29910cc3844,4008c29910cc3844,4008c29910cc3844,40088dddcfccd563
1 11 c9d55a402864b8f02a20210e29e1ef01 400681fa1a31a690 17 11 29 28 4 400681fa1a31a690,400681fa1a31a690,400681fa1a31a690,400681fa1a31a690,400681fa1a31a690,400681fa1a31a690
1 12 6346f9f0d5ee3a2beb9e4494bdb6509e 4006658ac6a544f8 17 11 27 28 6 40081923e31ebd19,4006ede5cbf39969,4006ede5cbf39969,4006658ac6a544f8,4006658ac6a544f8,4006658ac6a544f8
2 1 e658ac1cb80b178b11fe282bed36da89 41cdcd6500000000 29 19 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000
2 2 e8a0f911a51dcc879c0e004607d1cd58 41cdcd6500000000 30 18 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000
2 3 196d5646dc7d33a325048aa9785522ed 41cdcd6500000000 28 20 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000
2 4 4c1bd67c82abdf58a9c66c3332cf74b8 41cdcd6500000000 27 21 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000
2 5 d34f1d70f4b0e111ec3c3ca02a45825f 41cdcd6500000000 30 18 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000
2 6 4d04a892b88398bc3beba40c990cefbc 41cdcd6500000000 29 19 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000
2 7 c9d41ad8980e37477c52ce55a51db242 4009385112f7ec37 26 22 0 0 0 4009ed240ca000d5,4009ed240ca000d5,4009ed240ca000d5,4009605857e1439e,4009385112f7ec37,4009385112f7ec37
2 8 018b1af5cee475350588c9cc9f9de44c 400c3db64ca6ebc5 31 17 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,400c3db64ca6ebc5,400c3db64ca6ebc5
2 9 774113741a892915ec2e411933f6592a 41cdcd6500000000 28 20 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000
2 10 57ec1357ef4d4b412b5316dbb6da9cc2 4009ef29d1ee6d10 31 17 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,4009ef29d1ee6d10
2 11 4704cb47fc0fc4c85ede262dca66a741 41cdcd6500000000 29 19 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000
2 12 9af5a9ed98acb4c3a8f21903e758c28a 400b046415ec4cff 27 21 0 0 0 41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,41cdcd6500000000,400b046415ec4cff
3 1 af0f2241e91e11829e2ddd09b14702c8 3ff2bd9b77ea66ca 24 24 0 0 0 3ff2bd9b77ea66ca,3ff2bd9b77ea66ca,3ff2bd9b77ea66ca,3ff2bd9b77ea66ca,3ff2bd9b77ea66ca,3ff2bd9b77ea66ca
3 2 3e0cf2c40bd12734193b9450dfffd575 3fe513cdc5c4b539 26 22 0 0 0 3ff34d02e97d47f2,3ff34d02e97d47f2,3fea5bcb7c5c2895,3fea50af864b4c21,3fea50af864b4c21,3fe513cdc5c4b539
3 3 735b93f7c9aad30457ecf9197e5c40f1 3fee80e2091e85ad 27 21 0 0 0 3ff13e0ae8410519,3ff13e0ae8410519,3ff13e0ae8410519,3ff083158c04f1b2,3ff083158c04f1b2,3fee80e2091e85ad
3 4 631d3c66e88b2b441a125c31e52ac9ca 3ff21d21273c4593 22 26 0 0 0 3ff3a119946b8104,3ff3a119946b8104,3ff3a119946b8104,3ff3a119946b8104,3ff21d21273c4593,3ff21d21273c4593
3 5 7575887703a59dea2831ae20f76529a3 3fec91e4b20fb0ac 28 20 0 0 0 3ff3d34d6ca214ef,3ff1c0f321048447,3ff1c0f321048447,3ff1c0f321048447,3ff1c0f321048447,3fec91e4b20fb0ac
3 6 198b62dbbb55422225e46b5d3f203612 3feabb1f1a230d0d 25 23 0 0 0 3ff0782afaebed0f,3feabb1f1a230d0d,3feabb1f1a230d0d,3feabb1f1a230d0d,3feabb1f1a230d0d,3feabb1f1a230d0d
3 7 f0bc14b1499925e4fa4153c057fea2be 3fefaeef583e8e65 28 20 0 0 0 3ff2fa8b2e176aea,3fefcbc6481a6854,3fefaeef583e8e65,3fefaeef583e8e65,3fefaeef583e8e65,3fefaeef583e8e65
3 8 24e865a12919154b13e69d91be17b9b1 3ff334295b193966 30 18 0 0 0 3ff6399744613a1d,3ff6399744613a1d,3ff6399744613a1d,3ff6399744613a1d,3ff545cf72d6129b,3ff334295b193966
3 9 dad5239be7fd027717492e36001a9348 3fddd14104c595b5 24 24 0 0 0 3ff42e946086cb1c,3fddd14104c595b5,3fddd14104c595b5,3fddd14104c595b5,3fddd14104c595b5,3fddd14104c595b5
3 10 94e66dec593586ad76d6a852b0bb2d63 3fed45c64e283f51 30 18 0 0 0 3ff1ff5c1a7c7987,3fed45c64e283f51,3fed45c64e283f51,3fed45c64e283f51,3fed45c64e283f51,3fed45c64e283f51
3 11 1e6e2a2dba59c90193942eb44e14effb 3fedbe6dfe346020 29 19 0 0 0 3ff46bd160833767,3ff46bd160833767,3fedbe6dfe346020,3fedbe6dfe346020,3fedbe6dfe346020,3fedbe6dfe346020
3 12 80c2b584c3241b38f93caea752085c25 3fe8340633932e44 27 21 0 0 0 3ff56e5a174271e4,3ff551e273fd98ae,3ff551e273fd98ae,3ff18553c5052639,3ff18553c5052639,3fe8340633932e44
";

fn golden_cfg(config: usize, seed: u64, base: &Estimator) -> (EvoConfig, Estimator) {
    let mut cfg = EvoConfig {
        iterations: 6,
        ..evo_cfg(seed, RuntimeOptions::default())
    };
    let mut est = base.clone();
    match config {
        0 => {}
        1 => {
            cfg.proxy = ProxyOptions {
                enabled: true,
                keep: 0.5,
                warmup: 1,
            }
        }
        2 => cfg.max_params = Some(6),
        3 => {
            est = Estimator::new(
                Device::yorktown(),
                EstimatorKind::NoisySim(TrajectoryConfig {
                    trajectories: 6,
                    seed: 7,
                    readout: true,
                }),
                1,
            )
            .with_valid_cap(4)
        }
        c => panic!("no golden config {c}"),
    }
    (cfg, est)
}

/// A loss-only search reproduces the recorded scalar engine bit for bit
/// on all 48 golden runs: best gene, best score, per-generation history,
/// evaluation budget, and proxy accounting. The matrix covers the cases
/// where NSGA-II's own tie-breaks or a normalized fusion target would
/// diverge (exact loss ties under the `max_params` penalty, duplicate
/// genes, proxy escalation), so it pins both single-objective rules.
#[test]
fn loss_only_search_reproduces_the_scalar_engine_golden() {
    let (sc, params, task, base) = setup();
    let mut mismatches = Vec::new();
    for line in SCALAR_GOLDEN.lines().filter(|l| !l.is_empty()) {
        let f: Vec<&str> = line.split(' ').collect();
        let (config, seed): (usize, u64) = (f[0].parse().unwrap(), f[1].parse().unwrap());
        let (cfg, est) = golden_cfg(config, seed, &base);
        let rt = SearchRuntime::new(cfg.runtime.clone());
        let r = evolutionary_search_pareto_rt(
            &sc,
            &params,
            &task,
            &est,
            &cfg,
            &[Objective::Loss],
            &[],
            &rt,
        );
        let key = gene_key(&r.best);
        let history: Vec<String> = r
            .history
            .iter()
            .map(|h| format!("{:016x}", h.to_bits()))
            .collect();
        let got = format!(
            "{config} {seed} {:016x}{:016x} {:016x} {} {} {} {} {} {}",
            key.lo,
            key.hi,
            r.best_score.to_bits(),
            r.evaluations,
            r.memo_hits,
            r.proxy_evals,
            r.proxy_escalations,
            r.proxy_dedup_hits,
            history.join(",")
        );
        if got != line {
            mismatches.push(format!("want {line}\n got {got}"));
        }
        // A 1-D front is the set of exact minima.
        assert!(!r.front.is_empty());
        for point in &r.front {
            assert_eq!(point.objectives.len(), 1);
            assert_eq!(point.objectives[0].to_bits(), r.best_score.to_bits());
        }
    }
    assert_eq!(SCALAR_GOLDEN.lines().filter(|l| !l.is_empty()).count(), 48);
    assert!(
        mismatches.is_empty(),
        "{} of 48 golden runs diverged:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The final front (genes and objective bits), best, and history are
/// identical at any worker count, and the emitted front JSON is stable.
#[test]
fn front_is_bitwise_identical_across_worker_counts() {
    let (sc, params, task, est) = setup();
    let run = |workers: usize| {
        let cfg = evo_cfg(
            17,
            RuntimeOptions {
                workers,
                ..Default::default()
            },
        );
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &cfg, &ALL_OBJECTIVES, &[], &rt)
    };
    let reference = run(1);
    assert!(!reference.front.is_empty());
    let ref_json = front_json(&ALL_OBJECTIVES, &reference.front);
    for workers in [2usize, 4] {
        let result = run(workers);
        assert_pareto_bitwise_eq(&result, &reference);
        assert_eq!(
            front_json(&ALL_OBJECTIVES, &result.front),
            ref_json,
            "front JSON differs at {workers} workers"
        );
    }
}

/// Loss-only and multi-objective searches share the `PARE` wire kind and
/// the `pareto` label, so the objective vector in the context digest is
/// what keeps them apart: a loss-only resume finds the three-objective
/// snapshot, rejects it as stale, and runs exactly like a fresh loss-only
/// search.
#[test]
fn pareto_snapshots_cannot_leak_into_the_scalar_engine() {
    let (sc, params, task, est) = setup();
    let dir = common::TempDir::new("pareto-kind");
    let crash_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, false));
    let rt = SearchRuntime::new(crash_cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(2)));
    expect_boundary_crash(|| {
        evolutionary_search_pareto_rt(
            &sc,
            &params,
            &task,
            &est,
            &crash_cfg,
            &ALL_OBJECTIVES,
            &[],
            &rt,
        );
    });
    assert_eq!(common::snapshot_kind(dir.path(), "pareto"), PARETO_KIND);
    assert_eq!(common::snapshot_kinds(dir.path()), vec![PARETO_KIND]);

    let fresh = {
        let cfg = evo_cfg(17, RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_seeded_rt(&sc, &params, &task, &est, &cfg, &[], &rt)
    };
    let resume_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, true));
    let rt = SearchRuntime::new(resume_cfg.runtime.clone());
    let resumed = evolutionary_search_seeded_rt(&sc, &params, &task, &est, &resume_cfg, &[], &rt);
    assert!(rt.metrics().counter(counters::CHECKPOINT_REJECTED) >= 1);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 0);
    assert_eq!(resumed.best, fresh.best);
    assert_eq!(resumed.best_score.to_bits(), fresh.best_score.to_bits());
    assert_eq!(resumed.history, fresh.history);
    assert_eq!(resumed.evaluations, fresh.evaluations);
    assert_eq!(resumed.memo_hits, fresh.memo_hits);
}

/// A proxy-on Pareto snapshot must be rejected by a proxy-off resume (and
/// the run must then match a fresh proxy-off run bitwise).
#[test]
fn proxy_presence_mismatch_rejects_the_pareto_snapshot() {
    let (sc, params, task, est) = setup();
    let dir = common::TempDir::new("pareto-proxy-mismatch");
    let proxy_on = ProxyOptions {
        enabled: true,
        keep: 0.5,
        warmup: 1,
    };
    let mut crash_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, false));
    crash_cfg.proxy = proxy_on;
    let rt = SearchRuntime::new(crash_cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(2)));
    expect_boundary_crash(|| {
        evolutionary_search_pareto_rt(
            &sc,
            &params,
            &task,
            &est,
            &crash_cfg,
            &ALL_OBJECTIVES,
            &[],
            &rt,
        );
    });

    let fresh = {
        let cfg = evo_cfg(17, RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &cfg, &ALL_OBJECTIVES, &[], &rt)
    };
    let resume_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, true));
    let rt = SearchRuntime::new(resume_cfg.runtime.clone());
    let resumed = evolutionary_search_pareto_rt(
        &sc,
        &params,
        &task,
        &est,
        &resume_cfg,
        &ALL_OBJECTIVES,
        &[],
        &rt,
    );
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_REJECTED), 1);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 0);
    assert_pareto_bitwise_eq(&resumed, &fresh);
}

/// An objective-vector change (same seed, same everything else) must also
/// reject the snapshot: the front being optimized is part of the context.
#[test]
fn objective_vector_mismatch_rejects_the_pareto_snapshot() {
    let (sc, params, task, est) = setup();
    let dir = common::TempDir::new("pareto-objs-mismatch");
    let crash_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, false));
    let rt = SearchRuntime::new(crash_cfg.runtime.clone())
        .with_fault_plan(Arc::new(FaultPlan::new().crash_at_boundary(2)));
    expect_boundary_crash(|| {
        evolutionary_search_pareto_rt(
            &sc,
            &params,
            &task,
            &est,
            &crash_cfg,
            &ALL_OBJECTIVES,
            &[],
            &rt,
        );
    });

    let two = [Objective::Loss, Objective::TwoQ];
    let fresh = {
        let cfg = evo_cfg(17, RuntimeOptions::default());
        let rt = SearchRuntime::new(cfg.runtime.clone());
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &cfg, &two, &[], &rt)
    };
    let resume_cfg = evo_cfg(17, ckpt_options(dir.path(), 1, true));
    let rt = SearchRuntime::new(resume_cfg.runtime.clone());
    let resumed =
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &resume_cfg, &two, &[], &rt);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_REJECTED), 1);
    assert_eq!(rt.metrics().counter(counters::CHECKPOINT_RESUMES), 0);
    assert_pareto_bitwise_eq(&resumed, &fresh);
}

/// "One search, many devices": the matcher picks a valid front point for
/// every device that fits, skips mappings the device cannot host, and the
/// estimated error is a probability.
#[test]
fn front_matches_across_devices() {
    let (sc, params, task, est) = setup();
    let cfg = evo_cfg(17, RuntimeOptions::default());
    let rt = SearchRuntime::new(cfg.runtime.clone());
    let result =
        evolutionary_search_pareto_rt(&sc, &params, &task, &est, &cfg, &ALL_OBJECTIVES, &[], &rt);
    assert!(!result.front.is_empty());
    for name in ["yorktown", "santiago", "guadalupe"] {
        let device = Device::by_name(name).unwrap();
        let (idx, err) =
            match_front_to_device(&sc, &task, &result.front, &device, 1).expect("front point fits");
        assert!(idx < result.front.len());
        assert!((0.0..=1.0).contains(&err), "{name}: error {err}");
    }
    // A point whose mapping references a physical qubit the device lacks
    // is skipped; when no point fits the matcher reports that.
    let unmappable = vec![FrontPoint {
        gene: Gene {
            config: sc.max_config(),
            layout: vec![0, 1, 2, 9],
        },
        objectives: vec![0.1, 1.0, 1.0],
    }];
    assert_eq!(
        match_front_to_device(&sc, &task, &unmappable, &Device::yorktown(), 1),
        None
    );
}
