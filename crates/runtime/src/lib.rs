//! `qns-runtime` — the parallel candidate-evaluation engine behind every
//! search-style workload in the QuantumNAS reproduction.
//!
//! The evolutionary co-search (paper Section III-C) evaluates hundreds of
//! (architecture, mapping) genes per run; each evaluation is a transpile
//! plus a simulation. This crate owns the substrate that makes that loop
//! tractable at scale, in three layers:
//!
//! 1. **[`EvalEngine`]** — fans a batch of candidates out over scoped
//!    worker threads with work stealing (shared atomic claim index),
//!    deterministic in-order result collection, and per-candidate panic
//!    isolation: one bad transpile poisons its own score instead of
//!    killing the search.
//! 2. **Content-addressed caching** — [`StructuralHasher`] produces
//!    deterministic 128-bit digests over structured content (sub-circuit
//!    config, layout, device fingerprint, opt level), keying a
//!    [`ShardedCache`] used for both the transpile cache and the
//!    gene-level score memo.
//! 3. **[`Metrics`] telemetry** — counters, log₂ duration histograms, a
//!    structured per-generation event log, and a text [`Metrics::summary`]
//!    report (evaluations, cache hit rates, transpile vs. simulate wall
//!    time, evals/sec).
//! 4. **Crash safety** — a versioned, crc-guarded snapshot format with
//!    atomic write-rename ([`CheckpointStore`], [`Checkpointable`]) and a
//!    deterministic fault-injection schedule ([`FaultPlan`]) so recovery
//!    paths are testable, not just claimed.
//!
//! The crate is dependency-free and domain-agnostic: it works on hashes
//! and closures. The `quantumnas` core crate layers gene hashing, the
//! score memo, and estimator integration on top.
//!
//! # Examples
//!
//! ```
//! use qns_runtime::{EvalEngine, Metrics, ShardedCache, StructuralHasher, Workers};
//!
//! // One worker, so every duplicate finds its original already cached
//! // (with more, two workers racing on one fresh key may both compute).
//! let engine = EvalEngine::new(Workers::Fixed(1));
//! let cache: ShardedCache<f64> = ShardedCache::new(16);
//! let metrics = Metrics::new();
//!
//! let candidates = vec![1u64, 2, 3, 2, 1];
//! let scores = engine.run(
//!     &candidates,
//!     |&c| {
//!         let mut h = StructuralHasher::new();
//!         h.write_u64(c);
//!         *cache.get_or_insert_with(h.finish(), || {
//!             metrics.incr("evaluations", 1);
//!             (c * c) as f64
//!         })
//!     },
//!     f64::INFINITY,
//! );
//! assert_eq!(scores, vec![1.0, 4.0, 9.0, 4.0, 1.0]);
//! assert_eq!(metrics.counter("evaluations"), 3); // duplicates memoized
//! ```

mod cache;
mod checkpoint;
mod engine;
mod fault;
mod telemetry;

pub use cache::{CacheKey, CacheStats, ShardedCache, StructuralHasher};
pub use checkpoint::{
    crc32, decode_snapshot, encode_snapshot, ByteReader, ByteWriter, CheckpointError,
    CheckpointStore, Checkpointable, EXTENSION, FORMAT_VERSION, MAGIC,
};
pub use engine::{EvalEngine, Workers};
pub use fault::{FaultPlan, FAULT_MARKER};
pub use telemetry::{counters, timers, GenerationEvent, Histogram, Metrics};
