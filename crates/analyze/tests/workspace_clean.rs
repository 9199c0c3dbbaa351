//! The workspace gate: the analyzer must run clean on this tree, and the
//! committed schema lock must match the current wire shapes. This is the
//! same check CI runs via `cargo xtask analyze`.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn workspace_is_clean() {
    let findings = qns_analyze::analyze(&workspace_root()).expect("analysis runs");
    assert!(
        findings.is_empty(),
        "the workspace must pass its own analyzer; findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn schema_lock_is_committed_and_fresh() {
    let root = workspace_root();
    let lock_path = root.join(qns_analyze::schema::LOCK_PATH);
    let text = std::fs::read_to_string(&lock_path).expect(
        "analyze/schema.lock must be committed — run `cargo xtask analyze --update-schema`",
    );
    let lock = qns_analyze::schema::parse_lock(&text).expect("lock parses");
    // The wire structs this tree is known to checkpoint; growing this set
    // intentionally requires regenerating the lock, which updates here.
    for name in [
        "ParetoState",
        "TrainCheckpoint",
        "PruneCheckpoint",
        "PrescreenerState",
        "FusionModel",
    ] {
        assert!(
            lock.structs.contains_key(name),
            "expected `{name}` in the schema lock; got {:?}",
            lock.structs.keys().collect::<Vec<_>>()
        );
    }
}
