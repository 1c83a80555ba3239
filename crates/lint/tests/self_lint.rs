//! The workspace must pass its own determinism audit.
//!
//! This is the acceptance test for the whole lint gate: every rule enabled,
//! default scope config, zero violations. If a change introduces a wall
//! clock, a hash map, an inline SplitMix64, an unjustified panic in a
//! boundary crate, or a `pub` item only tests reach, this test fails with
//! the exact `file:line: [rule]` diagnostics.

use std::path::Path;

#[test]
fn workspace_is_clean_under_default_config() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = bq_lint::run_workspace(&root, &bq_lint::rules::Config::default())
        .expect("workspace sources are readable");
    assert!(
        report.files > 30,
        "walker found only {} files — scan roots are wrong",
        report.files
    );
    assert!(
        report.is_clean(),
        "workspace violates its own determinism contract:\n{}",
        report.human_lines().join("\n")
    );
    // The escape-hatch count is pinned: every `bq-lint: allow` in the tree
    // is an audited, justified exception, and a new one must consciously
    // bump this number in the same PR that adds it — silently accreting
    // allows would hollow the audit out. (The count includes the single
    // sanctioned wall-clock read in `bq_obs::profile`; every other
    // wall-clock measurement must read a `WallClock` instead. Eleven are
    // `dead-pub` hooks: test hooks, reference paths of bitwise pins,
    // documented operator settings and the two `with_jitter` settings a
    // golden or the benchmark needs.)
    assert_eq!(
        report.allows_used, 37,
        "the number of `bq-lint: allow` escapes changed — if the new allow \
         is justified, update this pin in the same PR"
    );
}

#[test]
fn workspace_scan_is_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let config = bq_lint::rules::Config::default();
    let a = bq_lint::run_workspace(&root, &config).expect("first scan");
    let b = bq_lint::run_workspace(&root, &config).expect("second scan");
    assert_eq!(a.json_summary(), b.json_summary());
}
