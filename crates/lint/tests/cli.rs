//! End-to-end test of the `bq-lint` binary: a seeded violation must make it
//! exit nonzero and name the rule plus `file:line`; a clean tree exits 0
//! with an `"status":"ok"` JSON summary on stdout. Each fixture crate has a
//! `main.rs` calling its public functions, so `dead-pub` sees them used.

use std::path::PathBuf;
use std::process::Command;

/// Build a throwaway workspace-shaped tree under the target dir. Naming uses
/// the process id plus a tag — no wall clock, no RNG.
fn scratch_workspace(tag: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("bq-lint-cli-fixtures")
        .join(format!("{}-{tag}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale fixture tree");
    }
    std::fs::create_dir_all(root.join("crates/demo/src")).expect("create fixture tree");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(
        root.join("crates/demo/src/main.rs"),
        "fn main() {\n    demo::now();\n    demo::double(2);\n}\n",
    )
    .expect("write caller");
    root
}

fn run_lint(root: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bq-lint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("bq-lint binary runs")
}

#[test]
fn seeded_violation_exits_nonzero_and_names_rule_and_location() {
    let root = scratch_workspace("violation");
    std::fs::write(
        root.join("crates/demo/src/lib.rs"),
        "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .expect("write violating source");

    let out = run_lint(&root);
    assert!(
        !out.status.success(),
        "bq-lint must exit nonzero on a violation"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("crates/demo/src/lib.rs:2"),
        "diagnostic must carry file:line, got:\n{stderr}"
    );
    assert!(
        stderr.contains("[wall-clock]"),
        "diagnostic must name the rule, got:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout.lines().last().expect("JSON summary on stdout");
    assert!(summary.contains("\"status\":\"fail\""), "{summary}");
    assert!(summary.contains("\"wall-clock\":1"), "{summary}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn seeded_dead_pub_item_exits_nonzero_and_names_rule_and_location() {
    let root = scratch_workspace("dead-pub");
    std::fs::write(
        root.join("crates/demo/src/lib.rs"),
        "pub fn double(x: u64) -> u64 {\n    x.wrapping_mul(2)\n}\n\n\
         pub fn tripled(x: u64) -> u64 {\n    x.wrapping_mul(3)\n}\n",
    )
    .expect("write source with a dead item");

    let out = run_lint(&root);
    assert!(
        !out.status.success(),
        "bq-lint must exit nonzero on a dead pub item"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("crates/demo/src/lib.rs:5: [dead-pub]"),
        "diagnostic must carry file:line and the rule, got:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout.lines().last().expect("JSON summary on stdout");
    assert!(summary.contains("\"status\":\"fail\""), "{summary}");
    assert!(summary.contains("\"dead-pub\":1"), "{summary}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn clean_tree_exits_zero_with_ok_summary() {
    let root = scratch_workspace("clean");
    std::fs::write(
        root.join("crates/demo/src/lib.rs"),
        "pub fn double(x: u64) -> u64 {\n    x.wrapping_mul(2)\n}\n",
    )
    .expect("write clean source");

    let out = run_lint(&root);
    assert!(
        out.status.success(),
        "bq-lint must exit 0 on a clean tree, stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout.lines().last().expect("JSON summary on stdout");
    assert!(summary.contains("\"status\":\"ok\""), "{summary}");
    assert!(summary.contains("\"violations\":0"), "{summary}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn allow_with_justification_suppresses_the_seeded_violation() {
    let root = scratch_workspace("allowed");
    std::fs::write(
        root.join("crates/demo/src/lib.rs"),
        "// bq-lint: allow(wall-clock): this demo measures real elapsed time\n\
         pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .expect("write allowed source");
    // The allow sits above the `pub fn` line, but the violation is two lines
    // below — so this MUST still fail: allows govern one code line only.
    let out = run_lint(&root);
    assert!(!out.status.success(), "allow must not leak past its line");

    std::fs::write(
        root.join("crates/demo/src/lib.rs"),
        "pub fn now() -> std::time::Instant {\n\
             // bq-lint: allow(wall-clock): this demo measures real elapsed time\n\
             std::time::Instant::now()\n\
         }\n",
    )
    .expect("rewrite with adjacent allow");
    let out = run_lint(&root);
    assert!(
        out.status.success(),
        "adjacent allow must suppress, stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .last()
            .expect("summary")
            .contains("\"allows_used\":1"),
        "{stdout}"
    );

    std::fs::remove_dir_all(&root).ok();
}
