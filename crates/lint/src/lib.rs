//! # bq-lint — the workspace determinism auditor
//!
//! Every layer of this workspace rests on one claim: an episode is a pure
//! function of `(workload, profile, seed, dispatch/transport/fault
//! schedule)`. Goldens and proptests *sample* that contract; `bq-lint`
//! *enforces* it at build time with five deny-by-default rules over the
//! workspace's own sources, and a sixth keeps the public surface to what
//! the workspace uses:
//!
//! | rule | forbids |
//! |------|---------|
//! | `wall-clock` | `Instant::now` / `SystemTime` outside bench binaries |
//! | `hash-order` | `HashMap` / `HashSet` in deterministic code |
//! | `unseeded-rng` | `thread_rng` / `rand::random` / inline SplitMix64 constants outside `bq_core::rng` |
//! | `panic-surface` | `unwrap()` / `expect()` / `panic!`-family in `core`/`wire`/`adapter`/`chaos` library code and `dbms/src/executor.rs` |
//! | `hot-path-alloc` | `vec!` / `format!` / `.clone()` / `Vec::new` / `Box::new` … inside `// bq-lint: hot-path` regions |
//! | `dead-pub` | a `pub` item of library code whose name no non-test line of `crates/`, `src/`, `examples/` or `perfbench/` uses |
//!
//! The escape hatch is inline and must carry a justification:
//!
//! ```text
//! // bq-lint: allow(panic-surface): length is checked two lines above
//! let header = bytes[..8].try_into().unwrap();
//! ```
//!
//! A directive on its own comment line governs the next code line; a typoed
//! rule name or an empty justification is itself a violation (`directive`),
//! so a suppression can never silently suppress nothing. Test code
//! (`#[cfg(test)]` items, `#[test]` fns, files under `tests/`, and files
//! whose module a parent declares under `#[cfg(test)]`, such as
//! `#[cfg(test)] mod fuzz;`) is skipped.
//!
//! Run locally with `cargo run -p bq-lint --release`; CI runs the same
//! command in the `lint` job and uploads the one-line JSON summary as an
//! artifact next to the bench summaries.

pub mod rules;
pub mod source;

use rules::{Config, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The outcome of scanning one file or a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned.
    pub files: usize,
    /// All violations, in (path, line) order.
    pub violations: Vec<Violation>,
    /// Number of pattern hits suppressed by an `allow` directive.
    pub allows_used: usize,
}

impl Report {
    /// Fold another report into this one.
    pub fn merge(&mut self, other: Report) {
        self.files += other.files;
        self.violations.extend(other.violations);
        self.allows_used += other.allows_used;
    }

    /// Whether the scan is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable diagnostics, one `path:line: [rule] message` per hit.
    pub fn human_lines(&self) -> Vec<String> {
        self.violations
            .iter()
            .map(|v| format!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message))
            .collect()
    }

    /// The machine-readable single-line JSON summary, shaped like the bench
    /// summaries CI already captures (`tail -n 1` safe: no interior
    /// newlines).
    pub fn json_summary(&self) -> String {
        let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for rule in rules::KNOWN_RULES {
            per_rule.insert(rule, 0);
        }
        for v in &self.violations {
            *per_rule.entry(v.rule).or_insert(0) += 1;
        }
        let rules_json: Vec<String> = per_rule
            .iter()
            .map(|(rule, count)| format!("\"{rule}\":{count}"))
            .collect();
        let status = if self.is_clean() { "ok" } else { "fail" };
        format!(
            "{{\"bench\":\"bq-lint\",\"scale\":\"workspace\",\"files\":{},\"violations\":{},\"allows_used\":{},\"rules\":{{{}}},\"status\":\"{}\"}}",
            self.files,
            self.violations.len(),
            self.allows_used,
            rules_json.join(","),
            status
        )
    }
}

/// Scan a set of sources as one workspace: the per-file rules on every file
/// outside `perfbench/`, then `dead-pub` across all of them.
/// Paths are workspace-relative with `/` separators. This is the unit under
/// test for the fixture suite and the worker of [`run_workspace`].
pub fn scan_sources(files: &[(&str, &str)], config: &Config) -> Report {
    let mut scrubbed: Vec<(&str, source::Scrubbed)> = files
        .iter()
        .map(|&(path, text)| (path, source::scrub(text)))
        .collect();
    mark_test_modules(&mut scrubbed);
    let mut report = Report::default();
    for (path, lines) in &scrubbed {
        if !path.starts_with(rules::REFERENCE_ONLY) {
            report.merge(scan_scrubbed(path, lines, config));
        }
    }
    rules::dead_pub(
        &scrubbed,
        config,
        &mut report.allows_used,
        &mut report.violations,
    );
    report.violations.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    report
}

/// Mark every line of a module file test code when its parent declares the
/// module under `#[cfg(test)]` (`#[cfg(test)] mod fuzz;` in `src/lib.rs`
/// makes `src/fuzz.rs` test code), down to the modules that file declares.
fn mark_test_modules(files: &mut [(&str, source::Scrubbed)]) {
    loop {
        let test_modules: BTreeSet<String> = files
            .iter()
            .flat_map(|(path, scrubbed)| {
                let declared = scrubbed.lines.iter().filter(|line| line.is_test);
                declared
                    .filter_map(|line| file_module(&line.code))
                    .flat_map(|name| module_paths(path, name))
            })
            .collect();
        let mut changed = false;
        for (path, scrubbed) in files.iter_mut() {
            if test_modules.contains(*path) {
                for line in scrubbed.lines.iter_mut().filter(|line| !line.is_test) {
                    line.is_test = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// The name of the module a `mod name;` line declares in a file of its own.
fn file_module(code: &str) -> Option<&str> {
    let mut words = code.trim().strip_suffix(';')?.split_whitespace().rev();
    let name = words.next()?;
    (words.next() == Some("mod") && name.bytes().all(source::is_ident_byte)).then_some(name)
}

/// The two files module `name` declared in `parent` may live in.
fn module_paths(parent: &str, name: &str) -> [String; 2] {
    let (dir, file) = parent.rsplit_once('/').unwrap_or(("", parent));
    let dir = match file {
        "lib.rs" | "main.rs" | "mod.rs" => dir.to_string(),
        _ => format!("{dir}/{}", file.trim_end_matches(".rs")),
    };
    [format!("{dir}/{name}.rs"), format!("{dir}/{name}/mod.rs")]
}

/// Run the per-file rules over one scrubbed file.
fn scan_scrubbed(path: &str, scrubbed: &source::Scrubbed, config: &Config) -> Report {
    let mut report = Report {
        files: 1,
        ..Report::default()
    };
    for err in &scrubbed.directive_errors {
        report.violations.push(Violation {
            path: path.to_string(),
            line: err.line,
            rule: "directive",
            message: err.message.clone(),
        });
    }
    for (idx, line) in scrubbed.lines.iter().enumerate() {
        if line.is_test {
            continue;
        }
        rules::check_line(
            path,
            idx + 1,
            &line.code,
            line.hot_path,
            &line.allows,
            config,
            &mut report.allows_used,
            &mut report.violations,
        );
    }
    report
}

/// Walk the workspace rooted at `root` and scan every tracked `.rs` file.
///
/// Walks `crates/`, `src/`, `tests/`, and `examples/`, plus `perfbench/` as
/// `dead-pub` callers only; skips `vendor/` (third-party stand-ins),
/// `target/`, and `.git/`. Paths are visited in sorted order so the report
/// (and its JSON summary) is itself deterministic.
pub fn run_workspace(root: &Path, config: &Config) -> std::io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src", "tests", "examples", "perfbench"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(file)?));
    }
    let view: Vec<(&str, &str)> = sources
        .iter()
        .map(|(path, text)| (path.as_str(), text.as_str()))
        .collect();
    Ok(scan_sources(&view, config))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "vendor" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locate the workspace root: the given override, else walk up from `start`
/// to the first directory containing both `Cargo.toml` and `crates/`.
pub fn find_root(start: &Path, explicit: Option<&Path>) -> Option<PathBuf> {
    if let Some(root) = explicit {
        return Some(root.to_path_buf());
    }
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, text: &str) -> Report {
        scan_scrubbed(path, &source::scrub(text), &Config::default())
    }

    fn rules_hit(report: &Report) -> Vec<&'static str> {
        report.violations.iter().map(|v| v.rule).collect()
    }

    // ---- wall-clock ----

    #[test]
    fn wall_clock_flags_instant_now() {
        let r = scan(
            "crates/core/src/session.rs",
            "fn t() -> std::time::Instant { std::time::Instant::now() }\n",
        );
        assert_eq!(rules_hit(&r), ["wall-clock"]);
        assert_eq!(r.violations[0].line, 1);
    }

    #[test]
    fn wall_clock_flags_system_time() {
        let r = scan("crates/core/src/session.rs", "use std::time::SystemTime;\n");
        assert_eq!(rules_hit(&r), ["wall-clock"]);
    }

    #[test]
    fn wall_clock_exempts_bench_bins() {
        let r = scan(
            "crates/bench/src/bin/fig5.rs",
            "let start = std::time::Instant::now();\n",
        );
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn wall_clock_allow_is_honored_and_counted() {
        let r = scan(
            "crates/bench/src/lib.rs",
            "// bq-lint: allow(wall-clock): wall seconds are the gate metric here\n\
             let start = std::time::Instant::now();\n",
        );
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.allows_used, 1);
    }

    #[test]
    fn trailing_allow_on_same_line_is_honored() {
        let r = scan(
            "crates/core/src/x.rs",
            "let t = Instant::now(); // bq-lint: allow(wall-clock): caller-supplied clock\n",
        );
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.allows_used, 1);
    }

    // ---- hash-order ----

    #[test]
    fn hash_order_flags_hashmap_and_hashset() {
        let r = scan(
            "crates/core/src/x.rs",
            "use std::collections::{HashMap, HashSet};\n",
        );
        assert_eq!(rules_hit(&r), ["hash-order", "hash-order"]);
    }

    #[test]
    fn hash_order_passes_btreemap() {
        let r = scan(
            "crates/core/src/x.rs",
            "use std::collections::{BTreeMap, BTreeSet};\n",
        );
        assert!(r.is_clean());
    }

    #[test]
    fn hash_order_skips_cfg_test_module() {
        let r = scan(
            "crates/core/src/x.rs",
            "pub fn f() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 use std::collections::HashSet;\n\
                 #[test]\n\
                 fn t() { let _ = HashSet::<u64>::new(); }\n\
             }\n",
        );
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let r = scan(
            "crates/core/src/x.rs",
            "#[cfg(not(test))]\n\
             pub fn f() { let _m = std::collections::HashMap::<u8, u8>::new(); }\n",
        );
        assert_eq!(rules_hit(&r), ["hash-order"]);
    }

    // ---- unseeded-rng ----

    #[test]
    fn unseeded_rng_flags_thread_rng_and_random() {
        let r = scan(
            "crates/plan/src/x.rs",
            "let a = rand::thread_rng();\nlet b: f64 = rand::random();\n",
        );
        assert_eq!(rules_hit(&r), ["unseeded-rng", "unseeded-rng"]);
    }

    #[test]
    fn unseeded_rng_flags_inline_splitmix_constant() {
        let r = scan(
            "crates/chaos/src/x.rs",
            "x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);\n",
        );
        assert_eq!(rules_hit(&r), ["unseeded-rng"]);
    }

    #[test]
    fn unseeded_rng_exempts_core_rng_module() {
        let r = scan(
            "crates/core/src/rng.rs",
            "pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;\n",
        );
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    // ---- panic-surface ----

    #[test]
    fn panic_surface_flags_unwrap_expect_macros() {
        let r = scan(
            "crates/wire/src/x.rs",
            "fn f(v: Option<u8>) -> u8 { v.unwrap() }\n\
             fn g(v: Option<u8>) -> u8 { v.expect(\"present\") }\n\
             fn h() { panic!(\"boom\"); }\n\
             fn i() { unreachable!(); }\n",
        );
        assert_eq!(
            rules_hit(&r),
            [
                "panic-surface",
                "panic-surface",
                "panic-surface",
                "panic-surface"
            ]
        );
    }

    #[test]
    fn panic_surface_ignores_unwrap_or_and_should_panic() {
        let r = scan(
            "crates/wire/src/x.rs",
            "fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n\
             fn g(v: Option<u8>) -> u8 { v.unwrap_or_else(|| 0) }\n",
        );
        assert!(r.is_clean(), "{:?}", r.violations);
        // `#[should_panic(expected = ...)]` lives in test code anyway, but the
        // ident-boundary check alone must not fire on it either.
        let r2 = scan("crates/bqsched/src/x.rs", "fn f() { maybe.unwrap(); }\n");
        assert!(
            r2.is_clean(),
            "panic-surface must not apply outside boundary crates: {:?}",
            r2.violations
        );
    }

    #[test]
    fn panic_surface_skips_bin_targets() {
        let r = scan(
            "crates/wire/src/bin/server.rs",
            "fn main() { do_it().unwrap(); }\n",
        );
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn panic_surface_allow_is_honored() {
        let r = scan(
            "crates/chaos/src/x.rs",
            "// bq-lint: allow(panic-surface): index bounded by the match above\n\
             let v = slots[i].take().unwrap();\n",
        );
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.allows_used, 1);
    }

    // ---- hot-path-alloc ----

    #[test]
    fn hot_path_alloc_flags_allocs_only_inside_region() {
        let r = scan(
            "crates/dbms/src/x.rs",
            "fn cold() { let _v = vec![1, 2]; }\n\
             // bq-lint: hot-path\n\
             fn hot(xs: &[u64]) -> Vec<u64> {\n\
                 let copy = xs.to_vec();\n\
                 let s = format!(\"{}\", copy.len());\n\
                 let _ = s.clone();\n\
                 copy\n\
             }\n\
             // bq-lint: hot-path-end\n\
             fn cold2() { let _b = Box::new(3); }\n",
        );
        assert_eq!(
            rules_hit(&r),
            ["hot-path-alloc", "hot-path-alloc", "hot-path-alloc"]
        );
        let lines: Vec<usize> = r.violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, [4, 5, 6]);
    }

    #[test]
    fn unclosed_hot_path_region_is_a_directive_error() {
        let r = scan("crates/core/src/x.rs", "// bq-lint: hot-path\nfn f() {}\n");
        assert_eq!(rules_hit(&r), ["directive"]);
    }

    // ---- directives ----

    #[test]
    fn unknown_rule_in_allow_is_a_violation() {
        let r = scan(
            "crates/core/src/x.rs",
            "// bq-lint: allow(wallclock): typo\nfn f() {}\n",
        );
        assert_eq!(rules_hit(&r), ["directive"]);
        assert!(r.violations[0].message.contains("unknown rule"));
    }

    #[test]
    fn allow_without_justification_is_a_violation() {
        let r = scan(
            "crates/core/src/x.rs",
            "// bq-lint: allow(wall-clock)\nlet t = Instant::now();\n",
        );
        let hit = rules_hit(&r);
        assert!(hit.contains(&"directive"), "{:?}", r.violations);
        // And the un-suppressed violation still fires.
        assert!(hit.contains(&"wall-clock"), "{:?}", r.violations);
    }

    // ---- dead-pub ----

    fn scan_all(files: &[(&str, &str)]) -> Report {
        scan_sources(files, &Config::default())
    }

    const HELPER: (&str, &str) = ("crates/core/src/x.rs", "pub fn helper() -> u8 { 1 }\n");

    #[test]
    fn dead_pub_flags_an_item_reached_only_from_cfg_test_code() {
        let r = scan_all(&[(
            "crates/core/src/x.rs",
            "pub fn helper() -> u8 { 1 }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() { assert_eq!(super::helper(), 1); }\n\
             }\n",
        )]);
        assert_eq!(rules_hit(&r), ["dead-pub"]);
        assert_eq!(r.violations[0].line, 1);
        assert!(r.violations[0].message.contains("`pub fn helper`"));
    }

    #[test]
    fn dead_pub_flags_an_item_reached_only_from_tests_files() {
        let r = scan_all(&[
            HELPER,
            (
                "crates/core/tests/it.rs",
                "#[test]\nfn t() { assert_eq!(bq_core::helper(), 1); }\n",
            ),
            (
                "tests/root.rs",
                "fn u() -> u8 { bqsched::core::helper() }\n",
            ),
        ]);
        assert_eq!(rules_hit(&r), ["dead-pub"]);
    }

    #[test]
    fn dead_pub_counts_other_crates_examples_and_perfbench_as_callers() {
        for caller in [
            "crates/bqsched/src/agent.rs",
            "examples/demo.rs",
            "perfbench/src/bench.rs",
            "perfbench/tests/decorators.rs",
        ] {
            let r = scan_all(&[HELPER, (caller, "fn run() -> u8 { bq_core::helper() }\n")]);
            assert!(r.is_clean(), "{caller}: {:?}", r.violations);
        }
    }

    #[test]
    fn dead_pub_never_reports_inside_perfbench() {
        let r = scan_all(&[(
            "perfbench/src/lib.rs",
            "pub fn unused() {}\nuse std::collections::HashMap;\n",
        )]);
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.files, 0, "perfbench is read, not audited");
    }

    #[test]
    fn a_pub_use_alone_does_not_keep_an_item_alive() {
        let r = scan_all(&[
            HELPER,
            ("crates/core/src/lib.rs", "pub use x::{\n    helper,\n};\n"),
            ("crates/bqsched/src/lib.rs", "use bq_core::helper;\n"),
        ]);
        assert_eq!(rules_hit(&r), ["dead-pub"]);
    }

    #[test]
    fn dead_pub_checks_pub_items_of_library_code_only() {
        let r = scan_all(&[
            (
                "crates/core/src/x.rs",
                "pub struct Unused;\n\
                 pub(crate) fn internal() {}\n\
                 pub struct Used {\n\
                     pub field: u8,\n\
                 }\n\
                 pub const fn make() -> Used { Used { field: 0 } }\n",
            ),
            (
                "crates/bench/src/bin/fig.rs",
                "pub fn in_a_bin() {}\nfn main() { let _ = bq_core::make(); }\n",
            ),
        ]);
        assert_eq!(rules_hit(&r), ["dead-pub"]);
        assert!(r.violations[0].message.contains("`pub struct Unused`"));
    }

    #[test]
    fn a_module_file_declared_under_cfg_test_is_test_code() {
        let fuzz = "mod deep;\nfn run() -> u8 { crate::x::helper() }\n";
        let deep = "fn run() -> u8 { crate::x::helper() }\n";
        let tree = |lib: &'static str| {
            scan_all(&[
                HELPER,
                ("crates/core/src/lib.rs", lib),
                ("crates/core/src/fuzz.rs", fuzz),
                ("crates/core/src/fuzz/deep.rs", deep),
            ])
        };
        let r = tree("mod x;\n#[cfg(test)]\nmod fuzz;\n");
        assert_eq!(rules_hit(&r), ["dead-pub"]);
        let r = tree("mod x;\nmod fuzz;\n");
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn dead_pub_allow_is_honored_and_counted() {
        let r = scan_all(&[(
            "crates/core/src/x.rs",
            "/// A deliberate hook.\n\
             // bq-lint: allow(dead-pub): test hook of the stall pins\n\
             pub fn hook() {}\n",
        )]);
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.allows_used, 1);
    }

    #[test]
    fn dead_pub_allow_without_justification_is_a_violation() {
        let r = scan_all(&[(
            "crates/core/src/x.rs",
            "// bq-lint: allow(dead-pub)\npub fn hook() {}\n",
        )]);
        assert_eq!(rules_hit(&r), ["directive", "dead-pub"]);
    }

    // ---- scrubbing ----

    #[test]
    fn patterns_inside_strings_and_comments_do_not_fire() {
        let r = scan(
            "crates/core/src/x.rs",
            "fn f() -> &'static str { \"Instant::now HashMap unwrap() panic!\" }\n\
             // Instant::now in a comment\n\
             /* HashMap in a block comment\n\
                spanning lines with unwrap() */\n\
             fn g() -> &'static str { r#\"SystemTime thread_rng\"# }\n",
        );
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_break_scrubbing() {
        let r = scan(
            "crates/core/src/x.rs",
            "fn f<'a>(s: &'a str) -> char { let q = '\"'; let n = '\\n'; q.max(n) }\n\
             fn g(m: std::collections::HashMap<u8, u8>) -> usize { m.len() }\n",
        );
        // The HashMap on line 2 must still be seen (the `'\"'` char literal
        // must not open a string that swallows the rest of the file).
        assert_eq!(rules_hit(&r), ["hash-order"]);
        assert_eq!(r.violations[0].line, 2);
    }

    #[test]
    fn test_files_under_tests_dirs_are_skipped() {
        let r = scan(
            "crates/core/tests/allocations.rs",
            "fn helper() { let t = std::time::Instant::now(); let _ = t; }\n",
        );
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    // ---- report ----

    #[test]
    fn json_summary_is_single_line_and_shaped_like_bench_output() {
        let mut r = scan("crates/core/src/x.rs", "use std::collections::HashMap;\n");
        r.merge(scan("crates/core/src/y.rs", "pub fn ok() {}\n"));
        let json = r.json_summary();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"bench\":\"bq-lint\",\"scale\":\"workspace\""));
        assert!(json.contains("\"files\":2"));
        assert!(json.contains("\"violations\":1"));
        assert!(json.contains("\"hash-order\":1"));
        assert!(json.contains("\"status\":\"fail\""));
    }

    #[test]
    fn human_lines_name_rule_and_location() {
        let r = scan("crates/core/src/x.rs", "use std::collections::HashMap;\n");
        let lines = r.human_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("crates/core/src/x.rs:1: [hash-order]"));
    }
}
