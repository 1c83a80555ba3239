//! The determinism rules and their per-path scoping.
//!
//! Every rule is a token-level pattern check over the scrubbed code view
//! produced by [`crate::source::scrub`]. Patterns are matched with identifier
//! boundaries (so `unwrap_or` never trips the `unwrap()` check and
//! `should_panic` never trips `panic!`). Rules are deny-by-default inside
//! their scope; the only escape is an inline
//! `// bq-lint: allow(<rule>): <justification>` with a nonempty reason.

use crate::source::{is_ident_byte, Scrubbed};
use std::collections::BTreeSet;

/// Rule identifiers, in report order. Directive parsing validates against
/// this list so a typoed `allow(wallclock)` is itself a diagnostic.
pub const KNOWN_RULES: [&str; 8] = [
    "wall-clock",
    "hash-order",
    "unseeded-rng",
    "panic-surface",
    "hot-path-alloc",
    "owned-math",
    "dead-pub",
    "directive",
];

/// Path prefix of the sources read only as `dead-pub` callers: the
/// benchmark crate builds on the workspace's public surface, but no rule
/// reports inside it, and every line of it (its tests included) counts.
pub(crate) const REFERENCE_ONLY: &str = "perfbench/";

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (one of [`KNOWN_RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Where each rule applies. Paths are workspace-relative with `/` separators.
///
/// The default config encodes the repo's layering:
/// * `wall-clock` everywhere except bench *binaries* (the only place a real
///   clock is part of the contract — wall-clock gate metrics).
/// * `hash-order` everywhere: no deterministic path may iterate a hash map.
/// * `unseeded-rng` everywhere except `bq_core::rng` itself (the one blessed
///   home of the SplitMix64 constants).
/// * `panic-surface` only in the library code of the boundary crates
///   (`core`, `wire`, `adapter`, `chaos`) and of the executor surface they
///   share (`crates/dbms/src/executor.rs`) — those surfaces return typed
///   errors; panicking there would tear down a replay mid-episode.
/// * `hot-path-alloc` everywhere a `// bq-lint: hot-path` region is marked.
/// * `owned-math` in `crates/` and `src/`, except `crates/nn/src/math.rs`,
///   the module that owns `tanh`, `exp` and `ln`.
/// * `dead-pub` on the declarations in library code: `crates/*/src` outside
///   binaries, plus the umbrella `src/lib.rs`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes exempt from `wall-clock`.
    pub wall_clock_exempt: Vec<String>,
    /// Path prefixes exempt from `unseeded-rng`.
    pub rng_exempt: Vec<String>,
    /// Path prefixes where `panic-surface` is enforced.
    pub panic_scope: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            wall_clock_exempt: vec!["crates/bench/src/bin/".to_string()],
            rng_exempt: vec!["crates/core/src/rng.rs".to_string()],
            panic_scope: vec![
                "crates/core/src/".to_string(),
                "crates/wire/src/".to_string(),
                "crates/adapter/src/".to_string(),
                "crates/chaos/src/".to_string(),
                "crates/dbms/src/executor.rs".to_string(),
            ],
        }
    }
}

impl Config {
    /// Whether `rule` applies to the file at `path`.
    pub fn applies(&self, rule: &str, path: &str) -> bool {
        match rule {
            "directive" => true,
            _ if in_tests(path) => false,
            "wall-clock" => !self.wall_clock_exempt.iter().any(|p| path.starts_with(p)),
            "hash-order" => true,
            "unseeded-rng" => !self.rng_exempt.iter().any(|p| path.starts_with(p)),
            "panic-surface" => {
                self.panic_scope.iter().any(|p| path.starts_with(p)) && !path.contains("/bin/")
            }
            "hot-path-alloc" => true,
            "owned-math" => {
                (path.starts_with("crates/") || path.starts_with("src/")) && path != OWNED_MATH_HOME
            }
            "dead-pub" => {
                path == "src/lib.rs"
                    || (path.starts_with("crates/")
                        && path.contains("/src/")
                        && !path.contains("/bin/")
                        && !path.ends_with("/main.rs"))
            }
            _ => false,
        }
    }
}

/// The one file allowed to evaluate `tanh`, `exp` and `ln` itself: bq-nn's
/// owned implementations, which every other `f32` evaluation calls.
const OWNED_MATH_HOME: &str = "crates/nn/src/math.rs";

/// The std functions `owned-math` denies: std documents their precision as
/// varying by platform and Rust version, and learned bits depend on them.
const OWNED_MATH: [&str; 3] = ["tanh", "exp", "ln"];

/// Files under a `tests/` directory or `benches/` are integration test
/// code: every rule except directive hygiene is off there, and none of
/// their lines is a `dead-pub` caller.
fn in_tests(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches")
}

/// Find `needle` in `hay` at an identifier boundary on both sides.
fn ident_bounded(hay: &str, needle: &str) -> bool {
    let hb = hay.as_bytes();
    let nb = needle.as_bytes();
    if nb.is_empty() || hb.len() < nb.len() {
        return false;
    }
    let first_is_ident = is_ident_byte(nb[0]);
    let last_is_ident = is_ident_byte(nb[nb.len() - 1]);
    let mut i = 0usize;
    while i + nb.len() <= hb.len() {
        if &hb[i..i + nb.len()] == nb {
            let before_ok = !first_is_ident || i == 0 || !is_ident_byte(hb[i - 1]);
            let after = i + nb.len();
            let after_ok = !last_is_ident || after == hb.len() || !is_ident_byte(hb[after]);
            if before_ok && after_ok {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// `ident(` with optional whitespace before the paren — catches `.expect (`.
fn ident_then(hay: &str, ident: &str, follow: char) -> bool {
    let hb = hay.as_bytes();
    let nb = ident.as_bytes();
    let mut i = 0usize;
    while i + nb.len() <= hb.len() {
        if &hb[i..i + nb.len()] == nb {
            let before_ok = i == 0 || !is_ident_byte(hb[i - 1]);
            let mut after = i + nb.len();
            if before_ok && (after == hb.len() || !is_ident_byte(hb[after])) {
                while after < hb.len() && (hb[after] == b' ' || hb[after] == b'\t') {
                    after += 1;
                }
                if after < hb.len() && hb[after] as char == follow {
                    return true;
                }
            }
        }
        i += 1;
    }
    false
}

/// `.method()` with nothing between the parentheses: the form std's
/// `f32::method(self)` takes as a method call. A call with arguments is
/// another type's method, such as the tape's `Graph::tanh(node)`, and a
/// longer name (`exp_m1`, `ln_1p`) is another function.
fn empty_method_call(hay: &str, method: &str) -> bool {
    let dotted = format!(".{method}");
    hay.match_indices(dotted.as_str()).any(|(i, m)| {
        let rest = hay[i + m.len()..].trim_start();
        rest.strip_prefix('(')
            .is_some_and(|args| args.trim_start().starts_with(')'))
    })
}

/// The SplitMix64 finalizer constants. Any of these appearing outside
/// `bq_core::rng` means someone re-implemented the generator inline.
/// Matched on a lowercased, underscore-stripped copy of the line so
/// `0x9E37_79B9_7F4A_7C15` and `0x9e3779b97f4a7c15` both hit.
const SPLITMIX_CONSTANTS: [&str; 3] = [
    "0x9e3779b97f4a7c15",
    "0xbf58476d1ce4e5b9",
    "0x94d049bb133111eb",
];

/// Run every in-scope rule over one scrubbed line; push hits into `out`.
#[allow(clippy::too_many_arguments)]
pub fn check_line(
    path: &str,
    line_no: usize,
    code: &str,
    hot_path: bool,
    allows: &[String],
    config: &Config,
    allows_used: &mut usize,
    out: &mut Vec<Violation>,
) {
    let mut hit = |rule: &'static str, message: String| {
        if allows.iter().any(|a| a == rule) {
            *allows_used += 1;
        } else {
            out.push(Violation {
                path: path.to_string(),
                line: line_no,
                rule,
                message,
            });
        }
    };

    if config.applies("wall-clock", path) {
        if code.contains("Instant::now") {
            hit(
                "wall-clock",
                "`Instant::now` in library code: virtual-time paths must take \
                 time from the simulation clock, not the host"
                    .to_string(),
            );
        }
        if ident_bounded(code, "SystemTime") {
            hit(
                "wall-clock",
                "`SystemTime` in library code: replays must not observe the host clock".to_string(),
            );
        }
    }

    if config.applies("hash-order", path) {
        for ty in ["HashMap", "HashSet"] {
            if ident_bounded(code, ty) {
                hit(
                    "hash-order",
                    format!(
                        "`{ty}` iteration order is seeded per-process; use \
                         `BTreeMap`/`BTreeSet`/`Vec` so replays are order-stable"
                    ),
                );
            }
        }
    }

    if config.applies("unseeded-rng", path) {
        for pat in ["thread_rng", "from_entropy", "OsRng"] {
            if ident_bounded(code, pat) {
                hit(
                    "unseeded-rng",
                    format!(
                        "`{pat}` draws from the OS: all randomness must flow from the episode seed"
                    ),
                );
            }
        }
        if code.contains("rand::random") {
            hit(
                "unseeded-rng",
                "`rand::random` is thread-local and unseeded: derive draws from the \
                 episode seed instead"
                    .to_string(),
            );
        }
        let folded: String = code
            .chars()
            .filter(|c| *c != '_')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        for konst in SPLITMIX_CONSTANTS {
            if folded.contains(konst) {
                hit(
                    "unseeded-rng",
                    format!(
                        "SplitMix64 constant `{konst}` re-implemented inline: \
                         use the shared `bq_core::rng` module"
                    ),
                );
                break;
            }
        }
    }

    if config.applies("panic-surface", path) {
        if ident_then(code, "unwrap", '(') {
            hit(
                "panic-surface",
                "`unwrap()` in boundary-crate library code: return a typed error \
                 (or justify with an allow if the invariant is locally provable)"
                    .to_string(),
            );
        }
        if ident_then(code, "expect", '(') {
            hit(
                "panic-surface",
                "`expect()` in boundary-crate library code: return a typed error \
                 (or justify with an allow if the invariant is locally provable)"
                    .to_string(),
            );
        }
        for mac in ["panic", "unreachable", "todo", "unimplemented"] {
            if ident_then(code, mac, '!') {
                hit(
                    "panic-surface",
                    format!(
                        "`{mac}!` in boundary-crate library code: the executor surface \
                         must fail through typed errors, not process teardown"
                    ),
                );
            }
        }
    }

    if config.applies("owned-math", path) {
        for name in OWNED_MATH {
            let path_call = ["f32::", "f64::"]
                .iter()
                .any(|ty| ident_bounded(code, &format!("{ty}{name}")));
            if path_call || empty_method_call(code, name) {
                hit(
                    "owned-math",
                    format!(
                        "std's `{name}` calls the platform libm, whose bits vary by platform \
                         and Rust version: call `bq_nn::math::{name}`"
                    ),
                );
            }
        }
    }

    if hot_path && config.applies("hot-path-alloc", path) {
        let alloc_pats: [(&str, char); 3] = [("vec", '!'), ("format", '!'), ("clone", '(')];
        for (ident, follow) in alloc_pats {
            if ident_then(code, ident, follow) {
                hit(
                    "hot-path-alloc",
                    format!("`{ident}{follow}...` allocates inside a `bq-lint: hot-path` region"),
                );
            }
        }
        for pat in [
            "Vec::new",
            "Vec::with_capacity",
            "Box::new",
            "String::new",
            "String::from",
            "to_vec(",
            "to_string(",
            "to_owned(",
        ] {
            if code.contains(pat) {
                hit(
                    "hot-path-alloc",
                    format!("`{pat}` allocates inside a `bq-lint: hot-path` region"),
                );
            }
        }
    }
}

/// Keywords whose next identifier is being declared, not referenced.
const DECLARING: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "union", "mod",
];

/// `dead-pub`: flag every `pub` `fn`/`struct`/`enum`/`trait`/`type`/
/// `const`/`static` declared on a non-test line of library code whose name
/// appears on no non-test line of `files`.
///
/// A declaration and a `use`/`pub use` line are not references; every line
/// under [`REFERENCE_ONLY`] is. Names are matched on the scrubbed code, so
/// an unrelated item of the same name hides a dead one, and an item whose
/// name is written only in `use` statements (an import renamed with `as`,
/// a trait imported only for its methods) counts as dead.
pub(crate) fn dead_pub(
    files: &[(&str, Scrubbed)],
    config: &Config,
    allows_used: &mut usize,
    out: &mut Vec<Violation>,
) {
    let mut referenced: BTreeSet<&str> = BTreeSet::new();
    for (path, scrubbed) in files {
        let every_line = path.starts_with(REFERENCE_ONLY);
        if !every_line && in_tests(path) {
            continue;
        }
        let mut in_use = false;
        for line in &scrubbed.lines {
            in_use = in_use || opens_use(&line.code);
            if !in_use && (every_line || !line.is_test) {
                collect_references(&line.code, &mut referenced);
            }
            in_use = in_use && !line.code.contains(';');
        }
    }
    for (path, scrubbed) in files {
        if !config.applies("dead-pub", path) {
            continue;
        }
        for (idx, line) in scrubbed.lines.iter().enumerate() {
            let Some((kind, name)) = pub_item(&line.code) else {
                continue;
            };
            if line.is_test || referenced.contains(name) {
                continue;
            }
            if line.allows.iter().any(|a| a == "dead-pub") {
                *allows_used += 1;
            } else {
                out.push(Violation {
                    path: path.to_string(),
                    line: idx + 1,
                    rule: "dead-pub",
                    message: format!(
                        "`pub {kind} {name}` has no reference outside tests: delete it, \
                         or justify the hook with `// bq-lint: allow(dead-pub): <why>`"
                    ),
                });
            }
        }
    }
}

/// Whether a scrubbed line opens a `use` / `pub use` / `pub(crate) use`
/// statement (which runs to its `;`).
fn opens_use(code: &str) -> bool {
    let code = code.trim_start();
    let rest = match code.strip_prefix("pub") {
        Some(rest) if rest.starts_with('(') => rest.find(')').map_or(rest, |c| &rest[c + 1..]),
        Some(rest) => rest,
        None => code,
    };
    rest.trim_start().starts_with("use ")
}

/// Add every identifier on `code` to `into`, except the one a declaring
/// keyword introduces.
fn collect_references<'a>(code: &'a str, into: &mut BTreeSet<&'a str>) {
    let bytes = code.as_bytes();
    let mut declaring = false;
    let mut i = 0usize;
    while i < bytes.len() {
        if !is_ident_byte(bytes[i]) {
            declaring = declaring && bytes[i].is_ascii_whitespace();
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let word = &code[start..i];
        if !declaring && !bytes[start].is_ascii_digit() {
            into.insert(word);
        }
        declaring = DECLARING.contains(&word);
    }
}

/// The kind and name of a `pub` item declared on `code`, if any: `pub`
/// first, then optional `const`/`unsafe`/`async` qualifiers, then the kind.
/// `pub(crate)`, `pub use`, `pub mod` and `pub` fields are not items here.
fn pub_item(code: &str) -> Option<(&str, &str)> {
    let mut words = code.split_whitespace();
    if words.next() != Some("pub") {
        return None;
    }
    let mut kind = words.next()?;
    let mut name = words.next()?;
    while matches!(kind, "const" | "unsafe" | "async") && DECLARING.contains(&name) {
        kind = name;
        name = words.next()?;
    }
    let end = name
        .bytes()
        .position(|b| !is_ident_byte(b))
        .unwrap_or(name.len());
    let name = &name[..end];
    let is_item = matches!(
        kind,
        "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static"
    );
    (is_item && !name.is_empty()).then_some((kind, name))
}
