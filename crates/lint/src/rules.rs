//! The determinism rules and their per-path scoping.
//!
//! Every rule is a token-level pattern check over the scrubbed code view
//! produced by [`crate::source::scrub`]. Patterns are matched with identifier
//! boundaries (so `unwrap_or` never trips the `unwrap()` check and
//! `should_panic` never trips `panic!`). Rules are deny-by-default inside
//! their scope; the only escape is an inline
//! `// bq-lint: allow(<rule>): <justification>` with a nonempty reason.

use crate::source::is_ident_byte;

/// Rule identifiers, in report order. Directive parsing validates against
/// this list so a typoed `allow(wallclock)` is itself a diagnostic.
pub const KNOWN_RULES: [&str; 6] = [
    "wall-clock",
    "hash-order",
    "unseeded-rng",
    "panic-surface",
    "hot-path-alloc",
    "directive",
];

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
        // Files under a `tests/` directory or `benches/` are integration
        // test code: every rule except directive hygiene is off there.
        let in_tests = path
            .split('/')
            .any(|seg| seg == "tests" || seg == "benches");
        match rule {
            "directive" => true,
            _ if in_tests => false,
            "wall-clock" => !self.wall_clock_exempt.iter().any(|p| path.starts_with(p)),
            "hash-order" => true,
            "unseeded-rng" => !self.rng_exempt.iter().any(|p| path.starts_with(p)),
            "panic-surface" => {
                self.panic_scope.iter().any(|p| path.starts_with(p)) && !path.contains("/bin/")
            }
            "hot-path-alloc" => true,
            _ => false,
        }
    }
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
