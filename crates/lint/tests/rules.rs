//! Fixture tests for the rule engine: every rule is exercised with a seeded
//! violation (must fire with the right rule/line) and a compliant twin (must
//! stay silent). All Rust snippets live in raw strings so this test file is
//! itself clean under the tree scan.

use rn_lint::{check_file, classify};

/// Path under which generic snippets are checked: a result-affecting src
/// file (not a crate root, not test code, not the rng home).
const SRC: &str = "crates/sim/src/values.rs";

fn rules_at(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
    check_file(rel, src).into_iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn classify_scopes_paths() {
    let sc = classify("crates/sim/src/rng.rs").unwrap();
    assert!(sc.rng_home && !sc.test_code && !sc.crate_root);
    let sc = classify("crates/sim/src/lib.rs").unwrap();
    assert!(sc.crate_root && !sc.rng_home);
    let sc = classify("crates/bench/src/bin/experiments.rs").unwrap();
    assert!(sc.crate_root);
    let sc = classify("crates/bench/tests/alloc_count.rs").unwrap();
    assert!(sc.test_code);
    let sc = classify("crates/sim/src/engine.rs").unwrap();
    assert!(sc.panic_docs);
    let sc = classify("perfbench/src/main.rs").unwrap();
    assert!(sc.crate_root && !sc.test_code);
    assert!(classify("perfbench/src/workload.rs").is_some_and(|sc| !sc.crate_root));
    assert!(classify("shims/rand/src/lib.rs").is_none());
    assert!(classify("crates/sim/src/engine.rs.orig").is_none());
    assert!(classify("README.md").is_none());
}

#[test]
fn hash_types_fire_everywhere_even_in_tests() {
    let src = r"
use std::collections::HashMap;
fn f() { let s = std::collections::HashSet::new(); }
";
    assert_eq!(rules_at(SRC, src), vec![("no-std-hash", 2), ("no-std-hash", 3)]);
    // Test code is NOT exempt from the hash ban.
    assert_eq!(
        rules_at("crates/sim/tests/foo.rs", src),
        vec![("no-std-hash", 2), ("no-std-hash", 3)]
    );
    // …but prose and strings never fire.
    let masked = "// a HashMap in a comment\nfn f() { let _ = \"HashSet\"; }\n";
    assert_eq!(rules_at(SRC, masked), vec![]);
}

#[test]
fn wall_clock_reads_fire() {
    let src = r"
fn f() { let t = std::time::Instant::now(); }
fn g() { let e = SystemTime::now(); }
";
    assert_eq!(rules_at(SRC, src), vec![("no-wall-clock", 2), ("no-wall-clock", 3)]);
    // `Instant` alone (e.g. a type in an annotated timing seam's signature)
    // does not fire; only the `Instant::now` read does.
    assert_eq!(rules_at(SRC, "fn f(t: Instant) {}\n"), vec![]);
}

#[test]
fn rng_construction_fires_outside_rng_home() {
    let src = "fn f() { let r = SmallRng::seed_from_u64(7); }\n";
    assert_eq!(rules_at(SRC, src), vec![("rng-discipline", 1)]);
    // The rng module itself is the home of construction.
    assert_eq!(rules_at("crates/sim/src/rng.rs", src), vec![]);
    // Test code is exempt: tests pin seeds directly.
    assert_eq!(rules_at("crates/sim/tests/foo.rs", src), vec![]);
    // #[cfg(test)] regions inside src files are exempt too.
    let in_test_mod = r"
#[cfg(test)]
mod tests {
    fn f() { let r = SmallRng::seed_from_u64(7); }
}
";
    assert_eq!(rules_at(SRC, in_test_mod), vec![]);
    // from_entropy / thread_rng are banned the same way.
    assert_eq!(
        rules_at(SRC, "fn f() { let r = SmallRng::from_entropy(); }\n"),
        vec![("rng-discipline", 1)]
    );
}

#[test]
fn reserve_without_clear_fires() {
    let src = r"
fn prepare(&mut self, n: usize) {
    self.heard.reserve(n);
}
";
    assert_eq!(rules_at(SRC, src), vec![("clear-before-reserve", 3)]);
}

#[test]
fn reserve_after_clear_is_silent() {
    let src = r"
fn prepare(&mut self, n: usize) {
    self.heard.clear();
    self.heard.reserve(n);
    self.touched.clear_all();
    self.touched.reserve_exact(n);
}
";
    assert_eq!(rules_at(SRC, src), vec![]);
}

#[test]
fn reserve_covered_by_parent_reset() {
    // A reset()/clear() on a dot-prefix of the receiver covers nested
    // fields: `self.alg4.reset()` clears `self.alg4.participating` too.
    let src = r"
fn prepare(&mut self, n: usize) {
    self.alg4.reset();
    self.alg4.participating.reserve(n);
}
";
    assert_eq!(rules_at(SRC, src), vec![]);
    // …but a clear on an unrelated sibling does not.
    let bad = r"
fn prepare(&mut self, n: usize) {
    self.other.clear();
    self.alg4.participating.reserve(n);
}
";
    assert_eq!(rules_at(SRC, bad), vec![("clear-before-reserve", 4)]);
}

#[test]
fn reserve_scoping_is_per_function() {
    // A clear in one function does not license a reserve in the next.
    let src = r"
fn a(&mut self) { self.buf.clear(); }
fn b(&mut self, n: usize) { self.buf.reserve(n); }
";
    assert_eq!(rules_at(SRC, src), vec![("clear-before-reserve", 3)]);
    // Indexed receivers are matched structurally.
    let indexed = r"
fn f(&mut self, i: usize, n: usize) {
    self.rows[i].clear();
    self.rows[i].reserve(n);
}
";
    assert_eq!(rules_at(SRC, indexed), vec![]);
    // Test code is exempt: tests build buffers fresh.
    assert_eq!(
        rules_at("crates/sim/tests/foo.rs", "fn f(v: &mut Vec<u8>) { v.reserve(9); }\n"),
        vec![]
    );
}

#[test]
fn crate_roots_must_forbid_unsafe() {
    assert_eq!(
        rules_at("crates/sim/src/lib.rs", "pub mod engine;\n"),
        vec![("forbid-unsafe-root", 1)]
    );
    assert_eq!(
        rules_at("crates/sim/src/lib.rs", "#![forbid(unsafe_code)]\npub mod engine;\n"),
        vec![]
    );
    // Non-root files carry no such obligation.
    assert_eq!(rules_at(SRC, "pub fn f() {}\n"), vec![]);
}

#[test]
fn unsafe_needs_safety_comment() {
    let bare = "unsafe fn alloc(x: u8) -> u8 { x }\n";
    assert_eq!(rules_at("crates/bench/tests/ac.rs", bare), vec![("safety-comment", 1)]);
    let justified = "// SAFETY: forwards to System, which upholds the contract.\n\
                     unsafe fn alloc(x: u8) -> u8 { x }\n";
    assert_eq!(rules_at("crates/bench/tests/ac.rs", justified), vec![]);
    // The justification must be within three lines above.
    let too_far = "// SAFETY: too far away.\n\n\n\n\nunsafe fn alloc(x: u8) -> u8 { x }\n";
    assert_eq!(rules_at("crates/bench/tests/ac.rs", too_far), vec![("safety-comment", 6)]);
}

#[test]
fn panic_docs_required_in_engine_scope() {
    let undocumented = r#"
pub fn step(&mut self) {
    assert!(self.ready, "not ready");
}
"#;
    assert_eq!(rules_at("crates/sim/src/engine.rs", undocumented), vec![("panic-docs", 2)]);
    let documented = r#"
/// Advances one round.
///
/// # Panics
///
/// Panics when the simulator is not ready.
pub fn step(&mut self) {
    assert!(self.ready, "not ready");
}
"#;
    assert_eq!(rules_at("crates/sim/src/engine.rs", documented), vec![]);
    // unwrap/expect count as panic sites too.
    let unwrapping = "pub fn head(&self) -> u32 { self.q.first().copied().unwrap() }\n";
    assert_eq!(rules_at("crates/sim/src/engine.rs", unwrapping), vec![("panic-docs", 1)]);
    // debug_assert! is not a release panic; no doc obligation.
    let debug_only = "pub fn poke(&self) { debug_assert!(self.ok); }\n";
    assert_eq!(rules_at("crates/sim/src/engine.rs", debug_only), vec![]);
    // Outside the engine/bitset scope the rule is off.
    assert_eq!(rules_at(SRC, undocumented), vec![]);
}

#[test]
fn allow_annotation_suppresses_on_line_or_line_above() {
    let same_line = "use std::collections::HashMap; // rn-lint: allow(no-std-hash) — fixture\n";
    assert_eq!(rules_at(SRC, same_line), vec![]);
    let line_above = "// rn-lint: allow(no-std-hash) — fixture\nuse std::collections::HashMap;\n";
    assert_eq!(rules_at(SRC, line_above), vec![]);
    // Two lines above is out of range: the finding survives and the
    // annotation is stale.
    let too_far = "// rn-lint: allow(no-std-hash) — fixture\n\nuse std::collections::HashMap;\n";
    assert_eq!(rules_at(SRC, too_far), vec![("lint-hygiene", 1), ("no-std-hash", 3)]);
}

#[test]
fn annotations_are_themselves_linted() {
    // Unknown rule name.
    let unknown = "// rn-lint: allow(no-such-rule) — why\nfn f() {}\n";
    assert_eq!(rules_at(SRC, unknown), vec![("lint-hygiene", 1)]);
    // Missing reason.
    let reasonless = "use std::collections::HashMap; // rn-lint: allow(no-std-hash)\n";
    assert_eq!(rules_at(SRC, reasonless), vec![("lint-hygiene", 1), ("no-std-hash", 1)]);
    // Malformed body.
    let malformed = "// rn-lint: deny(no-std-hash) — nope\nfn f() {}\n";
    assert_eq!(rules_at(SRC, malformed), vec![("lint-hygiene", 1)]);
    // A plain ASCII dash works as the reason separator.
    let ascii = "use std::collections::HashMap; // rn-lint: allow(no-std-hash) - fixture\n";
    assert_eq!(rules_at(SRC, ascii), vec![]);
    // Multi-rule allow lists suppress each listed rule.
    let multi = "// rn-lint: allow(no-std-hash, no-wall-clock) — fixture\n\
                 fn f() { let (m, t) = (HashMap::new(), Instant::now()); }\n";
    assert_eq!(rules_at(SRC, multi), vec![]);
}

#[test]
fn report_renders_file_line_rule() {
    let f = &check_file(SRC, "use std::collections::HashSet;\n")[0];
    assert_eq!(f.to_string(), format!("{SRC}:1: deny(no-std-hash): {}", f.message));
}
