//! End-to-end ratchet tests: drive the real `xtk-lint` binary over a
//! throwaway mini workspace and exercise the full baseline lifecycle —
//! missing baseline, `--update-baseline`, held ratchet, L1/L6
//! regression, new-file regression, and below-baseline improvement —
//! plus a byte-exact golden `lint-report.json` comparison and the
//! walker's target/examples skip list.

use std::path::Path;
use std::process::{Command, Output};
use xtk_xml::testutil::TempPath;

/// A clean engine file: one panic site (`unwrap` in `helper`) reachable
/// from the one public entry point `Engine::run`.
const ENGINE_OK: &str = r#"#![forbid(unsafe_code)]
//! Mini fixture crate for the ratchet lifecycle tests.

pub struct Engine {
    data: Vec<u32>,
}

impl Engine {
    pub fn run(&self, q: u32) -> u32 {
        helper(&self.data, q)
    }
}

fn helper(xs: &[u32], q: u32) -> u32 {
    xs.first().copied().unwrap() + q
}
"#;

/// Same crate with one extra panic site in the reachable helper: both
/// the L1 per-file count and the L6 per-entry count go up by one.
const ENGINE_REGRESSED: &str = r#"#![forbid(unsafe_code)]
//! Mini fixture crate for the ratchet lifecycle tests.

pub struct Engine {
    data: Vec<u32>,
}

impl Engine {
    pub fn run(&self, q: u32) -> u32 {
        helper(&self.data, q)
    }
}

fn helper(xs: &[u32], q: u32) -> u32 {
    let first = xs.first().copied().unwrap();
    let last = xs.last().copied().unwrap();
    first + last + q
}
"#;

/// Same crate with the panic site removed: strictly below baseline.
const ENGINE_IMPROVED: &str = r#"#![forbid(unsafe_code)]
//! Mini fixture crate for the ratchet lifecycle tests.

pub struct Engine {
    data: Vec<u32>,
}

impl Engine {
    pub fn run(&self, q: u32) -> u32 {
        helper(&self.data, q)
    }
}

fn helper(xs: &[u32], q: u32) -> u32 {
    xs.first().copied().unwrap_or(0) + q
}
"#;

struct MiniWs {
    root: TempPath,
}

impl MiniWs {
    fn new(tag: &str) -> MiniWs {
        let root = TempPath::new(&format!("lint_itest_{tag}"));
        std::fs::create_dir_all(root.join("crates/core/src")).expect("mkdir mini workspace");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/core\"]\n")
            .expect("write Cargo.toml");
        MiniWs { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("mkdir for file");
        }
        std::fs::write(path, content).expect("write file");
    }

    fn lint(&self, extra: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_xtk-lint"))
            .arg("--root")
            .arg(self.root.path())
            .args(extra)
            .output()
            .expect("run xtk-lint")
    }
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn baseline_lifecycle_update_hold_regress_improve() {
    let ws = MiniWs::new("lifecycle");
    ws.write("crates/core/src/lib.rs", ENGINE_OK);

    // 1. No baseline yet: usage error pointing at --update-baseline.
    let out = ws.lint(&[]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--update-baseline"), "stderr: {}", stderr(&out));

    // 2. Record the baseline: v2 with the entry-point budget.
    let out = ws.lint(&["--update-baseline"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let btext =
        std::fs::read_to_string(ws.root.join("lint-baseline.json")).expect("baseline written");
    assert!(btext.contains("\"version\": 2"), "baseline: {btext}");
    assert!(btext.contains("xtk_core::Engine::run"), "baseline: {btext}");

    // 3. Unchanged tree: ratchet holds, exit 0.
    let out = ws.lint(&[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("L6 ratchet held"), "stdout: {}", stdout(&out));

    // 4. A new reachable unwrap: both L1 and L6 regress, exit 1.
    ws.write("crates/core/src/lib.rs", ENGINE_REGRESSED);
    let out = ws.lint(&[]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains("L1") || err.contains("panic"), "stderr: {err}");
    assert!(err.contains("L6"), "stderr: {err}");
    // The L6 diagnostic shows the full call chain to the new site.
    assert!(err.contains("xtk_core::Engine::run -> xtk_core::lib::helper"), "stderr: {err}");

    // 5. A brand-new file with a panic site also regresses.
    ws.write("crates/core/src/lib.rs", ENGINE_OK);
    ws.write("crates/core/src/extra.rs", "pub fn boom(xs: &[u32]) -> u32 { xs.first().copied().unwrap() }\n");
    let out = ws.lint(&[]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(stderr(&out).contains("extra.rs"), "stderr: {}", stderr(&out));

    // 6. Removing the panic site drops below baseline: exit 0 plus a
    //    tighten-the-ratchet note.
    std::fs::remove_file(ws.root.join("crates/core/src/extra.rs")).expect("rm extra");
    ws.write("crates/core/src/lib.rs", ENGINE_IMPROVED);
    let out = ws.lint(&[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("below baseline"), "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("L6 ratchet improved"), "stdout: {}", stdout(&out));

    // 7. --update-baseline round-trip: rewriting at the improved state
    //    tightens the budgets, and the next run holds at the new level.
    let out = ws.lint(&["--update-baseline"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let out = ws.lint(&[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(!stdout(&out).contains("below baseline"), "stdout: {}", stdout(&out));
}

/// The machine-readable report must stay byte-stable: same tree, same
/// bytes.  The golden file is committed at `fixtures/golden_report.json`;
/// regenerate it by running the binary over the mini workspace whenever
/// the schema changes deliberately.
#[test]
fn report_json_matches_golden_fixture() {
    let ws = MiniWs::new("golden");
    ws.write("crates/core/src/lib.rs", ENGINE_OK);
    let out = ws.lint(&["--update-baseline"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let got = std::fs::read_to_string(ws.root.join("lint-report.json")).expect("report written");
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join("golden_report.json");
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", golden_path.display()));
    assert_eq!(
        got, want,
        "lint-report.json drifted from the golden fixture; if the schema \
         change is intentional, update fixtures/golden_report.json"
    );
}

#[test]
fn walker_skips_target_examples_and_tests_dirs() {
    let ws = MiniWs::new("walk");
    ws.write("crates/core/src/lib.rs", ENGINE_OK);
    ws.write("target/debug/build/generated.rs", "pub fn junk() { panic!(\"generated\") }\n");
    ws.write("examples/demo.rs", "fn main() { Vec::<u32>::new().first().unwrap(); }\n");
    ws.write("crates/core/examples/demo2.rs", "fn main() { panic!(\"demo\") }\n");
    ws.write("crates/core/tests/itest.rs", "#[test] fn t() { assert!(true) }\n");
    let files = xtk_lint::walk::collect_rs(&ws.root).expect("scan mini workspace");
    let rels: Vec<&str> = files.iter().map(|(rel, _)| rel.as_str()).collect();
    assert_eq!(rels, vec!["crates/core/src/lib.rs"], "walker picked up excluded dirs: {rels:?}");
}
