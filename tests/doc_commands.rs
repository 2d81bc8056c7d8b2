//! Every `--bin <name>`, `--bench <name>` and `cargo … -p <crate>` in the
//! READMEs, the verify skill and the CI workflow must name a target that
//! exists, and every `--flag` of a documented `tersoff-run` command must be
//! one the binary parses, so a retired binary or option cannot survive in a
//! command someone will paste.

use std::fs;
use std::path::{Path, PathBuf};

/// Stems of the `*.rs` files directly under `dir` (none if it is absent).
fn rs_stems(dir: &Path) -> Vec<String> {
    let files = fs::read_dir(dir).into_iter().flatten();
    let files = files.map(|f| f.unwrap().path());
    let files = files.filter(|f| f.extension() == Some("rs".as_ref()));
    let stem = |f: PathBuf| f.file_stem().unwrap().to_string_lossy().into_owned();
    files.map(stem).collect()
}

/// The READMEs, the verify skill and the CI workflow, where they exist.
fn documents(root: &Path) -> Vec<PathBuf> {
    let skill_and_ci = [".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"];
    let docs = ["README.md", "scenarios/README.md", "crates/shims/README.md"];
    let docs = docs.iter().chain(&skill_and_ci);
    let mut docs: Vec<_> = docs.map(|doc| root.join(doc)).collect();
    for dir in fs::read_dir(root.join("crates")).unwrap() {
        docs.push(dir.unwrap().path().join("src/README.md"));
    }
    docs.retain(|doc| doc.exists());
    docs
}

#[test]
fn every_documented_cargo_target_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Auto-discovered binaries, the `[[bin]]` names, and `benchmark/`'s `perf`.
    let manifest = fs::read_to_string(root.join("crates/bench/Cargo.toml")).unwrap();
    let named = manifest.split("[[bin]]\nname = \"").skip(1);
    let mut bins = rs_stems(&root.join("crates/bench/src/bin"));
    bins.extend(named.map(|rest| rest.split('"').next().unwrap().to_string()));
    bins.push("perf".into());
    let benches = rs_stems(&root.join("crates/bench/benches"));

    let mut checked = 0;
    for doc in documents(root) {
        for line in fs::read_to_string(&doc).unwrap().lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            for pair in words.windows(2) {
                let name = pair[1].trim_matches(|c: char| !c.is_alphanumeric() && c != '_');
                let exists = match pair[0].trim_start_matches('`') {
                    "--bin" => bins.iter().any(|bin| bin == name),
                    "--bench" => benches.iter().any(|bench| bench == name),
                    "-p" if line.contains("cargo") => root.join("crates").join(name).is_dir(),
                    _ => continue,
                };
                assert!(exists, "{doc:?}: `{} {name}` names no target", pair[0]);
                checked += 1;
            }
        }
    }
    assert!(checked >= 20, "the scan found only {checked} commands");
}

#[test]
fn every_documented_tersoff_run_flag_is_parsed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // The flags are the `"--…"` literals `tersoff_run.rs` matches on.
    let source = fs::read_to_string(root.join("crates/bench/src/bin/tersoff_run.rs")).unwrap();
    let parsed: Vec<&str> = source
        .split('"')
        .filter(|s| {
            s.starts_with("--") && s[2..].chars().all(|c| c.is_ascii_lowercase() || c == '-')
        })
        .collect();
    let mut checked = 0;
    for doc in documents(root) {
        // A shell command may continue over `\`-ended lines.
        let text = fs::read_to_string(&doc).unwrap().replace("\\\n", " ");
        for line in text.lines() {
            let Some((_, args)) = line.split_once("tersoff-run") else {
                continue;
            };
            for word in args.split_whitespace() {
                let flag = word.trim_matches(|c: char| !c.is_alphanumeric() && c != '-');
                if flag.len() > 2 && flag.starts_with("--") {
                    assert!(
                        parsed.contains(&flag),
                        "{doc:?}: `tersoff-run {flag}` is not parsed"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 10, "the scan found only {checked} flags");
}
