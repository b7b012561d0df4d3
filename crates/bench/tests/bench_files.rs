//! The recorded benchmark files at the workspace root must say where
//! and when they were measured, and must point only at benches that
//! exist; the README must cite only recorded files that exist.
//!
//! Every `BENCH_*.json` records `runner_cores`, `date` and `git_rev`,
//! and every `--bench NAME` it names is a `[[bench]]` of this crate.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn bench_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    files
}

/// The names of this crate's `[[bench]]` targets.
fn declared_benches() -> BTreeSet<String> {
    let manifest = std::fs::read_to_string(root().join("crates/bench/Cargo.toml")).unwrap();
    let mut names = BTreeSet::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(value) = line.strip_prefix("name = ").filter(|_| in_bench) {
            names.insert(value.trim_matches('"').to_string());
        }
    }
    names
}

/// Every non-empty maximal run of identifier characters directly after
/// `prefix`.
fn words_after<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    text.match_indices(prefix)
        .map(|(at, _)| {
            let rest = &text[at + prefix.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|word| !word.is_empty())
        .collect()
}

/// The raw value of the first `"key": value` in `json`: the text up to
/// the next `,`, `}` or newline.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let quoted = format!("\"{key}\":");
    let at = json.find(&quoted)? + quoted.len();
    let rest = json[at..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

#[test]
fn every_bench_file_records_where_and_when_it_was_measured() {
    let files = bench_files();
    assert!(!files.is_empty(), "no BENCH_*.json at the workspace root");
    for path in files {
        let json = std::fs::read_to_string(&path).unwrap();
        let name = path.display();
        let cores = field(&json, "runner_cores").unwrap_or_else(|| panic!("{name}: runner_cores"));
        assert!(
            cores.parse::<u32>().is_ok_and(|n| n > 0),
            "{name}: runner_cores {cores}"
        );
        let date = field(&json, "date").unwrap_or_else(|| panic!("{name}: date"));
        let date = date.trim_matches('"');
        assert!(
            date.len() == 10 && date.chars().filter(|&c| c == '-').count() == 2,
            "{name}: date {date} is not YYYY-MM-DD"
        );
        let rev = field(&json, "git_rev").unwrap_or_else(|| panic!("{name}: git_rev"));
        let rev = rev.trim_matches('"');
        assert!(
            rev.len() >= 7 && rev.chars().all(|c| c.is_ascii_hexdigit()),
            "{name}: git_rev {rev} is not a commit hash"
        );
    }
}

#[test]
fn every_bench_a_file_names_is_declared() {
    let declared = declared_benches();
    for path in bench_files() {
        let json = std::fs::read_to_string(&path).unwrap();
        for bench in words_after(&json, "--bench ") {
            assert!(
                declared.contains(bench),
                "{} names `--bench {bench}`, which crates/bench/Cargo.toml does not declare",
                path.display()
            );
        }
    }
}

#[test]
fn every_bench_file_the_readme_cites_exists() {
    let readme = std::fs::read_to_string(root().join("README.md")).unwrap();
    for stem in words_after(&readme, "BENCH_") {
        let file = format!("BENCH_{stem}.json");
        assert!(
            root().join(&file).is_file(),
            "README.md cites {file}, which does not exist"
        );
    }
}
