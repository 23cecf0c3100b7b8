//! The workspace builds from what is in the repository: no manifest may
//! name a registry crate.  A dependency that creeps back fails here, by
//! name, instead of as a resolver error in a container without a network.

use std::path::{Path, PathBuf};

/// `(section, line)` for every `key = value` line of a manifest.
fn entries(manifest: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest).expect("readable manifest");
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if let Some(name) = line.strip_prefix('[') {
            section = name.trim_end_matches(']').to_owned();
        } else if !line.is_empty() && !line.starts_with('#') {
            out.push((section.clone(), line.to_owned()));
        }
    }
    out
}

fn manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut all = vec![root.join("Cargo.toml")];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = krate.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            all.push(manifest);
        }
    }
    assert!(all.len() > 10, "found the workspace's crates: {all:?}");
    all
}

#[test]
fn every_dependency_is_a_path_crate_of_this_workspace() {
    for manifest in manifests() {
        for (section, line) in entries(&manifest) {
            let at = format!("{}: [{section}] {line}", manifest.display());
            match section.as_str() {
                "workspace.dependencies" => {
                    assert!(line.contains("path = \"crates/"), "not a path crate — {at}")
                }
                s if s.ends_with("dependencies") => {
                    assert!(line.ends_with(".workspace = true"), "not inherited — {at}")
                }
                _ => {}
            }
        }
    }
}
