//! Schema lint for the committed `BENCH_*.json` snapshots.
//!
//! Every benchmark snapshot must carry the honesty header — `bench`,
//! `source`, `status`, `note` — and a non-empty `points` array, so a
//! reader can always tell what was measured, where, and under which
//! caveats.  Run from the repository root (CI does):
//!
//! ```text
//! cargo run --release -p flexric-bench --bin bench_schema_lint [-- DIR]
//! ```

use flexric_xapp::json::{self, Value};

const REQUIRED_STR: &[&str] = &["bench", "source", "status", "note"];

fn lint(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    let v = json::parse(text.as_bytes()).map_err(|e| format!("invalid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("top level is not an object".into());
    }
    for key in REQUIRED_STR {
        match v.get(key) {
            Some(Value::Str(s)) if !s.trim().is_empty() => {}
            Some(_) => return Err(format!("`{key}` is not a non-empty string")),
            None => return Err(format!("missing `{key}`")),
        }
    }
    match v.get("points") {
        Some(Value::Arr(a)) if !a.is_empty() => {}
        Some(Value::Arr(_)) => return Err("`points` is empty".into()),
        Some(_) => return Err("`points` is not an array".into()),
        None => return Err("missing `points`".into()),
    }
    Ok(())
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_owned());
    let mut seen = 0usize;
    let mut failed = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .unwrap_or(false)
        })
        .collect();
    entries.sort();
    for path in &entries {
        seen += 1;
        match lint(path) {
            Ok(()) => println!("ok   {}", path.display()),
            Err(e) => {
                failed += 1;
                eprintln!("FAIL {}: {e}", path.display());
            }
        }
    }
    if seen == 0 {
        eprintln!("FAIL: no BENCH_*.json found in {dir}");
        std::process::exit(1);
    }
    if failed > 0 {
        eprintln!("{failed}/{seen} snapshots fail the schema lint");
        std::process::exit(1);
    }
    println!("{seen} snapshot(s) pass the schema lint");
}
