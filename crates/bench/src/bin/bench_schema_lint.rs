//! Schema lint for the committed `BENCH_*.json` snapshots.
//!
//! Every benchmark snapshot must carry the honesty header — `bench`,
//! `source`, `status`, `note`, `host`, `commit` — and a non-empty `points`
//! array, so a reader can always tell what was measured, where, at which
//! commit and under which caveats.  `status` must be `"measured"`: a
//! snapshot of a component run or with a derived figure is refused.  The
//! producers write the header through [`flexric_bench::snapshot`].  Run
//! from the repository root (CI does), or on a producer's output dir:
//!
//! ```text
//! cargo run --release -p flexric-bench --bin bench_schema_lint [-- DIR]
//! ```

use flexric_xapp::json::{self, Value};

const REQUIRED_STR: &[&str] = &["bench", "source", "status", "note", "host", "commit"];

fn lint(text: &str) -> Result<(), String> {
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
    if let Some(status) = v.get("status").and_then(Value::as_str).filter(|s| *s != "measured") {
        return Err(format!("`status` is \"{status}\", not \"measured\""));
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
        let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"));
        match text.and_then(|t| lint(&t)) {
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

#[cfg(test)]
mod tests {
    use super::lint;
    use flexric_xapp::json;

    /// The header `fig8b_controller_scaling` wrote before it used the
    /// shared writer: no `status`, `note`, `host` or `commit`.
    #[test]
    fn a_header_without_status_fails() {
        let fig8b = r#"{"bench": "fig8b", "source": "fig8b_controller_scaling",
            "transport": "tcp-loopback", "points": [{"agents": 1}]}"#;
        assert_eq!(lint(fig8b), Err("missing `status`".into()));
    }

    #[test]
    fn a_component_run_fails() {
        let doc = r#"{"bench": "fig7b", "source": "delta_ab", "status":
            "measured-offline-components", "note": "n", "host": "h", "commit": "c",
            "points": [{"agents": 1}]}"#;
        assert!(lint(doc).unwrap_err().contains("measured-offline-components"));
    }

    #[test]
    fn the_shared_writers_header_passes_and_needs_points() {
        let doc = flexric_bench::snapshot("b", "s", "n", json!({"k": 1}), vec![json!({"x": 1})]);
        assert_eq!(lint(&doc.to_string_pretty()), Ok(()));
        let empty = flexric_bench::snapshot("b", "s", "n", json!({}), vec![]);
        assert_eq!(lint(&empty.to_string_pretty()), Err("`points` is empty".into()));
    }
}
