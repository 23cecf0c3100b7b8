//! Empty stand-in for `serde`: a workspace crate that benchmark/build.sh
//! builds whole lists it under `[dependencies]` but uses nothing from
//! it.  If a later change starts using `serde`, the offline build fails
//! here by name instead of silently measuring a different program.
