//! Empty stand-in for `rand`: a workspace crate that benchmark/build.sh
//! builds whole lists it under `[dependencies]` but uses nothing from
//! it.  If a later change starts using `rand`, the offline build fails
//! here by name instead of silently measuring a different program.
