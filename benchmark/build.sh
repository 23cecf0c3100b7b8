#!/usr/bin/env bash
# Builds the benchmark with bare rustc: no cargo, no registry, no tokio.
#
#   benchmark/build.sh            build (or reuse) everything, print the plan
#
# The crate order and each crate's dependencies are read from
# crates/*/Cargo.toml.  An external dependency resolves iff
# benchmark/shims/<dep>.rs exists.  A workspace crate whose dependencies all
# resolve is built WHOLE from its real src/lib.rs; otherwise, if
# benchmark/wrappers/<dir>.rs[.in] exists, that WRAPPER builds the crate's
# tokio-free modules from their real sources under the crate's real name;
# otherwise the crate is NOT BUILT and counts as not covered.  Outputs are
# cached by a hash of toolchain, flags, sources and dependency hashes.
#
# Output: ${CARGO_TARGET_DIR:-.bench_build}/benchmark/{bench,build_info.txt,build_s}
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(cd "$HERE/.." && pwd)
cd "$ROOT"

[ -d crates ] || { echo "build.sh: no crates/ beside benchmark/: nothing to build" >&2; exit 2; }
command -v rustc >/dev/null || { echo "build.sh: rustc not found" >&2; exit 2; }

OUT=${CARGO_TARGET_DIR:-.bench_build}/benchmark
mkdir -p "$OUT/gen"
OUT=$(cd "$OUT" && pwd)

# The root Cargo.toml's [profile.release]: optimised, no debug info, thin
# LTO (rlibs carry bitcode by default under bare rustc; the LTO happens at
# the final link of the harness).
FLAGS=(--edition 2021 -C opt-level=3 -C debuginfo=0 --cap-lints warn -L "dependency=$OUT")
LINK_FLAGS=(-C lto=thin)
TOOLCHAIN="$(rustc -vV | tr '\n' ' ') ${FLAGS[*]:0:6} ${LINK_FLAGS[*]}"

T0=$(date +%s.%N)
REBUILT=0
declare -A KEY      # unit -> cache key
declare -A RLIB     # rust crate name -> rlib path
declare -A STATE    # crate dir -> whole | wrapped | not-built

# key <dep keys...> -- <files...>
key() {
    local deps=()
    while [ "$1" != "--" ]; do deps+=("$1"); shift; done
    shift
    { echo "$TOOLCHAIN" "${deps[@]}"; cat "$@"; } | sha256sum | cut -c1-20
}

# cached <unit> <key> <output>: the output exists and was built from <key>.
cached() { [ -f "$3" ] && [ "$(cat "$OUT/$1.key" 2>/dev/null)" = "$2" ]; }

# compile <unit> <key> <output> <rustc args...>: runs rustc unless cached;
# REBUILT tells whether any call has.
compile() {
    local unit=$1 k=$2 out=$3
    shift 3
    KEY[$unit]=$k
    cached "$unit" "$k" "$out" && return 0
    rm -f "$OUT/$unit.key"
    rustc "${FLAGS[@]}" "$@" -o "$out"
    echo "$k" >"$OUT/$unit.key"
    REBUILT=1
}

# --- 1. shims -------------------------------------------------------------
for f in benchmark/shims/*.rs; do
    name=$(basename "$f" .rs)
    k=$(key -- "$f")
    if ! cached "shim-$name" "$k" "$OUT/lib$name.rlib" && grep -q '#\[cfg(test)\]' "$f"; then
        # A wrong double makes everything downstream noise: its own
        # semantics tests gate the build, and run before the key is
        # written, so a failed double is never taken for built.
        rustc "${FLAGS[@]}" --test --crate-name "${name}_shim_tests" "$f" -o "$OUT/${name}_shim_tests"
        "$OUT/${name}_shim_tests" --quiet >/dev/null ||
            { echo "build.sh: semantics tests of shims/$name.rs FAILED" >&2; exit 1; }
    fi
    compile "shim-$name" "$k" "$OUT/lib$name.rlib" --crate-type rlib --crate-name "$name" "$f"
    RLIB[$name]="$OUT/lib$name.rlib"
done

# --- 2. workspace crates, in dependency order -------------------------------
declare -A PKG DEPS      # crate dir -> package name / dependency names
declare -A DIR_OF        # package name -> crate dir
for toml in crates/*/Cargo.toml; do
    dir=$(basename "$(dirname "$toml")")
    PKG[$dir]=$(awk -F'"' '/^\[/{s=$0} s=="[package]" && /^name *=/{print $2; exit}' "$toml")
    DEPS[$dir]=$(awk '/^\[/{s=$0} s=="[dependencies]" && /^[A-Za-z0-9_-]+(\.workspace)? *=/{split($1,a,"."); print a[1]}' "$toml" | tr '\n' ' ')
    DIR_OF[${PKG[$dir]}]=$dir
done

wrapper_of() {
    local f
    for f in "benchmark/wrappers/$1.rs" "benchmark/wrappers/$1.rs.in"; do
        if [ -f "$f" ]; then echo "$f"; return 0; fi
    done
}

build_crate() {
    local dir=$1 crate=${PKG[$1]//-/_} whole=1 externs=() depkeys=() d dd
    for d in ${DEPS[$dir]}; do
        dd=${DIR_OF[$d]:-}
        if [ -n "$dd" ]; then
            [ "${STATE[$dd]}" = whole ] || whole=0
            [ "${STATE[$dd]}" = not-built ] && continue
            d=${d//-/_}
        elif [ -z "${RLIB[$d]:-}" ]; then
            whole=0
            continue
        fi
        externs+=(--extern "$d=${RLIB[$d]}")
        depkeys+=("${KEY[${dd:+crate-}${dd:-shim-$d}]}")
    done
    local srcs wrapper src
    mapfile -t srcs < <(find "crates/$dir/src" -name '*.rs' | sort)
    wrapper=$(wrapper_of "$dir")
    if [ "$whole" = 1 ]; then
        STATE[$dir]=whole
        src="crates/$dir/src/lib.rs"
    elif [ -n "$wrapper" ]; then
        STATE[$dir]=wrapped
        src=$wrapper
        srcs+=("$wrapper")
        if [[ $wrapper == *.in ]]; then
            # Instantiate the template: checkout path, and `WireMsg` cut
            # from the real crate root (attributes and docs included).
            src="$OUT/gen/$dir.rs"
            awk '/^\/\/\/|^#\[/ {buf = buf $0 "\n"; next}
                 /^pub struct WireMsg|^impl WireMsg/ {on = 1; printf "%s", buf}
                 {if (on) print; if (on && /^}/) on = 0; buf = ""}' \
                "crates/$dir/src/lib.rs" >"$OUT/gen/$dir.cut"
            grep -q '^pub struct WireMsg' "$OUT/gen/$dir.cut" && grep -q '^impl WireMsg' "$OUT/gen/$dir.cut" ||
                { echo "build.sh: could not cut WireMsg out of crates/$dir/src/lib.rs" >&2; exit 1; }
            sed -e "s|@ROOT@|$ROOT|g" -e "/@WIREMSG@/{r $OUT/gen/$dir.cut" -e 'd}' "$wrapper" >"$src"
        fi
    else
        STATE[$dir]=not-built
        return 0
    fi
    # A wrapper leaves out the callers of some crate-private items.
    local lint=()
    [ "${STATE[$dir]}" = wrapped ] && lint=(-A dead_code)
    compile "crate-$dir" "$(key "${depkeys[@]}" -- "${srcs[@]}")" "$OUT/lib$crate.rlib" \
        --crate-type rlib --crate-name "$crate" "${lint[@]}" "${externs[@]}" "$src"
    RLIB[$crate]="$OUT/lib$crate.rlib"
}

pending=("${!PKG[@]}")
while [ ${#pending[@]} -gt 0 ]; do
    next=()
    for dir in $(printf '%s\n' "${pending[@]}" | sort); do
        ready=1
        for d in ${DEPS[$dir]}; do
            dd=${DIR_OF[$d]:-}
            [ -n "$dd" ] && [ -z "${STATE[$dd]:-}" ] && ready=0
        done
        if [ "$ready" = 1 ]; then build_crate "$dir"; else next+=("$dir"); fi
    done
    [ ${#next[@]} -lt ${#pending[@]} ] || { echo "build.sh: dependency cycle among: ${next[*]}" >&2; exit 1; }
    pending=("${next[@]}")
done

# --- 3. the harness -------------------------------------------------------
externs=()
depkeys=()
for name in "${!RLIB[@]}"; do
    externs+=(--extern "$name=${RLIB[$name]}")
done
for unit in $(printf '%s\n' "${!KEY[@]}" | sort); do depkeys+=("${KEY[$unit]}"); done
mapfile -t srcs < <(find benchmark/src -name '*.rs' | sort)
compile harness "$(key "${depkeys[@]}" -- "${srcs[@]}")" "$OUT/bench" \
    "${LINK_FLAGS[@]}" --crate-name bench "${externs[@]}" benchmark/src/main.rs

# --- 4. what was built, for every result the harness prints ------------------
list() { for dir in $(printf '%s\n' "${!STATE[@]}" | sort); do [ "${STATE[$dir]}" = "$1" ] && printf '%s ' "${PKG[$dir]}"; done; }
{
    echo "whole=$(list whole)"
    echo "wrapped=$(list wrapped)"
    echo "not_built=$(list not-built)"
    echo "bytes_impl=shim"
    echo "rustc=$(rustc -V)"
} >"$OUT/build_info.txt"
if [ "$REBUILT" = 1 ]; then
    awk -v a="$T0" -v b="$(date +%s.%N)" 'BEGIN{printf "%.3f\n", b-a}' >"$OUT/build_s"
fi
sed 's/^/build: /' "$OUT/build_info.txt" >&2
echo "build: $([ "$REBUILT" = 1 ] && echo rebuilt || echo cached) in $OUT ($(cat "$OUT/build_s") s for the last rebuild)" >&2
