#!/usr/bin/env bash
# Mutation check: each patch in crates/check/mutants/ plants one bug in
# the real sources, and the check its header names must then fail.
#
# Usage: scripts/mutants.sh [PATCH...]   (default: crates/check/mutants/*.patch)
#
# A patch opens with "Key: value" header lines; `git apply` skips them
# and reads the diff that follows.
#   Mutant:  what the patch breaks
#   Build:   the command that builds what the check runs
#   Check:   the command that must fail on the mutant
#   Expect:  a fixed string the failing check must print, so a mutant
#            only counts as killed for the reason the header gives
#   Replay:  (stress checks) attempts within which the check, re-run with
#            `--replay SEED` on its first convicting seed, must convict
#            again; the seed's schedule pressure is a pure function of it
#
# Every mutant runs in one temporary copy of the working tree (the files git
# tracks or would track) with one CARGO_TARGET_DIR, so each rebuilds only
# the crates its patch touches; the copy is reset between mutants. The
# script fails when a patch does not apply, a build fails, a check fails
# without its Expect string, or a mutant survives.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$PWD

patches=("$@")
((${#patches[@]})) || patches=(crates/check/mutants/*.patch)

work=$(mktemp -d "${TMPDIR:-/tmp}/cbtree-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
copy=$work/tree
mkdir "$copy"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done |
    tar --null -T - -cf - | tar -xf - -C "$copy"
git -C "$copy" init -q
git -C "$copy" add -Af .
export CARGO_TARGET_DIR=$work/target

now() { date +%s%N; }
secs() { awk -v ns="$1" 'BEGIN { printf "%.1f", ns / 1e9 }'; }
# The value of header field $1 in patch $2 (lines before the diff).
field() { sed -n "/^diff --git/q; s/^$1: *//p" "$2" | head -n 1; }
# Runs command $1 in the copy, output to $2; true iff it failed and
# printed the Expect string $3.
convicts() { ! (cd "$copy" && bash -c "$1") > "$2" 2>&1 && grep -qF -- "$3" "$2"; }

start=$(now)
failures=0
for patch in "${patches[@]}"; do
    [[ $patch == /* ]] || patch=$repo/$patch
    name=$(basename "$patch" .patch)
    log=$work/$name.log
    build=$(field Build "$patch")
    check=$(field Check "$patch")
    expect=$(field Expect "$patch")
    replay=$(field Replay "$patch")
    verdict=killed
    git -C "$copy" checkout -q -- . && git -C "$copy" clean -qfd
    t0=$(now)
    t1=$t0
    if [[ -z $build || -z $check || -z $expect ]]; then
        verdict="FAIL: the header lacks Build, Check or Expect"
    elif ! git -C "$copy" apply "$patch" 2> "$log"; then
        verdict="FAIL: the patch does not apply"
    elif ! (cd "$copy" && bash -c "$build") >> "$log" 2>&1; then
        t1=$(now)
        verdict="FAIL: the mutant does not build"
    else
        t1=$(now)
        if ! convicts "$check" "$log" "$expect"; then
            verdict="FAIL: survived (no failure printing \"$expect\")"
        elif [[ -n $replay ]]; then
            seed=$(awk '$NF == "FAIL" && $2 ~ /^[0-9]+$/ { print $2; exit }' "$log")
            verdict="FAIL: seed ${seed:-?} did not convict again in $replay replays"
            for ((i = 1; i <= replay; i++)); do
                if [[ -n $seed ]] && convicts "$check --replay $seed" "$log.replay" "$expect"; then
                    verdict="killed, seed $seed replayed on attempt $i"
                    break
                fi
            done
        fi
    fi
    t2=$(now)
    printf '    %-28s build %6s s  check %6s s  %s\n' "$name" \
        "$(secs $((t1 - t0)))" "$(secs $((t2 - t1)))" "$verdict"
    if [[ $verdict == FAIL* ]]; then
        failures=$((failures + 1))
        tail -n 20 "$log" | sed 's/^/        /'
    fi
done
echo "    total        $(secs $(($(now) - start))) s, ${#patches[@]} mutants, $failures failing"
((failures == 0))
