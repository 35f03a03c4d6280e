#!/usr/bin/env bash
# Regenerate the golden files pinned under tests/golden/.
#
# Usage: tools/update_goldens.sh [build-dir]   (default: build)
#
# Each <workload>.json is the raw byte output of
#   portend classify <workload> --json
# for one registry workload — the same bytes `classify --all --json`
# emits per array element — and the ctest suite golden_<workload>
# diffs against it byte-for-byte. fuzz_s42_b200.txt is the stdout of
#   portend fuzz --fuzz-seed 42 --budget 200 --jobs 1
# and golden_fuzz_s42 diffs against it. Regenerating therefore always
# produces a reviewable git diff: goldens only change when verdict
# behavior changes, and that diff is the re-review surface.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
PORTEND="$BUILD/portend"
if [[ ! -x "$PORTEND" ]]; then
    echo "error: $PORTEND not built (cmake --build $BUILD)" >&2
    exit 1
fi

mkdir -p tests/golden
workloads=$("$PORTEND" list | awk 'NR > 1 { print $1 }')
for w in $workloads; do
    "$PORTEND" classify "$w" --json > "tests/golden/$w.json"
    echo "regenerated tests/golden/$w.json"
done
"$PORTEND" fuzz --fuzz-seed 42 --budget 200 --jobs 1 \
    > tests/golden/fuzz_s42_b200.txt
echo "regenerated tests/golden/fuzz_s42_b200.txt"

echo
echo "Goldens regenerated. Review the diff before committing:"
git --no-pager diff --stat -- tests/golden || true
