#!/usr/bin/env bash
# Regenerate the golden files pinned under tests/golden/.
#
# Usage: tools/update_goldens.sh [build-dir]   (default: build)
#
# Each <workload>.json is the raw byte output of
#   portend classify <workload> --json
# for one registry workload — the same bytes `classify --all --json`
# emits per array element — and the ctest suite golden_<workload>
# diffs against it byte-for-byte. <w>_no_multi_path.json and
# <w>_no_multi_schedule.json add --no-multi-path / --no-multi-schedule
# for bbuf, ctrace and sqlite, whose verdict bytes those flags change
# (ctest golden_<w>_no_<stage>). fuzz_s42_b200.txt is the stdout of
#   portend fuzz --fuzz-seed 42 --budget 200 --jobs 1
# and golden_fuzz_s42 diffs against it. metrics_classify_all.json and
# metrics_fuzz_s42.json are the --metrics-out files of
#   portend classify --all --jobs 1
#   portend fuzz --fuzz-seed 42 --budget 200 --jobs 1
# (ctest golden_metrics_classify_all, golden_metrics_fuzz_s42).
# corpus/seed is the reproducer corpus its documented command writes,
#   portend fuzz --fuzz-seed 42 --budget 200 --corpus <dir>
# (CI's fuzz-smoke job diffs that output against it).
# Regenerating therefore always produces a reviewable git diff:
# goldens only change when verdict behavior or a counter changes, and
# that diff is the re-review surface.

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
for w in bbuf ctrace sqlite; do
    for stage in multi-path multi-schedule; do
        out="tests/golden/${w}_no_${stage//-/_}.json"
        "$PORTEND" classify "$w" --json "--no-$stage" > "$out"
        echo "regenerated $out"
    done
done
"$PORTEND" fuzz --fuzz-seed 42 --budget 200 --jobs 1 \
    > tests/golden/fuzz_s42_b200.txt
echo "regenerated tests/golden/fuzz_s42_b200.txt"
"$PORTEND" classify --all --jobs 1 \
    --metrics-out tests/golden/metrics_classify_all.json > /dev/null
echo "regenerated tests/golden/metrics_classify_all.json"
"$PORTEND" fuzz --fuzz-seed 42 --budget 200 --jobs 1 \
    --metrics-out tests/golden/metrics_fuzz_s42.json > /dev/null
echo "regenerated tests/golden/metrics_fuzz_s42.json"
# fuzz adds entries to an existing corpus, so write a fresh one and
# swap it in: an entry the command no longer writes must go.
tmp=$(mktemp -d)
"$PORTEND" fuzz --fuzz-seed 42 --budget 200 --corpus "$tmp/seed" > /dev/null
rm -rf corpus/seed
mv "$tmp/seed" corpus/seed
rmdir "$tmp"
echo "regenerated corpus/seed"

echo
echo "Goldens regenerated. Review the diff before committing:"
git --no-pager diff --stat -- tests/golden corpus/seed || true
git status --short -- tests/golden corpus/seed || true
