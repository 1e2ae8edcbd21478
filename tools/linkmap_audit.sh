#!/usr/bin/env bash
# Link-map audit: which hlsprof:: functions do the libraries define that
# no non-test binary keeps?
#
#   tools/linkmap_audit.sh <build-dir>
#
# Builds every tool, example and bench binary and perfbench's harness at
# -O0 with one section per function, links them with --gc-sections, and
# lists the library functions that no binary kept. Lambdas and the
# std::function/std::forward glue around them are left out. The rest
# must equal tools/linkmap_keep.txt, the functions kept on purpose for
# tests (reasons in CHANGES.md). Exits 1 on any difference in either
# direction: code only tests reach, or a keep entry that is gone or has
# a non-test user now. Inline and template members that nothing
# instantiates leave no symbol at all; grep the headers for those.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
B=$1
BINS="hlsprof-run hlsprof-reproduce quickstart batch_quickstart
      gemm_case_study pi_case_study trace_inspect omp_source
      stencil_case_study bench_sim bench_cache bench_telemetry bench_live"
FLAGS=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

cmake -S "$ROOT" -B "$B" "${FLAGS[@]}" >/dev/null
cmake -S "$ROOT/perfbench" -B "$B/pb" "${FLAGS[@]}" >/dev/null
# shellcheck disable=SC2086  # BINS is a list of target names
cmake --build "$B" -j "${JOBS:-4}" --target $BINS >/dev/null
cmake --build "$B/pb" -j "${JOBS:-4}" >/dev/null

syms() {
  nm -C --defined-only "$@" | awk '$2 ~ /^[TtWw]$/' | cut -d' ' -f3- |
    grep '^hlsprof::' |
    grep -v -e '{lambda' -e 'std::forward' -e 'std::_Any_data' |
    LC_ALL=C sort -u
}
syms "$B"/src/*/*.a > "$B/linkmap_defined.txt"
# shellcheck disable=SC2046
syms $(for t in $BINS; do ls "$B"/{tools,examples,bench}/"$t" 2>/dev/null; done) \
  "$B/pb/hlsprof-perfbench" > "$B/linkmap_kept.txt"
LC_ALL=C comm -23 "$B/linkmap_defined.txt" "$B/linkmap_kept.txt" \
  > "$B/linkmap_unkept.txt"

if diff -u "$ROOT/tools/linkmap_keep.txt" "$B/linkmap_unkept.txt"; then
  echo "linkmap audit: ok, $(wc -l < "$B/linkmap_unkept.txt") functions" \
       "kept for tests, all on tools/linkmap_keep.txt"
else
  echo "linkmap audit: the functions no non-test binary keeps (+) differ" \
       "from tools/linkmap_keep.txt (-)" >&2
  exit 1
fi
