#!/usr/bin/env bash
# Byte identity between two builds of this repository on one host.
#
#   ci/byte_identity.sh BASE_BUILD HEAD_BUILD REBASELINE_FILE
#
# Runs the same commands with each build's binaries, each in its own
# directory under the current one (byte-identity-base/, byte-identity-head/):
#   - quickstart --iterations 3 --episodes 2 --checkpoint quickstart.ckpt,
#     then cmp of the two θ checkpoints;
#   - ablation_second_order and table5_ablation at the same flags, then diff
#     of their `theta_fnv1a <row> <hash>` lines.
# REBASELINE_FILE lists, one per line, the rows a declared re-baseline may
# move: a theta_fnv1a row name exactly as printed, or `quickstart` for the
# checkpoint.  Empty lines are ignored.  Exits 1 on any other difference.
# Bits are compared on one host only: glibc picks its expf/logf variant at
# run time, so two hosts may differ.
set -euo pipefail

base_build=$(cd "$1" && pwd)
head_build=$(cd "$2" && pwd)
rebaseline=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")

listed() { grep -qxF -- "$1" "$rebaseline"; }

for side in base head; do
  build=$base_build
  [ "$side" = head ] && build=$head_build
  dir=byte-identity-$side
  rm -rf "$dir"
  mkdir -p "$dir"
  (
    cd "$dir"
    "$build/examples/quickstart" --iterations 3 --episodes 2 \
      --checkpoint quickstart.ckpt > quickstart.txt
    "$build/bench/ablation_second_order" --iterations 3 --episodes 2 > ablation.txt
    "$build/bench/table5_ablation" --iterations 3 --episodes 2 > table5.txt
  )
done

status=0
if listed quickstart; then
  echo "quickstart checkpoint: listed in $3, not compared"
elif cmp byte-identity-base/quickstart.ckpt byte-identity-head/quickstart.ckpt; then
  echo "quickstart checkpoint: identical"
else
  status=1
fi

# The theta_fnv1a lines of one side, without the rows the re-baseline lists.
theta_lines() {
  cat "byte-identity-$1/ablation.txt" "byte-identity-$1/table5.txt" |
    { grep '^theta_fnv1a ' || true; } |
    while IFS= read -r line; do
      row=${line#theta_fnv1a }
      row=${row% *}
      listed "$row" || printf '%s\n' "$line"
    done
}
theta_lines base > byte-identity-base/theta.txt
theta_lines head > byte-identity-head/theta.txt
if ! grep -q '^theta_fnv1a ' byte-identity-base/ablation.txt byte-identity-base/table5.txt; then
  echo "theta_fnv1a: the base prints no lines, so there is nothing to compare"
elif diff byte-identity-base/theta.txt byte-identity-head/theta.txt; then
  echo "theta_fnv1a: $(wc -l < byte-identity-head/theta.txt) rows identical"
else
  status=1
fi
exit $status
