#!/usr/bin/env bash
# Byte identity between two builds of this repository on one host.
#
#   ci/byte_identity.sh BASE_BUILD HEAD_BUILD REBASELINE_FILE
#
# Runs the same commands with each build's binaries, each in its own
# directory under the current one (byte-identity-base/, byte-identity-head/):
#   - quickstart --iterations 3 --episodes 2 --checkpoint quickstart.ckpt,
#     then cmp of the two θ checkpoints and diff of quickstart's
#     `serve_fnv1a <hash>` line (φ* and the query emissions of its served
#     task, which carry the eval path's bits: at this budget every tag is O);
#   - at the same flags, runs that print one `theta_fnv1a <row> <hash>` line
#     per trained row, then diff of those lines run by run:
#     ablation_second_order and table5_ablation (FEWNER and MAML, first and
#     second order, kConcat), table2_intra_domain --methods all --datasets
#     FG-NER --shots 1 (the ten methods, the ELMo/Flair GRU through their CRF
#     heads), extension_methods (Reptile, MatchingNet) and ablation_encoder
#     (the BiGRU and BiLSTM encoders).
# A line kind, or a run, the base does not print yet is skipped with a notice.
# REBASELINE_FILE lists, one per line, the rows a declared re-baseline may
# move: a theta_fnv1a row name exactly as printed, `quickstart` for the
# checkpoint, or `serve_fnv1a` for the serving line.  Empty lines are
# ignored.  Exits 1 on any other difference.
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
    "$build/bench/table2_intra_domain" --methods all --datasets FG-NER --shots 1 \
      --iterations 3 --episodes 2 > table2.txt
    "$build/bench/extension_methods" --iterations 3 --episodes 2 > extension.txt
    "$build/bench/ablation_encoder" --iterations 3 --episodes 2 > encoder.txt
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

serve_line() { { grep '^serve_fnv1a ' "byte-identity-$1/quickstart.txt" || true; }; }
if listed serve_fnv1a; then
  echo "serve_fnv1a: listed in $3, not compared"
elif [ -z "$(serve_line base)" ]; then
  echo "serve_fnv1a: the base prints no line, so there is nothing to compare"
elif [ "$(serve_line base)" = "$(serve_line head)" ]; then
  echo "serve_fnv1a: identical"
else
  diff <(serve_line base) <(serve_line head) || true
  status=1
fi

# The theta_fnv1a lines of one side's run $2, without the rows the
# re-baseline lists.
theta_lines() {
  { grep '^theta_fnv1a ' "byte-identity-$1/$2.txt" || true; } |
    while IFS= read -r line; do
      row=${line#theta_fnv1a }
      row=${row% *}
      listed "$row" || printf '%s\n' "$line"
    done
}
for run in ablation table5 table2 extension encoder; do
  theta_lines base "$run" > "byte-identity-base/$run.theta"
  theta_lines head "$run" > "byte-identity-head/$run.theta"
  if ! grep -q '^theta_fnv1a ' "byte-identity-base/$run.txt"; then
    echo "theta_fnv1a ($run): the base prints no lines, so there is nothing to compare"
  elif diff "byte-identity-base/$run.theta" "byte-identity-head/$run.theta"; then
    echo "theta_fnv1a ($run): $(wc -l < "byte-identity-head/$run.theta") rows identical"
  else
    status=1
  fi
done
exit $status
