#!/usr/bin/env bash
# Dump everything a refactor of internal/core must keep bit-identical, as
# files under OUT, so two checkouts can be compared with `diff -r`:
#
#   (cd parent && bash docs/bit-identity.sh /tmp/bi-parent)
#   (cd change && bash docs/bit-identity.sh /tmp/bi-change)
#   diff -r /tmp/bi-parent /tmp/bi-change
#
# Covers: all-vs-all edge TSV + -stats (edges, Stats, virtual time, wire
# bytes, peak bytes) for {exact, -subs 10} x Blocks {1,4} x {shared, codec,
# tcp}; build-index rank files (exact and substitute; compare with cmp, the
# diff -r above does); query hit lists against both indexes. Build-index
# -stats (virtual build time) goes to OUT/buildtime-*.log, named apart so a
# reviewer can exclude it: that one number is allowed to move.
#
# Every kernel is covered: the rows above run the default -align xd; sw, wfa,
# ug and the ug+wfa cascade each get the exact, Blocks 1, shared, 4-node row
# (avsa-subs0-b1-shared-ALIGN), and ug+wfa also runs -subs 10 over 4 blocks
# (avsa-subs10-b4-shared-ug+wfa) so its per-stage -stats lines are compared.
#
# The -subs 10 run is repeated at 1, 9 and 16 nodes. Those rows are checked
# here as well as dumped: the edge TSV and the counters of -stats (everything
# above "virtual time") must equal the 4-node run's, or the script exits 1
# after writing everything — the graph does not depend on the rank count.
# The Blocks 4 rows are checked the same way against the Blocks 1 shared row
# of their -subs, on every transport: a wave count moves the bills, never
# the graph or a counter (nnz(B) counts the pairs a run owns, not what a
# split happens to form).
set -euo pipefail
out=${1:?usage: bit-identity.sh OUT}
mkdir -p "$out"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/pastis" ./cmd/pastis
go build -o "$bin/datagen" ./cmd/datagen
"$bin/datagen" -kind scope -families 8 -seed 5 -out "$out/db.fa"
status=0
# Every third record is the query batch.
awk '/^>/{n++} n%3==1' "$out/db.fa" > "$out/queries.fa"

for subs in 0 10; do
  for blocks in 1 4; do
    for transport in shared codec tcp; do
      tag="subs$subs-b$blocks-$transport"
      "$bin/pastis" -in "$out/db.fa" -nodes 4 -subs "$subs" -ck 1 -blocks "$blocks" \
        -transport "$transport" -tcp-logdir "$bin/logs-$tag" -stats \
        -out "$out/avsa-$tag.tsv" 2> "$out/avsa-$tag.raw"
      # The tcp socket ledger is wall-clock time: not part of the contract.
      grep -v '^tcp comm wall' "$out/avsa-$tag.raw" > "$out/avsa-$tag.stats"
      rm "$out/avsa-$tag.raw"
    done
  done
  ref="$out/avsa-subs$subs-b1-shared"
  for transport in shared codec tcp; do
    row="$out/avsa-subs$subs-b4-$transport"
    if ! cmp -s "$row.tsv" "$ref.tsv" ||
      ! diff <(sed '/^virtual time/,$d' "$row.stats") <(sed '/^virtual time/,$d' "$ref.stats") >&2; then
      echo "bit-identity: -subs $subs Blocks 4 on $transport disagrees with Blocks 1 (graph or counters)" >&2
      status=1
    fi
  done
  if [ "$subs" = 10 ]; then
    ref="$out/avsa-subs10-b1-shared"
    for nodes in 1 9 16; do
      row="$out/avsa-subs10-b1-n$nodes"
      "$bin/pastis" -in "$out/db.fa" -nodes "$nodes" -subs 10 -ck 1 -stats \
        -out "$row.tsv" 2> "$row.stats"
      if ! cmp -s "$row.tsv" "$ref.tsv" ||
        ! diff <(sed '/^virtual time/,$d' "$row.stats") <(sed '/^virtual time/,$d' "$ref.stats") >&2; then
        echo "bit-identity: $nodes nodes disagree with 4 nodes (graph or counters)" >&2
        status=1
      fi
    done
  fi
  idx="$out/index-subs$subs"
  "$bin/pastis" build-index -in "$out/db.fa" -index "$idx" -nodes 4 -subs "$subs" \
    -stats 2>&1 | grep -v '^pastis: indexed' > "$out/buildtime-subs$subs.log"
  for blocks in 1 3; do
    "$bin/pastis" query -index "$idx" -in "$out/queries.fa" -ck 1 -blocks "$blocks" \
      -stats -out "$out/query-subs$subs-b$blocks.tsv" 2> "$out/query-subs$subs-b$blocks.stats"
  done
done

for align in sw wfa ug ug+wfa; do
  tag="subs0-b1-shared-$align"
  "$bin/pastis" -in "$out/db.fa" -nodes 4 -subs 0 -ck 1 -blocks 1 -align "$align" -stats \
    -out "$out/avsa-$tag.tsv" 2> "$out/avsa-$tag.stats"
done
tag="subs10-b4-shared-ug+wfa"
"$bin/pastis" -in "$out/db.fa" -nodes 4 -subs 10 -ck 1 -blocks 4 -align ug+wfa -stats \
  -out "$out/avsa-$tag.tsv" 2> "$out/avsa-$tag.stats"
exit $status
