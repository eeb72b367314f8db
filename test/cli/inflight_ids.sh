#!/bin/sh
# Two IRQs in flight whose ids are 2^40 apart, one of which completes:
# convert the JSONL to a store and run the latency query under a 2 GB
# address-space limit.  The fold's in-flight table is sized by the IRQs in
# flight, not by the distance between their ids, so the query reports the
# one completed span (class unknown: no top handler or verdict was seen).
#
#   sh inflight_ids.sh RTHV_TRACE
set -u
trace=$1

cat > inflight_ids.jsonl <<'JSONL'
{"t":0,"ev":"irq_raised","irq":0,"line":0}
{"t":1,"ev":"irq_raised","irq":1099511627776,"line":0}
{"t":2,"ev":"bottom_handler_done","irq":0,"partition":0}
JSONL
$trace --from-jsonl inflight_ids.jsonl --to-store inflight_ids.rts \
  --metrics none
(ulimit -v 2000000
 $trace query --store inflight_ids.rts --agg latency --group-by class --json)
echo "exit $?"
rm -f inflight_ids.jsonl inflight_ids.rts
