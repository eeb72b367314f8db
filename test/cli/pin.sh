#!/bin/sh
# Regenerate the pinned CLI outputs into the current directory.
#
#   sh pin.sh RTHV_SIM RTHV_TRACE
#
# Each file is compared against its .expected twin by the diff rules in
# this directory's dune file.
set -eu
sim=$1
trace=$2

$sim --monitor dmin --count 500 --metrics-out sim_dmin.json > /dev/null
$sim --monitor dmin --count 500 --metrics-out sim_dmin.prom > /dev/null
$sim --monitor dmin --count 500 --slo --metrics-out sim_dmin_slo.json > /dev/null
$sim --monitor dmin --count 500 --slo --metrics-out sim_dmin_slo.prom > /dev/null
$sim --monitor dmin --count 500 --slo > sim_dmin_slo.out
$sim --experiment fig6a --metrics-out fig6a.json > /dev/null

$trace -s quickstart --metrics json > /dev/null 2> trace_metrics.json
$trace -s avionics_ima --partition 2 --to-us 56000 --format jsonl \
  -o partition.jsonl --metrics json > partition.out
$trace --from-jsonl partition.jsonl --partition 1 --format jsonl \
  -o partition_reimport.jsonl --metrics json > partition_reimport.out

for s in quickstart automotive_ecu; do
  $trace report -s $s > report_$s.txt
  $trace report -s $s --json > report_$s.json
done

$trace -s quickstart --to-store quickstart.rts > /dev/null
$trace query --store quickstart.rts --agg latency -g class --json --slo \
  -s quickstart > query_latency.json
$trace query --store quickstart.rts --agg count -g kind --json \
  > query_count.json
rm quickstart.rts
