#!/bin/sh
# A δ⁻ condition decoded from an empty list ("delta":[]) is a decode error
# naming the field, whether the config sits in a --batch directory or
# inside a certificate artifact given to --recheck: rthv_lint exits 1 with
# that message, never 125 (an uncaught exception).  The first "delta" list
# of one generated fleet config, and of the quickstart scenario's
# artifact, is emptied (each file is one line, so sed's first match is
# the file's).  Prints each case's exit status and output.
#
#   sh empty_delta.sh RTHV_LINT
set -u
lint=$1
rm -rf empty_delta_fleet empty_delta_certs
"$lint" --gen-batch 12 --seed 42 --out-dir empty_delta_fleet > /dev/null
"$lint" -s quickstart --certify --out-dir empty_delta_certs > /dev/null
empty_delta='s/"delta":\[[0-9,]*\]/"delta":[]/'
sed "$empty_delta" empty_delta_certs/quickstart.cert.json > empty_delta.cert.json
sed "$empty_delta" empty_delta_fleet/cfg-0001.json > empty_delta.json
mv empty_delta.json empty_delta_fleet/cfg-0001.json

case_ () {
  "$lint" "$@" > empty_delta.log 2>&1
  status=$?
  echo "rthv_lint $*"
  echo "  exit $status"
  sed 's/^/  /' empty_delta.log
}

case_ --batch empty_delta_fleet
case_ --recheck empty_delta.cert.json
rm -rf empty_delta_fleet empty_delta_certs empty_delta.cert.json empty_delta.log
