#!/bin/sh
# A certificate artifact rechecks as rthv_lint wrote it, final newline
# included, and a copy with one number changed is rejected by its digest.
# The quickstart scenario is certified, its artifact rechecked (exit 0),
# then a copy whose first "cycle" value has a 1 put in front is rechecked
# (exit 1, digest mismatch).  The artifact is one line, so sed's first
# match is the file's.  Prints each case's exit status and output.
#
#   sh certify_recheck.sh RTHV_LINT
set -u
lint=$1
rm -rf certify_recheck_certs
"$lint" -s quickstart --certify --out-dir certify_recheck_certs > /dev/null
cert=certify_recheck_certs/quickstart.cert.json
sed 's/"cycle":\([0-9]\)/"cycle":1\1/' "$cert" > certify_recheck.tampered.json
if cmp -s "$cert" certify_recheck.tampered.json; then
  echo "the tampered copy is identical to the artifact"
fi

case_ () {
  "$lint" "$@" > certify_recheck.log 2>&1
  status=$?
  echo "rthv_lint $*"
  echo "  exit $status"
  sed 's/^/  /' certify_recheck.log
}

case_ --recheck "$cert"
case_ --recheck certify_recheck.tampered.json
rm -rf certify_recheck_certs certify_recheck.tampered.json certify_recheck.log
