#!/bin/sh
# Set byte 3 of the first block's header length, then of its body length,
# to 0x7f in the quickstart store, so that each declares ~2 GB, and query
# each copy under a 2 GB address-space limit.  Prints each query's stderr
# and exit status: a corrupt length is reported, not allocated.
#
#   sh corrupt_store.sh RTHV_TRACE
set -u
trace=$1

$trace -s quickstart --to-store store.rts > /dev/null
# The first block starts after the 18-byte magic line, the kind count and
# the 11 arity bytes; its lengths are little-endian u32s.
first=30
header_len=$(od -An -tu4 -j $first -N 4 store.rts | tr -d ' ')

flip () {
  cp store.rts "$1.rts"
  printf '\177' | dd of="$1.rts" bs=1 seek="$2" count=1 conv=notrunc 2> /dev/null
  (ulimit -v 2000000; $trace query --store "$1.rts" --agg count 2>&1 > /dev/null)
  echo "exit $?"
}

flip header_len $((first + 3))
flip body_len $((first + 4 + header_len + 3))
rm -f store.rts header_len.rts body_len.rts
