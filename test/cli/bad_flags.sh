#!/bin/sh
# Invalid numeric flags: each is rejected before any simulation starts,
# with a message naming the flag.  A value out of range at parse time is
# a command-line error (exit 124, like a malformed value); a config the
# parsed values cannot form is rejected by the tool (exit 1, like
# --budget 0).  The last rthv_sim case is valid but completes no IRQ: it
# must exit 0, not fail on an empty latency sample.  Prints each
# case's exit status and error message: its stderr up to cmdliner's usage
# hint, joined into one line, so the pin does not depend on where the
# message wraps.
#
#   sh bad_flags.sh RTHV_SIM RTHV_TRACE RTHV_LINT RTHV_ANALYZE
set -u
sim=$1
trace=$2
lint=$3
analyze=$4

case_ () {
  tool=$1
  shift
  "$tool" "$@" > /dev/null 2> bad_flags.err
  status=$?
  message=$(sed '/^Usage:/,$d' bad_flags.err | tr -s ' \n' '  ' | sed 's/ $//')
  echo "$(basename "$tool" .exe) $*"
  echo "  exit $status: ${message:-(nothing on stderr)}"
}

case_ $sim --count 0
case_ $sim --count=-5
case_ $sim --mean-us 0
case_ $sim --cbh-us 0
case_ $sim --cth-us 0
case_ $sim --slots 0,6000
case_ $sim --weighted-cycle-us 0
case_ $sim --slots=50000000000000000,6000,2000
case_ $sim --slots=20000000000000000,20000000000000000
case_ $sim --weighted-cycle-us 23058430092136939
case_ $sim --jobs=0
case_ $sim --dmin-us=-5 -m dmin
case_ $sim --budget 0
case_ $sim --trace nosuch
case_ $sim --mean-us 23058430092136939 --count 3
case_ $trace --jobs=0
case_ $trace --capacity 0
case_ $trace profile --repeat 0
case_ $lint --jobs=0
case_ $lint --gen-batch=-3 --out-dir bad_flags_fleet
case_ $analyze --dmin-us 0
case_ $analyze --max-util=-1
rm -rf bad_flags.err bad_flags_fleet
