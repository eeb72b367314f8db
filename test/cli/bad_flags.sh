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
#   sh bad_flags.sh RTHV_SIM RTHV_TRACE RTHV_LINT RTHV_ANALYZE RTHV_CERTIFY
set -u
sim=$1
trace=$2
lint=$3
analyze=$4
certify=$5

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
case_ $trace -s quickstart --partition=-1
case_ $trace query --store bad_flags.rts --partition=-1
case_ $lint --jobs=0
case_ $lint --gen-batch=-3 --out-dir bad_flags_fleet
case_ $analyze --dmin-us 0
case_ $analyze --max-util=-1
case_ $certify --ctx-us=-50 -p a:14000:
case_ $certify --cycle-us=-5 -p a:14000:
case_ $certify --cycle-us 100000000000000000 -p a:100000000000000000:
case_ $certify --cycle-us 46116860184273879 -p a:14000:
case_ $certify --ctx-us 100000000000000000 -p a:14000:
case_ $certify -p a:100000000000000000:
case_ $certify -p a:14000:t,100000000000000000,5
case_ $certify -p a:14000: -g nic:1544:100000000000000000
case_ $certify --cycle-us 23058430092136939 -p a:20000000000000000: -p b:20000000000000000:

# In-range values whose eq.-(14) terms pass max_int cycles inside the
# analysis: the interference budget saturates and its partition is NOT
# SCHEDULABLE (exit 2), never an uncaught exception or a budget wrapped
# negative under "certificate HOLDS".  In the third case the budget fits
# but the task's busy window reaches windows whose interference does not:
# it diverges instead of wrapping into a fixed point.  Prints the exit
# status, stderr and the verdict lines.
verdict_ () {
  tool=$1
  shift
  "$tool" "$@" > bad_flags.txt 2> bad_flags.err
  status=$?
  echo "$(basename "$tool" .exe) $*"
  message=$(tr -s ' \n' '  ' < bad_flags.err | sed 's/ $//')
  echo "  exit $status: ${message:-(nothing on stderr)}"
  grep -E '^(partition|certificate) ' bad_flags.txt | sed 's/^/  /'
}

verdict_ $certify --cycle-us 23058430092136939 -p a:23058430092136939: -g x:1:1
verdict_ $certify --cycle-us 23058430092136939 -p a:11529215046068469: \
  -p b:11529215046068470: -g x:1:11529215046068469
verdict_ $certify --cycle-us 2000 -p a:1000:t,10000000000,5 -p b:1000: \
  -g x:1:150000000
rm -rf bad_flags.err bad_flags.txt bad_flags_fleet
