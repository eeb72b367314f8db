#!/bin/sh
# Dead-export gate for CI: every `val` a library interface (lib/*/*.mli)
# declares should be used by some code outside its own module.  The rule is
# deliberately rough and toolchain-free (no compiler, no ocamlformat), like
# tools/check_format.sh: a `val NAME` of lib/D/m.mli counts as used when any
# .ml file under lib/, bin/, bench/ or examples/ other than lib/D/m.ml
# contains NAME as a word.  Tests do not count: a name only tests use is
# dead API.
#
# Names the scan reports must be listed in tools/dead_exports.allow (one
# Module.name per line, # comments allowed), which keeps the tested
# paper-equation API and the test-facing entry points on purpose.  Any
# other reported name fails the gate: delete it, use it, or allow it.
#
# Usage: tools/dead_exports.sh [ROOT]   (default: the repository root)

set -u

root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
cd "$root" || exit 2
allow=tools/dead_exports.allow

mlfiles=$(find lib bin bench examples -name _build -prune -o \
  -name '*.ml' -type f -print | LC_ALL=C sort)

dead=$(
  for mli in $(find lib -name _build -prune -o -name '*.mli' -type f -print |
    LC_ALL=C sort); do
    own=${mli%i}
    others=$(echo "$mlfiles" | grep -vxF "$own")
    base=$(basename "$own" .ml)
    module=$(echo "$base" | cut -c1 | tr a-z A-Z)$(echo "$base" | cut -c2-)
    for name in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" |
      LC_ALL=C sort -u); do
      # shellcheck disable=SC2086 # word-split the file list on purpose
      grep -qw -- "$name" $others || echo "$module.$name"
    done
  done
)

allowed=$(sed -e 's/#.*//' -e 's/[[:space:]]//g' -e '/^$/d' "$allow")
new=$(echo "$dead" | grep -v '^$' | grep -vxF "$allowed")

if [ -z "$new" ]; then
  echo "dead exports: $(echo "$dead" | grep -c .) allowed, none new"
  exit 0
fi
echo "dead exports: used by nothing outside their own module:" >&2
echo "$new" | sed 's/^/  /' >&2
echo "delete them, use them, or list them in $allow" >&2
exit 1
