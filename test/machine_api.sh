#!/bin/sh
# Outside perfsuite/, code names machine state and configuration through
# Machine and runs programs through Compile; Interp is only Compile's
# differential oracle. Given the OCaml sources to check, print every line
# that names Interp other than as Interp.call, Interp.run or a {!Interp...}
# doc reference, or that opens, includes or aliases the module, and fail
# if there is one. Interp's own interp.ml and interp.mli are exempt.
#   sh test/machine_api.sh lib/*/*.ml lib/*/*.mli bin/*.ml ...
status=0
for f in "$@"; do
  case "$f" in */pmcheck/interp.ml | */pmcheck/interp.mli) continue ;; esac
  if grep -noE '([{]!)?Interp[.][A-Za-z0-9_]*' "$f" |
    grep -vE ':([{]!Interp.*|Interp[.](call|run))$' |
    sed "s|^|$f:|" | grep .; then
    status=1
  fi
  if grep -nE '(open|include|module +[A-Za-z0-9_]+ *=) *(Hippo_pmcheck[.])?Interp\b' "$f" |
    sed "s|^|$f:|" | grep .; then
    status=1
  fi
done
[ "$status" = 0 ] || echo "name Machine and Compile here; Interp is the test oracle" >&2
exit "$status"
