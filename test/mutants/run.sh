#!/bin/sh
# Recorded mutants: each test/mutants/*.patch is a small, deliberate bug
# that the test it names must catch.  For every patch this copies the
# tree (without _build and .git) to a temporary directory, applies the
# patch, builds the named test executable there and runs it, expecting
# it to fail.
#
#   sh test/mutants/run.sh            # every recorded mutant
#   sh test/mutants/run.sh NAME...    # only these (file names without .patch)
#
# A patch's header names its test on one line, "test: EXE ARGS...", where
# EXE is an executable under test/ and ARGS its command line (an Alcotest
# group and case index, say).  Every mutant gets one line of report.  The
# exit status is 0 only when every mutant is killed; a mutant that
# survives, a patch that no longer applies and a mutant that no longer
# builds each make it 1.
set -u

dir=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$dir/../.." && pwd)

if [ $# -eq 0 ]; then
  set -- "$dir"/*.patch
else
  names=$*
  set --
  for n in $names; do set -- "$@" "$dir/$n.patch"; done
fi

status=0
for patch in "$@"; do
  name=$(basename "$patch" .patch)
  if [ ! -f "$patch" ]; then
    echo "$name: no such mutant"
    status=1
    continue
  fi
  line=$(sed -n 's/^test: //p' "$patch" | head -n 1)
  if [ -z "$line" ]; then
    echo "$name: no 'test:' line in its header"
    status=1
    continue
  fi
  exe=${line%% *}
  args=${line#"$exe"}
  tmp=$(mktemp -d)
  (cd "$root" && tar -c --exclude=./_build --exclude=./.git .) | tar -x -C "$tmp"
  if ! (cd "$tmp" && git apply "$patch") > "$tmp/apply.log" 2>&1; then
    echo "$name: STALE, the patch no longer applies:"
    sed 's/^/  /' "$tmp/apply.log"
    status=1
  elif ! dune build --root "$tmp" "./test/$exe" > "$tmp/build.log" 2>&1; then
    echo "$name: BUILD FAILED with the patch applied:"
    sed 's/^/  /' "$tmp/build.log" | head -n 20
    status=1
  elif (cd "$tmp" && "./_build/default/test/$exe" $args) > "$tmp/test.log" 2>&1
  then
    echo "$name: SURVIVED $line"
    status=1
  else
    echo "$name: killed by $line"
  fi
  rm -rf "$tmp"
done
exit $status
