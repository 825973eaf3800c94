#!/usr/bin/env bash
# Usage: tests-exist.sh 'TestA|TestB' PKG...
#
# Fails unless every name of the alternation (a CI step's -run list, names
# joined by |) is a test of one of the packages. go test passes when a
# -run pattern matches nothing, so a renamed or deleted test would
# otherwise drop out of the step without a word.
set -euo pipefail
names=$1
shift
missing=0
IFS='|' read -ra list <<< "$names"
for name in "${list[@]}"; do
	listed=$(go test -list "^${name}\$" "$@")
	if ! grep -qx "$name" <<< "$listed"; then
		echo "tests-exist: no test named $name in $*" >&2
		missing=1
	fi
done
exit $missing
