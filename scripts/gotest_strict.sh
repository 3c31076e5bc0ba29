#!/usr/bin/env bash
# go test, but a package that runs no tests is a failure: `go test -run REGEX`
# exits 0 when REGEX matches nothing, so a renamed or deleted test would turn
# an acceptance target into a silent no-op. Arguments go to `go test` as given.
set -euo pipefail
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
"${GO:-go}" test "$@" 2>&1 | tee "$out"
if grep -q 'no tests to run' "$out"; then
    echo "gotest_strict: a package above matched no tests for: go test $*" >&2
    exit 1
fi
