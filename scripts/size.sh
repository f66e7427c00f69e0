#!/usr/bin/env bash
# size.sh — the four numbers every CHANGES.md entry restates: lines of
# non-test Go outside benchmark/, lines of test Go, //fpvet:allow
# annotations in library code (the CI fpvet job's budget counts the same
# way) and the flags `matchd -h` lists. Run from anywhere in the
# repository; pass paths to also print their line counts, e.g.
#
#   scripts/size.sh internal/matchsvc/{client,mux,pool,retry}.go
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

lines() { xargs -0 cat | wc -l | tr -d ' '; }

echo "non-test Go outside benchmark/: $(find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' -print0 | lines)"
echo "test Go outside benchmark/:     $(find . -name '*_test.go' -not -path './benchmark/*' -print0 | lines)"
echo "//fpvet:allow in library code:  $(grep -rn 'fpvet:allow' --include='*.go' . | grep -vc '_test.go\|testdata\|internal/analysis\|benchmark/' || true)"
echo "matchd -h flags:                $(go run ./cmd/matchd -h 2>&1 | grep -c '^  -')"
if [ "$#" -gt 0 ]; then
	wc -l "$@"
fi
