#!/usr/bin/env bash
# Reachable production code: every non-test function under internal/ is
# linked into at least one binary (cmd/ppdbscan, examples/*, bench), or is
# on .github/reachable-allowlist.txt with a reason.
#
#   bash .github/reachable.sh
#
# The binaries are built with inlining off (-gcflags=all=-l), so a function
# a binary calls keeps its own symbol. nm names are normalised before the
# comparison: type arguments (from the first '['), closure and wrapper
# suffixes (.funcN, .gowrapN, .deferwrapN, -fm) and the assembly ABI
# suffix (.abi0) are stripped. Functions are read from the gofmt'd
# source: a top-level "func" line, its receiver type and its name.
#
# Allowlist lines are "<symbol or file> <reason> [note]", where the symbol is
# written as nm writes it without the module prefix
# (internal/spatial.(*Stack).GenOf) and a file entry (internal/x/y.go) covers
# every function in it. The reason is one of reference (a test compares
# the protocol against it), platform (built only off amd64), api
# (documented surface kept on purpose) or test-helper (only tests call
# it). Stale entries (reached, or no longer defined) fail the check too.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
allow="$root/.github/reachable-allowlist.txt"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$root"

mod="$(go list -m)"
mkdir -p "$tmp/bin"
for pkg in ./cmd/ppdbscan ./examples/*/; do
	go build -gcflags=all=-l -o "$tmp/bin/$(basename "$pkg")" "$pkg"
done
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/bench" .)

for b in "$tmp"/bin/*; do go tool nm "$b"; done |
	sed -nE 's/^ *[0-9a-f]+ [Tt] //p' |
	grep -F "$mod/internal/" |
	sed -E -e "s#^$mod/##" -e 's/\.abi0$//' -e 's/\[.*//' \
		-e 's/(\.(func|gowrap|deferwrap)[0-9]+|\.[0-9]+|-fm)+$//' |
	sort -u >"$tmp/linked"

# "<file> <symbol>" for every top-level function in non-test Go under
# internal/; init functions are linked with their package.
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	pkg="${f%/*}"
	sed -nE \
		-e 's/^func \([A-Za-z0-9_]* ?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/(*\1).\3/p' \
		-e 's/^func \([A-Za-z0-9_]* ?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\1.\3/p' \
		-e 's/^func ([A-Za-z0-9_]+).*/\1/p' "$f" |
		grep -vx 'init' | sed "s#^#$f $pkg.#" || true
done | sort -k2 >"$tmp/defined"

{ grep -vE '^[[:space:]]*(#|$)' "$allow" || true; } | awk '{print $1, $2}' >"$tmp/allow"
bad="$(awk '$2 !~ /^(reference|platform|api|test-helper)$/' "$tmp/allow")"
if [ -n "$bad" ]; then
	echo "allowlist entries without a reason (reference, platform, api or test-helper):"
	echo "$bad"
	exit 1
fi

# Unreached: defined, not linked, and covered by no allowlist entry.
awk 'FILENAME == ARGV[1] { linked[$1] = 1; next } !($2 in linked)' "$tmp/linked" "$tmp/defined" >"$tmp/unreached"
missing="$(awk 'FILENAME == ARGV[1] { ok[$1] = 1; next } !($1 in ok) && !($2 in ok) { print $2 "  (" $1 ")" }' "$tmp/allow" "$tmp/unreached")"
# Stale: an allowlisted symbol that is linked or no longer defined, or a
# file entry with nothing unreached left in it.
stale="$(awk 'FILENAME == ARGV[1] { u[$1] = 1; u[$2] = 1; next } !($1 in u) { print $1 }' "$tmp/unreached" "$tmp/allow")"

status=0
if [ -n "$missing" ]; then
	echo "non-test functions under internal/ that no binary links (delete them, or allowlist them with a reason):"
	echo "$missing"
	status=1
fi
if [ -n "$stale" ]; then
	echo "stale entries in .github/reachable-allowlist.txt (linked now, or gone):"
	echo "$stale"
	status=1
fi
exit $status
