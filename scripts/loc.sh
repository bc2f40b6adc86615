#!/usr/bin/env bash
# Counts non-comment C++ lines: lines of *.cpp and *.h files under src/,
# tests/, examples/, tools/ and bench/ that are not blank and, after leading
# whitespace, do not start with //, /* or *. Prints one total per directory
# and the sum, so two checkouts compare by one rule:
#
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh DIR        # the checkout at DIR
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for dir in src tests examples tools bench; do
  count=0
  if [ -d "$dir" ]; then
    count=$(find "$dir" -type f \( -name '*.cpp' -o -name '*.h' \) -print0 |
      sort -z | xargs -0 -r cat |
      grep -Evc '^[[:space:]]*($|//|/\*|\*)' || true)
  fi
  printf '%-9s %7d\n' "$dir" "$count"
  total=$((total + count))
done
printf '%-9s %7d\n' total "$total"
