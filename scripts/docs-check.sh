#!/usr/bin/env bash
# Documentation hygiene gate (run by CI, see .github/workflows/ci.yml):
#
#   1. every C++ header under src/ and bench/ carries a `\file` doc header;
#   2. every relative markdown link in README.md and docs/ resolves to a
#      real file;
#   3. the CLI flags documented in docs/EXPERIMENTS.md (between the
#      cli-flags markers) exactly match what `dex_sim_cli --help` prints;
#   4. every summary-JSON field emitted by src/sim/scenario.cpp is named
#      in the summary-fields section of docs/EXPERIMENTS.md;
#   5. every backticked qualified name (`A::b`) in README.md and docs/
#      resolves: its last two components both occur, as whole words, in
#      one file under src/, bench/, examples/ or tools/.
#
# Usage: scripts/docs-check.sh [path-to-dex_sim_cli]
# The flag check is skipped with a warning when the binary is not built.
set -u
cd "$(dirname "$0")/.."

fail=0

# ---- 1. \file headers -------------------------------------------------------
while IFS= read -r f; do
  if ! grep -q '\\file' "$f"; then
    echo "docs-check: missing \\file doc header: $f"
    fail=1
  fi
done < <(find src bench -name '*.h' | sort)

# ---- 2. markdown relative links --------------------------------------------
for md in README.md docs/*.md; do
  dir=$(dirname "$md")
  # Extract markdown link targets, keep only relative file paths.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|\#*|mailto:*) continue ;;
    esac
    target="${target%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "docs-check: dangling link in $md: $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done

# ---- 3. CLI flag consistency ------------------------------------------------
cli="${1:-build/dex_sim_cli}"
if [ -x "$cli" ]; then
  help_flags=$("$cli" --help | grep -oE '\-\-[a-z][a-z0-9-]*' | sort -u)
  doc_flags=$(sed -n '/cli-flags:begin/,/cli-flags:end/p' docs/EXPERIMENTS.md |
    grep -oE '\-\-[a-z][a-z0-9-]*' | sort -u)
  if [ "$help_flags" != "$doc_flags" ]; then
    echo "docs-check: flag drift between '$cli --help' and docs/EXPERIMENTS.md"
    echo "--- only in --help:"
    comm -23 <(echo "$help_flags") <(echo "$doc_flags") | sed 's/^/    /'
    echo "--- only in docs/EXPERIMENTS.md:"
    comm -13 <(echo "$help_flags") <(echo "$doc_flags") | sed 's/^/    /'
    fail=1
  fi
else
  echo "docs-check: warning: $cli not built; skipping --help flag check"
fi

# ---- 4. summary-field coverage ---------------------------------------------
# Every JsonObject field name scenario.cpp's summary path emits must be
# documented (backticked) between the summary-fields markers — adding a
# summary field without documenting it fails CI.
emitted=$(grep -oE '\.add\("[a-z_0-9]+"' src/sim/scenario.cpp |
  sed -E 's/^\.add\("//; s/"$//' | sort -u)
documented=$(sed -n '/summary-fields:begin/,/summary-fields:end/p' \
  docs/EXPERIMENTS.md | grep -oE '`[a-z_0-9]+`' | tr -d '`' | sort -u)
missing=$(comm -23 <(echo "$emitted") <(echo "$documented"))
if [ -n "$missing" ]; then
  echo "docs-check: summary fields emitted by src/sim/scenario.cpp but not"
  echo "documented in docs/EXPERIMENTS.md (summary-fields section):"
  echo "$missing" | sed 's/^/    /'
  fail=1
fi

# ---- 5. qualified names in the docs ---------------------------------------
# A renamed or deleted type leaves its old name behind in prose; catch it.
# `std::` names are not ours, and `*_clock::now` (the det-lint doc's
# wildcard for the std clocks) is a pattern, not a name.
while IFS= read -r name; do
  case "$name" in
    std::*|_clock::now) continue ;;
  esac
  scope=${name%::*}
  scope=${scope##*::}
  member=${name##*::}
  if ! grep -rlwF -e "$scope" src bench examples tools |
      xargs -r grep -lwF -e "$member" | grep -q .; then
    echo "docs-check: stale qualified name in the docs: $name"
    fail=1
  fi
done < <(grep -ohE '`[^`]+`' README.md docs/*.md |
  grep -oE '[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' | sort -u)

if [ "$fail" -eq 0 ]; then
  echo "docs-check: OK"
fi
exit "$fail"
