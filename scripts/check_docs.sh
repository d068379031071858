#!/usr/bin/env bash
# Documentation freshness gate (CI `docs` job; run locally from the repo root).
#
#   1. Every intra-repo markdown link must resolve to an existing file.
#   2. Every `Struct::member` flag named in docs/CONFIG.md must still exist in
#      the headers (grep-based, scoped to the struct's definition block), and
#      every documented T1SFQ_* environment variable must still be getenv'd
#      somewhere in the sources (generic variables like $XDG_CACHE_HOME are
#      outside this repo's control and are not checked).
#   3. The layer map of docs/ARCHITECTURE.md holds where it is most tempted
#      to break: no file under src/cost includes from incr, opt, part, core,
#      verify or service, and none under src/incr from opt, part, core,
#      verify or service.
#
# So the docs/ subsystem cannot rot silently: renaming a flag, moving a file
# or reaching up a layer fails this script instead of leaving stale prose
# behind.
set -u

fail=0

# -- 1. Intra-repo markdown links -------------------------------------------
# Matches [text](target) where target is not an absolute URL or pure anchor.
while IFS=: read -r file target; do
  [ -n "$target" ] || continue
  case "$target" in
    http://*|https://*|mailto:*|\#*) continue ;;
  esac
  # Strip a trailing anchor (FILE.md#section) for the existence check.
  path="${target%%#*}"
  [ -n "$path" ] || continue
  dir=$(dirname "$file")
  if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
    echo "BROKEN LINK: $file -> $target"
    fail=1
  fi
done < <(grep -RonE '\[[^][]*\]\(([^)]+)\)' --include='*.md' \
           README.md docs 2>/dev/null \
         | sed -E 's/^([^:]+):[0-9]+:\[[^][]*\]\(([^)]+)\)$/\1:\2/')

# -- 2. Flags named in docs/CONFIG.md exist in the headers ------------------
# The member grep is scoped to the struct's own definition block: several
# member names (max_sweeps, incremental, clk, ...) exist in more than one
# struct, and a bare repo-wide grep would stay green across a rename.
flags=$(grep -oE '`[A-Za-z_][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*`' docs/CONFIG.md \
        | tr -d '`' | sort -u)
for flag in $flags; do
  struct="${flag%%::*}"
  member="${flag##*::}"
  blocks=$(find src -name '*.hpp' -exec awk \
    "/^(struct|enum class) $struct( |\\{|\$)/,/^\\};/" {} +)
  if [ -z "$blocks" ]; then
    echo "STALE FLAG: docs/CONFIG.md names $flag but no 'struct $struct' in src/"
    fail=1
  elif ! printf '%s\n' "$blocks" | grep -q "[^A-Za-z0-9_]$member[^A-Za-z0-9_]"; then
    echo "STALE FLAG: docs/CONFIG.md names $flag but '$member' is not in 'struct $struct'"
    fail=1
  fi
done

# Environment variables (e.g. $T1SFQ_CACHE_DIR tables). Require an actual
# getenv of the name, so a leftover mention in a source comment cannot keep
# the gate green after the read is removed.
envs=$(grep -hoE '`T1SFQ_[A-Z_]+`|\$T1SFQ_[A-Z_]+' docs/CONFIG.md README.md \
       | tr -d '`$' | sort -u)
for var in $envs; do
  if ! grep -rq "getenv(\"$var\"" src; then
    echo "STALE ENV VAR: docs name $var but nothing getenvs it in src/"
    fail=1
  fi
done

# -- 3. src/cost and src/incr include nothing from a layer above them --------
layer_violations() {
  grep -rnE '#include "(incr|opt|part|core|verify|service)/' src/cost
  grep -rnE '#include "(opt|part|core|verify|service)/' src/incr
}
while IFS= read -r hit; do
  echo "LAYER VIOLATION (see docs/ARCHITECTURE.md, Layer map): $hit"
  fail=1
done < <(layer_violations)

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK ($(echo "$flags" | wc -l) flags, links resolve, layers hold)"
