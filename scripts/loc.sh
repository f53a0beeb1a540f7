#!/usr/bin/env bash
# loc.sh — the size figures a change reports, for a base commit and for
# the working tree:
#   program    lines of non-test .go files outside perfbench/
#   code       the same without blank and comment-only lines
#   test       lines of _test.go files outside perfbench/
#   config     the number of fields in gateway.Config
#
# Usage: scripts/loc.sh [base-ref]   (default HEAD)
#
# Reads files through git (the base) and the file system (the working
# tree: tracked and untracked, not ignored); builds nothing.
set -euo pipefail

cd "$(dirname "$0")/.."
BASE="${1:-HEAD}"
git rev-parse --verify -q "$BASE^{commit}" >/dev/null || {
  echo "loc.sh: unknown ref $BASE" >&2; exit 2; }

# Each file arrives as a "\001<path>" marker line followed by its lines.
COUNT='
function flush() {
  if (path == "") return
  if (path ~ /_test\.go$/) test += n; else { prog += n; code += c }
}
/^\001/ { flush(); path = substr($0, 2); n = c = 0; inblock = 0; cfg = 0; next }
{
  n++
  line = $0; sub(/^[ \t]+/, "", line)
  comment = inblock || line ~ /^\/\//
  if (!inblock && line ~ /^\/\*/) { comment = 1; inblock = 1; line = substr(line, 3) }
  if (inblock && index(line, "*/")) inblock = 0
  if (line != "" && !comment) c++
  if (path == "internal/gateway/gateway.go") {
    if ($0 ~ /^type Config struct \{/) { cfg = 1; next }
    if (cfg && $0 ~ /^\}/) cfg = 0
    if (cfg && line != "" && line !~ /^\/\//) {
      match(line, /^[A-Za-z_][A-Za-z0-9_]*([ \t]*,[ \t]*[A-Za-z_][A-Za-z0-9_]*)*/)
      ids = substr(line, 1, RLENGTH)
      fields += gsub(/,/, ",", ids) + 1
    }
  }
}
END { flush(); printf "%-12s program %6d  code %6d  test %6d  config fields %d\n", label, prog, code, test, fields }
'

go_files() { awk '/\.go$/ && !/^perfbench\//'; }

git ls-tree -r --name-only "$BASE" | go_files | while read -r f; do
  printf '\001%s\n' "$f"
  git show "$BASE:$f"
done | LC_ALL=C awk -v label="$(git rev-parse --short "$BASE")" "$COUNT"

git ls-files --cached --others --exclude-standard | go_files | while read -r f; do
  [ -f "$f" ] && awk -v f="$f" 'FNR == 1 { printf "\001%s\n", f } { print }' "$f"
done | LC_ALL=C awk -v label="worktree" "$COUNT"
