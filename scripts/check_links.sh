#!/usr/bin/env bash
# Fails (exit 1) when a relative markdown link in README.md or docs/
# points at a file that does not exist. External (http/https/mailto)
# links and pure #fragment links are skipped; targets are resolved
# relative to the file containing the link, like every markdown
# renderer does. Also fails when a `//` comment in a .rs file under
# crates/, src/, tests/ or examples/ names a NAME.md that exists neither
# as written from the repository root, nor at the root, nor under docs/.
# Run from anywhere; CI's docs job runs it on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for f in README.md docs/*.md; do
  [ -e "$f" ] || continue
  dir=$(dirname "$f")
  # Pull out every inline-link target: the (...) following ](.
  while IFS= read -r target; do
    target=${target%%#*} # strip any #fragment
    [ -z "$target" ] && continue
    case "$target" in
    http://* | https://* | mailto:*) continue ;;
    esac
    if [ ! -e "$dir/$target" ]; then
      echo "broken link in $f: $target" >&2
      status=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done

while IFS=: read -r f line doc; do
  name=$(basename "$doc")
  if [ ! -e "$doc" ] && [ ! -e "$name" ] && [ ! -e "docs/$name" ]; then
    echo "missing document cited in $f:$line: $doc" >&2
    status=1
  fi
done < <(grep -rnE --include='*.rs' '//.*\.md\b' crates src tests examples |
  awk '{ split($0, head, ":") # file:line:source text
         text = substr($0, length(head[1]) + length(head[2]) + 3)
         n = split(substr(text, index(text, "//") + 2), word, /[^A-Za-z0-9_.\/-]+/)
         for (i = 1; i <= n; i++) {
           sub(/\.+$/, "", word[i]) # the full stop of a sentence
           if (word[i] ~ /[A-Za-z0-9_-]\.md$/) print head[1] ":" head[2] ":" word[i]
         } }')

if [ "$status" -eq 0 ]; then
  echo "all relative markdown links in README.md and docs/, and every .md cited in a .rs comment, resolve"
fi
exit "$status"
