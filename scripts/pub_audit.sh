#!/usr/bin/env bash
# Public-surface audit (ROADMAP item 8; the export rule is in
# docs/ARCHITECTURE.md under "Crate map"). Prints the number of exported
# items (`pub fn/struct/enum/trait/const/type/static` in crates/*/src
# and src) and then every exported name with no whole-word reference
# outside its defining crate's src/ — in another crate, the CLI, a
# test, an example, the ledger, README.md or docs/. A listed name is a
# candidate for `pub(crate)`, not a verdict: a method named like
# another crate's, or the type of a `pub` field, reads as used or
# unused by accident. Prints only; never fails on a count.
set -euo pipefail
cd "$(dirname "$0")/.."

decl='^[[:space:]]*pub (const )?(fn|struct|enum|trait|const|type|static) +[A-Za-z_0-9]+'
items() { # items DIR — exported item names declared under DIR, one per line
  { git grep -hoE "$decl" -- "$1" || true; } | awk '{ print $NF }'
}

used() { # used NAME DIR — is NAME referenced outside DIR (its bin/ targets count as outside)?
  git grep -qwF "$1" -- crates src tests examples ledger docs README.md ":(exclude)$2" ||
    { [ -d "$2/bin" ] && git grep -qwF "$1" -- "$2/bin"; }
}

total=0
unused=()
for dir in crates/*/src src; do
  [ -d "$dir" ] || continue
  total=$((total + $(items "$dir" | wc -l)))
  while IFS= read -r name; do
    used "$name" "$dir" || unused+=("$dir $name")
  done < <(items "$dir" | sort -u)
done
printf 'pub items: %d\n' "$total"
printf 'exported names with no reference outside their crate: %d\n' "${#unused[@]}"
printf '  %s\n' "${unused[@]}"
