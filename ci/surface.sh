#!/usr/bin/env bash
# Library surface check (DESIGN.md §20).
#
# Every `pub` item (function, method, type, trait, constant) in crates/*/src
# must have a non-test caller outside its own module, or be listed in one of
# §20's tables with its reason. A caller is a mention in the non-test part of
# any `.rs` file under crates/*/src, src/, examples/ or perfbench/src: the
# lines before the file's first `#[cfg(test)]`, with comments and `use`/`mod`
# declarations dropped. A method counts as called when `.name` or `::name`
# appears there; any other item when its name appears as a word. A type named
# in the signature of another `pub` item of its own module (a type a function
# returns, a field's type, a variant's payload) counts as used.
#
# Run from anywhere: `ci/surface.sh`. Exits non-zero and names each offending
# item, or each §20 entry that names no `pub` item of its crate.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The non-test part of a file, without comments or use/mod declarations.
strip() {
  awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    in_use { if (index($0, ";")) in_use = 0; next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?use / { if (!index($0, ";")) in_use = 1; next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ { next }
    { sub(/\/\/.*/, ""); print }
  ' "$1"
}

# The lines of a stripped file that make up its public signatures: each
# `pub` item header up to its `{` or `;`, every line of a `pub enum`, and
# every `pub` field.
signatures() {
  awk '
    enum_depth > 0 {
      print
      enum_depth += gsub(/\{/, "{") - gsub(/\}/, "}")
      next
    }
    in_sig { print; if ($0 ~ /[{;]/) in_sig = 0; next }
    /^[[:space:]]*pub enum / {
      print
      enum_depth = gsub(/\{/, "{") - gsub(/\}/, "}")
      next
    }
    /^[[:space:]]*pub / { print; if ($0 !~ /[{;]/) in_sig = 1 }
  ' "$1"
}

mkdir -p "$work/corpus"
files=$(find crates/*/src src examples perfbench/src -name '*.rs' | sort)
for file in $files; do
  strip "$file" >"$work/corpus/$(tr / % <<<"$file")"
done

# §20's exceptions: "| <crate> `path` ... | reason |" rows. A `path::{A, B}`
# lists A and B, any other path its last segment; a module name exempts every
# item in that module.
awk '/^## 20\./ { on = 1; next } /^## / { on = 0 } on && /^\| lb-/' DESIGN.md |
  while IFS= read -r row; do
    cell=$(cut -d'|' -f2 <<<"$row")
    crate=$(awk '{ print $1 }' <<<"$cell")
    grep -o '`[^`]*`' <<<"$cell" | tr -d '`' | while IFS= read -r path; do
      if [[ $path == *"{"* ]]; then
        names=${path#*\{}
        names=${names%\}*}
      else
        names=${path##*::}
      fi
      tr ',' '\n' <<<"$names" | tr -d ' ()' | sed "s/^/$crate /"
    done
  done | sort -u >"$work/exceptions"

module_of() {
  local stem
  stem=$(basename "$1" .rs)
  if [[ $stem == mod ]]; then basename "$(dirname "$1")"; else echo "$stem"; fi
}

status=0
: >"$work/matched"
for file in $(find crates/*/src -name '*.rs' | sort); do
  crate=$(cut -d/ -f2 <<<"$file")
  module=$(module_of "$file")
  own="$work/corpus/$(tr / % <<<"$file")"
  signatures "$own" >"$work/signatures"
  grep -E '^[[:space:]]*pub (const fn|unsafe fn|fn|struct|enum|trait|type|const|static) [A-Za-z_]' "$own" |
    sed -E 's/^pub /top /; s/^[[:space:]]+pub /member /; s/ (const|unsafe) fn / fn /' |
    sed -E 's/^([a-z]+ [a-z]+ [A-Za-z0-9_]+).*/\1/' >"$work/items" || true
  while read -r place kind name; do
    for key in "$name" "$module"; do
      if grep -qx "$crate $key" "$work/exceptions"; then
        echo "$crate $key" >>"$work/matched"
        echo "exempt (§20): $crate $file $name"
        continue 2
      fi
    done
    if [[ $place == member && $kind == fn ]]; then
      pattern="(\\.|::)$name\\b"
    else
      pattern="\\b$name\\b"
    fi
    if grep -lE "$pattern" "$work"/corpus/* | grep -vxF "$own" >/dev/null; then
      continue
    fi
    if [[ $kind != fn && $kind != const && $kind != static ]] &&
      grep -vE "^[[:space:]]*pub $kind $name\\b" "$work/signatures" | grep -E "\\b$name\\b" >/dev/null; then
      continue
    fi
    echo "no caller outside its module and not listed in DESIGN.md §20: $crate $file $kind $name" >&2
    status=1
  done <"$work/items"
done

while read -r crate key; do
  if ! grep -qx "$crate $key" "$work/matched"; then
    echo "DESIGN.md §20 lists $crate $key, which names no pub item of $crate" >&2
    status=1
  fi
done <"$work/exceptions"

exit $status
