#!/usr/bin/env bash
# Public-item census: lists every `pub` item and `pub` field that no
# other file reads.
#
#   bash tools/reach/census.sh
#
# An item is a `pub fn|const|struct|enum|type|trait|static|mod NAME`
# declared under `crates/*/src` or `src`; a field is a `pub NAME:` line
# there (a named struct field). `pub(crate)` and narrower are not public
# and not listed. Either is *unread* when NAME, as a whole word, appears
# in no git-tracked `.rs` file other than the one declaring it. Every
# other file counts as a reader: other crates, `benchmark/`, tests and
# examples alike. A name shared by two declarations (or by a field and a
# local variable) reads for both, so the census can miss an unread item
# or field; it never flags a read one.
#
# Prints `path: kind NAME` per unread item (`kind` is `field` for a
# field), sorted. CI diffs the output against
# `.github/reach_allowlist.txt`, the items kept on purpose (docs/REACH.md
# gives each one's reason), so an item that loses its last reader fails
# there until it goes, is narrowed, or is argued for.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# `path kind NAME` per public declaration.
git grep -noE --no-color \
    '^\s*pub ((const |unsafe |async )*fn|const|struct|enum|type|trait|static|mod) [A-Za-z_][A-Za-z0-9_]*' \
    -- 'crates/*/src/*.rs' 'src/*.rs' \
    | awk -F: '{ n = split($3, w, " "); print $1, w[n - 1], w[n] }' > "$tmp/decls"
# The second pass: `path field NAME` per public named field.
git grep -noE --no-color '^\s*pub [a-z_][A-Za-z0-9_]*\s*:' -- 'crates/*/src/*.rs' 'src/*.rs' \
    | awk -F: '{ n = split($3, w, " "); print $1, "field", w[n] }' >> "$tmp/decls"
# `word path` per distinct word of every tracked Rust file.
git ls-files -z '*.rs' | xargs -0 grep -oHE '[A-Za-z_][A-Za-z0-9_]*' \
    | awk -F: '{ print $2, $1 }' | LC_ALL=C sort -u > "$tmp/words"
awk '
    FNR == NR { files[$1] = files[$1] " " $2; next }
    {
        n = split(files[$3], fs, " ")
        read = 0
        for (i = 1; i <= n; i++) if (fs[i] != $1) read = 1
        if (!read) print $1 ": " $2 " " $3
    }
' "$tmp/words" "$tmp/decls" | LC_ALL=C sort -u
