#!/usr/bin/env bash
# Lists `pub` items under crates/*/src whose name appears in no other .rs
# file of crates/, tests/, examples/, src/ or perfbench/src.
#
#   scripts/unused_pub.sh
#
# Run from the repository root, by hand, when reviewing the public surface.
# It is not a gate: the listing over-reports. A name used only through
# method-call syntax on a value whose type is spelt elsewhere, a trait
# method reached through its trait, or a type reached only through a type
# alias or a return type all count as "unused" here although they have
# callers. Check each line before you act on it. A name defined in two
# files counts each file as the other's user, so such pairs never show.
#
# Output: one `path:line: kind name` line per candidate, sorted by path.
set -euo pipefail

dirs=(crates tests examples src perfbench/src)
mapfile -t all < <(find "${dirs[@]}" -name '*.rs' -not -path '*/target/*' | sort)

find crates -path '*/src/*' -name '*.rs' | sort | while read -r file; do
    # `pub fn`, `pub const fn`, `pub struct`, ... at any indentation;
    # `pub(crate)` and friends are not public and do not match.
    { grep -nE '^\s*pub (const |unsafe |async )*(fn|struct|enum|const|static|type|trait|mod) [A-Za-z_]' "$file" || true; } |
        sed -E 's/^([0-9]+):\s*pub (const |unsafe |async )*(fn|struct|enum|const|static|type|trait|mod) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \3 \4/' |
        while read -r line kind name; do
            # Trait-required and entry-point names are never listed.
            case "$name" in main | new | default | fmt | from | drop) continue ;; esac
            users=$(grep -lw -- "$name" "${all[@]}" | grep -vxF -- "$file" || true)
            if [ -z "$users" ]; then
                echo "$file:$line: $kind $name"
            fi
        done
done
