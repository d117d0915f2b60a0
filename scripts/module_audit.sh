#!/usr/bin/env bash
# ROADMAP aim 2's module rule as a script: who calls each module under
# crates/, and which `pub fn`s and `pub const`s nobody names. A name is
# matched as a whole word wherever it occurs (comments and same-named
# items of other types included), which over-counts callers, so a
# reported zero is a real zero. Exits 1 when class "none" is non-empty (scripts/ci.sh gates
# on that); the module table and class "test-only" are informational.
set -euo pipefail
cd "$(dirname "$0")/.."

# A file's test part is everything from its first `#[cfg(test)]` line
# (the tree's one convention: test modules close the file); files under
# tests/ are test code throughout.

# Files under the given directories that match the module path in $outer.
count() { { grep -rlE "$outer" "$@" || true; } | wc -l; }

echo "module (lines): files referencing it from own crate outside tests / other crates / bench bins / src / tests / examples / benchmark"
for file in $(find crates -path '*/src/*.rs' -not -path '*/bin/*' -not -name lib.rs | sort); do
    crate=$(echo "$file" | cut -d/ -f2)
    module=$(basename "$file" .rs)
    # `module::` or `::module` inside the crate; outside it the path must
    # name the crate (`siphoc_core::metrics`, or `core::metrics` through
    # the root package's aliases).
    inner="(^|[^A-Za-z0-9_])${module}::|::${module}([^A-Za-z0-9_]|\$)"
    outer="(^|siphoc_|[^A-Za-z0-9_])${crate}::${module}([^A-Za-z0-9_]|\$)"
    own=0
    for f in $(find "crates/${crate}/src" -name '*.rs' -not -path '*/bin/*' -not -path "$file"); do
        if awk -v re="$inner" '/^#\[cfg\(test\)\]/ { exit } $0 ~ re { hit = 1; exit } END { exit !hit }' "$f"; then
            own=$((own + 1))
        fi
    done
    others=$({ grep -rlE "$outer" crates || true; } | grep -vc "^crates/${crate}/\|/src/bin/" || true)
    echo "${crate}::${module} ($(wc -l <"$file")): ${own} / ${others} / $(count crates/bench/src/bin) / $(count src) / $(count tests) / $(count examples) / $(count benchmark/src)"
done

echo
echo "pub fn and pub const under crates/ by class:"
report=$(find crates src tests examples benchmark/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { intest = (FILENAME ~ /^tests\//) }
    /^#\[cfg\(test\)\]/ { intest = 1 }
    {
        line = $0
        if (!intest && FILENAME ~ /^crates\// &&
            (match(line, /pub (const )?fn [A-Za-z0-9_]+/) ||
             match(line, /pub const [A-Za-z0-9_]+ *:/))) {
            name = substr(line, RSTART, RLENGTH)
            sub(/ *:$/, "", name)
            sub(/.* /, "", name)
            defs[name]++
            where[name] = where[name] " " FILENAME ":" FNR
        }
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, words, " ")
        for (i = 1; i <= n; i++) {
            all[words[i]]++
            if (!intest) live[words[i]]++
        }
    }
    END {
        for (name in defs) {
            if (all[name] == defs[name]) {
                print "none:" where[name] " " name
            } else if (live[name] == defs[name]) {
                print "test-only:" where[name] " " name
            }
        }
    }' | sort)
echo "$report"
none=$(echo "$report" | grep -c '^none:' || true)
echo "pub fn/const with no caller: ${none}"
[ "$none" -eq 0 ]
