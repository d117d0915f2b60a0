#!/usr/bin/env bash
# The numbers ROADMAP tracks per PR (aim 2), one per line. Informational:
# scripts/ci.sh prints them last and never fails on them.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "lines of *.rs under crates/: $(find crates -name '*.rs' -print0 | xargs -0 cat | wc -l)"

# The same files, each counted up to its first `#[cfg(test)]`: the code
# that ships, without the unit tests beside it.
shipped=$(find crates -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { t = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' |
    awk '{ s += $1 } END { print s + 0 }')
echo "non-test lines of *.rs under crates/: ${shipped}"

# `pub` fields of every `pub struct *Config` under crates/. VoipAppConfig
# is left out: it is the paper's Fig. 2 account dialog, a file format
# whose values are a user's deployment settings, not tuning knobs.
find crates -name '*.rs' -print0 | xargs -0 awk '
    /^pub struct [A-Za-z]*Config \{/ && $3 != "VoipAppConfig" { inside = 1; fields = 0; next }
    inside && /^    pub [a-z0-9_]+:/ { fields++ }
    inside && /^\}/ { inside = 0; total += fields; if (fields) structs++ }
    END {
        print "public config fields: " total + 0
        print "config structs with a public field: " structs + 0
    }'

# Every key under a [features] table except `default`.
features=$(find . -name Cargo.toml -not -path './target/*' -not -path './benchmark/*' -print0 |
    xargs -0 awk '/^\[/ { f = ($0 == "[features]") } f && /^[a-z_-]+ *=/ && $1 != "default"' | wc -l)
echo "cargo features: ${features}"

# Entries of [workspace.dependencies] that are not a path into this tree.
external=$(awk '/^\[/ { d = ($0 == "[workspace.dependencies]") } d && /^[a-z_-]+ *=/ && !/path *=/' Cargo.toml | wc -l)
echo "external crates: ${external}"

echo "pub mod under crates/: $(grep -rhE '^ *pub mod [a-z_]+;' --include='*.rs' crates | wc -l)"

# Targets under crates/bench/src/bin: a file or a directory each.
echo "bench binaries: $(ls crates/bench/src/bin | wc -l)"

unsafe_sites=$(grep -rw unsafe --include='*.rs' crates | grep -vc 'forbid(unsafe_code)' || true)
echo "unsafe sites: ${unsafe_sites}"

# Class "test-only" of scripts/module_audit.sh: public API under crates/
# that nothing but tests calls. The audit's own exit status gates class
# "none" in scripts/ci.sh, not here.
test_only=$({ scripts/module_audit.sh || true; } | grep -c '^test-only:' || true)
echo "pub fn/const only tests call: ${test_only}"

# Inline-size ceilings the layout tests pin (the named constants in the
# test modules beside `Node`, its arena entry `HotNode`, its receive
# column entry `RecvEntry`, `NodeObs`, a
# dialog's B-tree entry, the boxed `Dialog`, `ClientTxn`, the event
# queue's slab slot, `SipMessage` and a routing-table entry), and the
# heap bytes per node of the radio neighbour lists on a district-density
# world.
ceiling() { grep -rh "const $1: usize = " crates | sed 's/.*= *\(.*\);/\1/'; }
node=$(ceiling NODE_INLINE_MAX | sed 's/.*{ \([0-9]*\) } else { \([0-9]*\) }/\1 (\2 without obs)/')
echo "layout ceilings (bytes): Node ${node}, arena entry $(ceiling HOT_NODE_INLINE_MAX), receive column entry $(ceiling RECV_ENTRY_INLINE_MAX), NodeObs $(ceiling NODE_OBS_INLINE_MAX), dialog entry $(ceiling DIALOG_ENTRY_BYTES), dialog $(ceiling DIALOG_INLINE_MAX), client txn slot $(ceiling CLIENT_TXN_SLOT_MAX), event slot $(ceiling EVENT_SLOT_MAX), SIP message $(ceiling SIP_MESSAGE_INLINE_MAX), route entry $(ceiling ROUTE_ENTRY_INLINE_MAX), neighbour lists per node $(ceiling NEIGHBOR_BYTES_PER_NODE_MAX)"
