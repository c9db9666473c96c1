#!/usr/bin/env bash
# Gate: the fault-isolated paths must not contain a bare `.unwrap()`
# outside `#[cfg(test)]`. A panic in the engine or the serve loop is
# supposed to be impossible by construction (typed errors + `.expect()`
# with an invariant message where infallibility is provable); a bare
# unwrap is how "impossible" states take the whole resident process
# down. Test modules sit at the end of each file, so everything from
# the first `#[cfg(test)]` marker onward is exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
# crates/core/src/ir.rs carries the arena-interned dataset
# the resident engine holds in memory, check/unique.rs its resident
# unique index, and learn/sketch.rs decodes the persisted learn sketches
# a restarted server loads — same blast radius, same gate.
for f in crates/engine/src/*.rs crates/cli/src/serve.rs \
         crates/cli/src/protocol.rs crates/cli/src/eventloop.rs \
         crates/cli/src/sync.rs crates/cli/src/fleet.rs \
         crates/core/src/ir.rs \
         crates/core/src/check/unique.rs crates/core/src/learn/sketch.rs; do
  hits=$(awk '/#\[cfg\(test\)\]/{exit} /\.unwrap\(\)/{print FILENAME ":" FNR ": " $0}' "$f")
  if [ -n "$hits" ]; then
    echo "$hits"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "error: bare .unwrap() outside #[cfg(test)] in fault-isolated code" >&2
  exit 1
fi
echo "ok: no bare unwrap outside tests in crates/engine, the serve stack, the core IR, the unique index and the learn sketches"
