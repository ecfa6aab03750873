#!/usr/bin/env bash
# Fails if getenv appears under src/ or tools/ outside src/core/sweep.cpp,
# home of the documented OPUS_SWEEP_SHARD / OPUS_SWEEP_THREADS variables.
# Behaviour belongs in config fields and CLI flags, where runs record it;
# an undocumented environment knob (a debug dump, a hidden switch) is
# invisible to every result document. Pure grep; no build needed. Run from
# anywhere inside the repo.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

hits=$(grep -rnE '\bgetenv\b' src tools | grep -v '^src/core/sweep\.cpp:' || true)
if [[ -n "$hits" ]]; then
  echo "environment knob outside src/core/sweep.cpp:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "env knobs OK (getenv only in src/core/sweep.cpp)"
