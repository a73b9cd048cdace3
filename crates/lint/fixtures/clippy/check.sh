#!/usr/bin/env sh
# Negative controls for the clippy lints that own the workspace's panic,
# float-comparison, kernel-cast and allow-reason invariants (DESIGN.md
# §10). Runs clippy on this fixture crate, under the repository's
# clippy.toml, and fails unless every `// fires: clippy::<lint> ...` line
# draws each lint it names and clean.rs draws nothing.
# Usage: crates/lint/fixtures/clippy/check.sh [cargo flags, e.g. --offline]
set -eu
cd "$(dirname "$0")"
out=$(cargo clippy "$@" --all-targets --message-format=json \
    --target-dir ../../../../target/clippy-controls 2>/dev/null |
    grep '"reason":"compiler-message"' || true)

failed=0
hits=0
while IFS=: read -r file line text; do
    for lint in ${text##*fires: }; do
        if printf '%s\n' "$out" | grep -F "\"code\":\"$lint\"" |
            grep -F "\"file_name\":\"$file\"" | grep -qF "\"line_start\":$line,"; then
            hits=$((hits + 1))
        else
            echo "clippy-controls: $file:$line did not fire $lint" >&2
            failed=1
        fi
    done
done <<EOF
$(grep -n 'fires: clippy::' src/*.rs)
EOF
if printf '%s\n' "$out" | grep -qF '"file_name":"src/clean.rs"'; then
    echo "clippy-controls: clippy reported diagnostics in src/clean.rs" >&2
    failed=1
fi
[ "$hits" -gt 0 ] || failed=1
[ "$failed" -eq 0 ] || exit 1
echo "clippy-controls: $hits expected lint hits, src/clean.rs clean"
