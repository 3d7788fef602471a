#!/usr/bin/env bash
# Campaign service smoke: the end-to-end proof of the served-run
# determinism contract on real binaries over real TCP. Starts
# sscampaignd with a directory cache, POSTs the quickstart campaign,
# streams its progress to completion, downloads the per-trial JSONL and
# canonical event log, and byte-compares both against a CLI sscampaign
# run of the same file. A second POST of the same spec must be 100%
# cache hits with identical bytes and a whole, uncut progress stream, and
# SIGTERM must stop the daemon cleanly. Usage: scripts/service_smoke.sh [workdir]
set -euo pipefail

DIR=${1:-/tmp/service-smoke}
CAMPAIGN=examples/campaigns/quickstart.campaign
rm -rf "$DIR" && mkdir -p "$DIR"

go build -o "$DIR/sscampaignd" ./cmd/sscampaignd
go build -o "$DIR/sscampaign" ./cmd/sscampaign

# CLI reference artifacts at the same seed.
"$DIR/sscampaign" -jsonl "$DIR/cli.jsonl" -events "$DIR/cli.events" "$CAMPAIGN" >/dev/null 2>&1

# Daemon on a free port; the bound address is scraped from its stderr.
"$DIR/sscampaignd" -addr 127.0.0.1:0 -cache "$DIR/cache" -workers 4 2> "$DIR/daemon.log" &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true' EXIT
BASE=
for _ in $(seq 1 100); do
    BASE=$(sed -n 's/^sscampaignd: listening on \(http:\/\/.*\)$/\1/p' "$DIR/daemon.log")
    [ -n "$BASE" ] && break
    kill -0 "$DAEMON" 2>/dev/null || { echo "daemon died:"; cat "$DIR/daemon.log"; exit 1; }
    sleep 0.1
done
[ -n "$BASE" ] || { echo "daemon never reported its address"; cat "$DIR/daemon.log"; exit 1; }

# POST the campaign in streaming form: the ndjson response's first line
# is the run object, the rest is every progress event (the subscription
# attaches before the run starts, so the count below is deterministic),
# and the body ending doubles as the wait for completion.
curl -fsSN -X POST --data-binary @"$CAMPAIGN" "$BASE/v1/runs?stream=1" > "$DIR/stream.jsonl"
RUN=$(head -n 1 "$DIR/stream.jsonl" | jq -r .id)
tail -n +2 "$DIR/stream.jsonl" | jq -es 'map(select(.ev == "trial-finish")) | length' | grep -qx 36 \
    || { echo "stream did not carry 12 cells x 3 trials of progress"; exit 1; }

# Served artifacts must be byte-identical to the CLI run.
curl -fsS "$BASE/v1/runs/$RUN/jsonl" > "$DIR/served.jsonl"
curl -fsS "$BASE/v1/runs/$RUN/events" > "$DIR/served.events"
cmp "$DIR/cli.jsonl" "$DIR/served.jsonl"
cmp "$DIR/cli.events" "$DIR/served.events"
curl -fsS "$BASE/v1/runs/$RUN" | jq -e '.state == "done" and .cache_misses == 12' >/dev/null

# Warm re-POST: every cell hits the shared cache, bytes unchanged.
curl -fsSN -X POST --data-binary @"$CAMPAIGN" "$BASE/v1/runs?stream=1" > "$DIR/warm-stream.jsonl"
RUN2=$(head -n 1 "$DIR/warm-stream.jsonl" | jq -r .id)
# The replayed stream is whole: 2 campaign events plus, per cell, a
# cache-hit, a cell-start, a cell-finish and 3 trial start/finish pairs,
# and no lag cut.
tail -n +2 "$DIR/warm-stream.jsonl" | jq -es 'length' | grep -qx $((2 + 12 * (3 + 2 * 3))) \
    || { echo "warm stream did not carry all 110 replayed events"; exit 1; }
if grep -q stream-truncated "$DIR/warm-stream.jsonl"; then echo "warm stream was cut for lag"; exit 1; fi
curl -fsS "$BASE/v1/runs/$RUN2" | jq -e '.cache_hits == 12 and .cache_misses == 0' >/dev/null
curl -fsS "$BASE/v1/runs/$RUN2/jsonl" > "$DIR/warm.jsonl"
cmp "$DIR/cli.jsonl" "$DIR/warm.jsonl"
curl -fsS "$BASE/v1/cache" | jq -e '.entries == 12' >/dev/null

# Graceful shutdown: SIGTERM drains and exits 0.
kill -TERM "$DAEMON"
wait "$DAEMON"
trap - EXIT
grep -q 'sscampaignd: stopped' "$DIR/daemon.log"

echo "service smoke OK: served JSONL and events byte-identical to the CLI run, warm re-POST fully cached with a whole stream, clean SIGTERM drain"
