#!/usr/bin/env bash
# Campaign service smoke: the end-to-end proof of the served-run
# determinism contract on real binaries over real TCP. Starts
# sscampaignd with a directory cache, POSTs the quickstart campaign,
# streams its progress to completion, downloads the four artifacts
# (per-trial JSONL, canonical event log, table, CSV) and byte-compares
# them against CLI sscampaign runs of the same file. A second POST of
# the same spec (the entry the first one wrote removed, so that it
# executes) must be 100% cache hits with a whole, uncut progress
# stream, and its artifacts, now served from the rendered entry it
# wrote, the same bytes again; the entry keeps its stream. Twenty more
# re-POSTs must be served that stream from the entry: the same bytes, in
# a body whose Content-Length is its length, the cache still holding 12
# cell entries and the store one set. A POST at another seed (all
# misses) must make them 24 and two, and SIGTERM must stop the daemon
# cleanly. A daemon restarted over the same cache must serve
# a re-POST from the rendered entry on disk (no miss, every trial-finish
# line, the CLI's artifacts), and sscampaign -cache over that directory
# must be served the same entry: every cell a hit, the same bytes.
# Usage: scripts/service_smoke.sh [workdir]
set -euo pipefail

DIR=${1:-/tmp/service-smoke}
CAMPAIGN=examples/campaigns/quickstart.campaign
rm -rf "$DIR" && mkdir -p "$DIR"

go build -o "$DIR/sscampaignd" ./cmd/sscampaignd
go build -o "$DIR/sscampaign" ./cmd/sscampaign

# CLI reference artifacts at the same seed: the table is the CLI's
# stdout, the CSV a second run's.
"$DIR/sscampaign" -jsonl "$DIR/cli.jsonl" -events "$DIR/cli.events" "$CAMPAIGN" > "$DIR/cli.table" 2>/dev/null
"$DIR/sscampaign" -csv "$CAMPAIGN" > "$DIR/cli.csv" 2>/dev/null
KINDS="jsonl events table csv"

# fetch RUN PREFIX downloads the run's four artifacts to PREFIX.<kind>.
fetch() {
    for kind in $KINDS; do curl -fsS "$BASE/v1/runs/$1/$kind" > "$DIR/$2.$kind"; done
}

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
fetch "$RUN" served
for kind in $KINDS; do cmp "$DIR/cli.$kind" "$DIR/served.$kind"; done
curl -fsS "$BASE/v1/runs/$RUN" | jq -e '.state == "done" and .cache_misses == 12' >/dev/null

# The cold run kept its stream in the source's rendered entry, which the
# next POST would be served. Removing the entry makes the warm re-POST
# execute against the cache's cell entries.
rm "$DIR"/cache/*.ssr1

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
# Its artifacts come from the store: the cold run's bytes, the CLI's.
fetch "$RUN2" warm
for kind in $KINDS; do
    cmp "$DIR/served.$kind" "$DIR/warm.$kind"
    cmp "$DIR/cli.$kind" "$DIR/warm.$kind"
done
curl -fsS "$BASE/v1/cache" | jq -e '.entries == 12' >/dev/null \
    || { echo "the warm re-POST changed the cache's 12 cell entries"; exit 1; }

# The store follows distinct sources, not POSTs: twenty more runs of the
# same file still hold one artifact set, another seed makes it two. They
# are served the warm run's kept stream: each streams the warm run's
# events, byte for byte. The last one's headers are kept: its body has
# a known length. Its artifacts are the CLI's.
for _ in $(seq 1 20); do
    curl -fsSN -D "$DIR/resident-headers.txt" -X POST --data-binary @"$CAMPAIGN" "$BASE/v1/runs?stream=1" > "$DIR/resident-stream.jsonl"
done
cmp <(tail -n +2 "$DIR/warm-stream.jsonl") <(tail -n +2 "$DIR/resident-stream.jsonl") \
    || { echo "a resident re-POST streamed other events than the warm re-POST"; exit 1; }
LENGTH=$(tr -d '\r' < "$DIR/resident-headers.txt" | sed -n 's/^[Cc]ontent-[Ll]ength: *//p')
[ -n "$LENGTH" ] && [ "$LENGTH" -eq "$(wc -c < "$DIR/resident-stream.jsonl")" ] \
    || { echo "a resident re-POST declared Content-Length '$LENGTH' for $(wc -c < "$DIR/resident-stream.jsonl") bytes"; exit 1; }
fetch "$(head -n 1 "$DIR/resident-stream.jsonl" | jq -r .id)" resident
for kind in $KINDS; do cmp "$DIR/cli.$kind" "$DIR/resident.$kind"; done
curl -fsS "$BASE/v1/runs" | jq -e 'length == 22 and all(.state == "done") and all(.[1:][]; .cache_hits == 12 and .cache_misses == 0)' >/dev/null \
    || { echo "the re-POSTs did not all finish fully cached"; exit 1; }
curl -fsS "$BASE/v1/cache" | jq -e '.artifact_entries == 1 and .artifact_bytes > 0' >/dev/null \
    || { echo "22 runs of one source did not leave exactly one artifact set"; exit 1; }
curl -fsS "$BASE/v1/cache" | jq -e '.entries == 12' >/dev/null \
    || { echo "the twenty resident re-POSTs changed the cache's 12 cell entries"; exit 1; }
sed 's/^seed .*/seed 2010/' "$CAMPAIGN" > "$DIR/other-seed.campaign"
curl -fsSN -X POST --data-binary @"$DIR/other-seed.campaign" "$BASE/v1/runs?stream=1" > /dev/null
curl -fsS "$BASE/v1/cache" | jq -e '.artifact_entries == 2' >/dev/null \
    || { echo "a run at another seed did not add a second artifact set"; exit 1; }
curl -fsS "$BASE/v1/cache" | jq -e '.entries == 24' >/dev/null \
    || { echo "a run at another seed did not store its 12 cell entries"; exit 1; }

# Graceful shutdown: SIGTERM drains and exits 0.
kill -TERM "$DAEMON"
wait "$DAEMON"
trap - EXIT
grep -q 'sscampaignd: stopped' "$DIR/daemon.log"

echo "service smoke OK: served jsonl, events, table and csv byte-identical to the CLI runs, cold, warm and resident; warm re-POST fully cached with a whole stream; re-POSTs served the kept stream from the rendered entry, with its Content-Length; 12 then 24 cell entries; one artifact set per source; clean SIGTERM drain"

# Restart: a new daemon over the same cache serves a re-POST from the
# rendered entry the first one wrote: no miss, the whole stream, the
# CLI's bytes.
"$DIR/sscampaignd" -addr 127.0.0.1:0 -cache "$DIR/cache" -workers 4 2> "$DIR/daemon2.log" &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true' EXIT
BASE=
for _ in $(seq 1 100); do
    BASE=$(sed -n 's/^sscampaignd: listening on \(http:\/\/.*\)$/\1/p' "$DIR/daemon2.log")
    [ -n "$BASE" ] && break
    kill -0 "$DAEMON" 2>/dev/null || { echo "restarted daemon died:"; cat "$DIR/daemon2.log"; exit 1; }
    sleep 0.1
done
[ -n "$BASE" ] || { echo "restarted daemon never reported its address"; cat "$DIR/daemon2.log"; exit 1; }
curl -fsSN -X POST --data-binary @"$CAMPAIGN" "$BASE/v1/runs?stream=1" > "$DIR/restart-stream.jsonl"
RUN3=$(head -n 1 "$DIR/restart-stream.jsonl" | jq -r .id)
head -n 1 "$DIR/restart-stream.jsonl" | jq -e '.state == "done" and .cache_hits == 12 and .cache_misses == 0' >/dev/null \
    || { echo "the re-POST after a restart was not served from the rendered entry"; exit 1; }
tail -n +2 "$DIR/restart-stream.jsonl" | jq -es 'map(select(.ev == "trial-finish")) | length' | grep -qx 36 \
    || { echo "the re-POST after a restart did not stream 12 cells x 3 trials of progress"; exit 1; }
fetch "$RUN3" restart
for kind in $KINDS; do cmp "$DIR/cli.$kind" "$DIR/restart.$kind"; done
kill -TERM "$DAEMON"
wait "$DAEMON"
trap - EXIT
grep -q 'sscampaignd: stopped' "$DIR/daemon2.log"

# The CLI over the daemon's cache is served the daemon's entry: every
# cell a hit, and the bytes of the uncached runs.
"$DIR/sscampaign" -cache "$DIR/cache" -jsonl "$DIR/cached.jsonl" -events "$DIR/cached.events" "$CAMPAIGN" \
    > "$DIR/cached.table" 2> "$DIR/cached.status"
grep -q 'cache 12 hits, 0 misses' "$DIR/cached.status" \
    || { echo "sscampaign over the daemon's cache: $(cat "$DIR/cached.status")"; exit 1; }
"$DIR/sscampaign" -cache "$DIR/cache" -csv "$CAMPAIGN" > "$DIR/cached.csv" 2>/dev/null
for kind in $KINDS; do cmp "$DIR/cli.$kind" "$DIR/cached.$kind"; done

echo "service smoke OK: a restarted daemon served the re-POST and its artifacts from the rendered entry on disk, and sscampaign over its cache was served the same entry: 12 hits, 0 misses, the same bytes"
