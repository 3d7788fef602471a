# Local workflows and CI invoke identical commands through these targets.
# `make help` lists them; the `## ...` suffix on a target line is its
# help text.

GO ?= go

.PHONY: build test test-race test-full bench \
	scale-smoke fuzz-smoke campaign-smoke events-smoke service-smoke \
	verdict-sweep lint fmt vet check help

help: ## List targets with their one-line descriptions
	@awk -F':.*## ' '/^[a-zA-Z_-]+:.*## / {printf "  %-22s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

build: ## Compile every package
	$(GO) build ./...

test: ## Short test suite (what CI runs per push)
	$(GO) test -short -timeout 10m ./...

test-race: ## Short suite under the race detector
	$(GO) test -race -short -timeout 10m ./...

test-full: ## Full (non-short) suite: what the tier-1 verify runs
	$(GO) test -timeout 20m ./...

# The micro-benchmarks are a compile-and-run smoke here, not a gate: the
# allocation contracts they print live in testing.AllocsPerRun tests
# (Test*ZeroAlloc*), and performance is judged by `go run ./bench`
# (BENCHMARK.json) on paired parent/change runs.
bench: ## Run every benchmark once (compile + smoke)
	$(GO) test -bench=. -benchtime=1x -run='^$$' . ./internal/model ./internal/sched ./internal/core ./internal/trace ./internal/fault ./internal/graph ./internal/obs ./internal/stats ./internal/campaign ./internal/service

# Static analysis beyond go vet, plus the vulnerability scanner over the
# dependency graph (trivial here: the module is stdlib-only, so the scan
# gates the toolchain/stdlib version itself). Both tools are version-
# pinned and fetched per run via `go run pkg@version` — no tool
# dependencies enter go.mod, and CI and local runs agree on versions by
# construction. Requires network on first run (the module cache persists
# afterwards); pure-local workflows use `make vet fmt` instead.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
lint: ## staticcheck + govulncheck (pinned versions, fetched on demand)
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Native fuzz smoke: each target fuzzes for a short budget (a regression
# in the encoding round-trip, the subset sampler or the step engine
# against the reference semantics surfaces within seconds; the committed
# corpora under testdata/fuzz/ run as plain tests on every `go test`).
# `go test -fuzz` takes one target per invocation, hence one run each.
FUZZTIME ?= 20s
fuzz-smoke: ## Short native fuzz pass over the fuzz targets
	$(GO) test ./internal/graph -fuzz FuzzGraphEncodingRoundTrip -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/rng -fuzz FuzzAppendSubsetNonEmpty -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/campaign -fuzz FuzzParseCampaign -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/campaign -fuzz FuzzDecodeEntry -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/obs -fuzz FuzzAppendJSONString -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/model -fuzz FuzzSimulatorVsReference -fuzztime $(FUZZTIME) -run '^$$'

# Campaign smoke: run the bundled quickstart campaign twice against one
# cache directory; the second run must be 100% cache hits and both runs
# must produce byte-identical JSONL and table output. This is the
# end-to-end proof of the campaign subsystem's resume contract, cheap
# enough for every push.
CAMPAIGN_SMOKE_DIR ?= /tmp/campaign-smoke
campaign-smoke: ## Quickstart campaign twice: resume contract end to end
	rm -rf $(CAMPAIGN_SMOKE_DIR) && mkdir -p $(CAMPAIGN_SMOKE_DIR)
	$(GO) run ./cmd/sscampaign -cache $(CAMPAIGN_SMOKE_DIR)/cache -jsonl $(CAMPAIGN_SMOKE_DIR)/run1.jsonl \
		examples/campaigns/quickstart.campaign > $(CAMPAIGN_SMOKE_DIR)/table1.txt 2> $(CAMPAIGN_SMOKE_DIR)/status1.txt
	$(GO) run ./cmd/sscampaign -cache $(CAMPAIGN_SMOKE_DIR)/cache -jsonl $(CAMPAIGN_SMOKE_DIR)/run2.jsonl \
		examples/campaigns/quickstart.campaign > $(CAMPAIGN_SMOKE_DIR)/table2.txt 2> $(CAMPAIGN_SMOKE_DIR)/status2.txt
	cmp $(CAMPAIGN_SMOKE_DIR)/run1.jsonl $(CAMPAIGN_SMOKE_DIR)/run2.jsonl
	cmp $(CAMPAIGN_SMOKE_DIR)/table1.txt $(CAMPAIGN_SMOKE_DIR)/table2.txt
	grep -q ', cache 0 hits' $(CAMPAIGN_SMOKE_DIR)/status1.txt
	grep -Eq ', cache [1-9][0-9]* hits, 0 misses' $(CAMPAIGN_SMOKE_DIR)/status2.txt
	$(GO) run ./cmd/sscampaign -cache $(CAMPAIGN_SMOKE_DIR)/cache -jsonl $(CAMPAIGN_SMOKE_DIR)/churn1.jsonl \
		examples/campaigns/churn.campaign > $(CAMPAIGN_SMOKE_DIR)/churn-table1.txt 2> $(CAMPAIGN_SMOKE_DIR)/churn-status1.txt
	$(GO) run ./cmd/sscampaign -cache $(CAMPAIGN_SMOKE_DIR)/cache -jsonl $(CAMPAIGN_SMOKE_DIR)/churn2.jsonl \
		examples/campaigns/churn.campaign > $(CAMPAIGN_SMOKE_DIR)/churn-table2.txt 2> $(CAMPAIGN_SMOKE_DIR)/churn-status2.txt
	cmp $(CAMPAIGN_SMOKE_DIR)/churn1.jsonl $(CAMPAIGN_SMOKE_DIR)/churn2.jsonl
	cmp $(CAMPAIGN_SMOKE_DIR)/churn-table1.txt $(CAMPAIGN_SMOKE_DIR)/churn-table2.txt
	grep -Eq ', cache [1-9][0-9]* hits, 0 misses' $(CAMPAIGN_SMOKE_DIR)/churn-status2.txt
	@echo "campaign smoke OK: byte-identical output, second runs fully cached (churn included)"

# Events smoke: the end-to-end proof of the canonical event log's
# determinism contract (internal/obs). The quickstart campaign runs
# three times — cold at parallelism 1 (populating a cache), uncached at
# parallelism 4, and fully warm at parallelism 4 — and all three -events
# logs must be byte-identical: scheduling must not reorder the log, and
# cache hits must replay the exact events a compute pass emits. The
# committed golden event log (internal/experiment/testdata) re-verifies
# as part of the same target.
EVENTS_SMOKE_DIR ?= /tmp/events-smoke
events-smoke: ## Event-log byte-identity across parallelism and cache state
	rm -rf $(EVENTS_SMOKE_DIR) && mkdir -p $(EVENTS_SMOKE_DIR)
	$(GO) run ./cmd/sscampaign -parallelism 1 -cache $(EVENTS_SMOKE_DIR)/cache -events $(EVENTS_SMOKE_DIR)/cold.events \
		examples/campaigns/quickstart.campaign > /dev/null 2> $(EVENTS_SMOKE_DIR)/status1.txt
	$(GO) run ./cmd/sscampaign -parallelism 4 -events $(EVENTS_SMOKE_DIR)/p4.events \
		examples/campaigns/quickstart.campaign > /dev/null 2> $(EVENTS_SMOKE_DIR)/status2.txt
	$(GO) run ./cmd/sscampaign -parallelism 4 -cache $(EVENTS_SMOKE_DIR)/cache -events $(EVENTS_SMOKE_DIR)/warm.events \
		examples/campaigns/quickstart.campaign > /dev/null 2> $(EVENTS_SMOKE_DIR)/status3.txt
	cmp $(EVENTS_SMOKE_DIR)/cold.events $(EVENTS_SMOKE_DIR)/p4.events
	cmp $(EVENTS_SMOKE_DIR)/cold.events $(EVENTS_SMOKE_DIR)/warm.events
	grep -Eq ', cache [1-9][0-9]* hits, 0 misses' $(EVENTS_SMOKE_DIR)/status3.txt
	$(GO) run ./cmd/sscampaign -parallelism 1 -cache $(EVENTS_SMOKE_DIR)/churn-cache -events $(EVENTS_SMOKE_DIR)/churn-cold.events \
		examples/campaigns/churn.campaign > /dev/null 2> $(EVENTS_SMOKE_DIR)/churn-status1.txt
	$(GO) run ./cmd/sscampaign -parallelism 4 -cache $(EVENTS_SMOKE_DIR)/churn-cache -events $(EVENTS_SMOKE_DIR)/churn-warm.events \
		examples/campaigns/churn.campaign > /dev/null 2> $(EVENTS_SMOKE_DIR)/churn-status2.txt
	cmp $(EVENTS_SMOKE_DIR)/churn-cold.events $(EVENTS_SMOKE_DIR)/churn-warm.events
	grep -Eq ', cache [1-9][0-9]* hits, 0 misses' $(EVENTS_SMOKE_DIR)/churn-status2.txt
	$(GO) test ./internal/experiment -run TestGoldenEvents
	@echo "events smoke OK: logs byte-identical across parallelism 1/4 and cold/warm cache (churn included)"

# Large-n scale smoke: drive the E22 headline cell — a 10⁶-process torus
# under synchronous COLORING — to a legitimate silent configuration and
# gate its peak RSS. The budget documents the engine's large-graph
# memory claim: the cell measures 175 MiB peak on the reference runner
# (177 B/process live heap), and 256 MiB (the 185 MiB it measured when
# the budget was set plus 25 %, rounded up to a multiple of 32) leaves
# headroom for allocator and GC variance while failing on a return of
# the 266 MiB the configuration's per-process row-view slice headers
# cost (24 B × 2 views × 2 configurations), let alone an O(n²)
# reintroduction.
SCALE_BUDGET_MB ?= 256
scale-smoke: ## 10⁶-node torus cell to silence under the peak-RSS budget
	$(GO) run ./cmd/ssscale -n 1000000 -graph torus -budget-mb $(SCALE_BUDGET_MB)

# Service smoke: the campaign daemon end to end over real TCP — start
# sscampaignd with a directory cache, POST the quickstart campaign in
# streaming form, download the four served artifacts and byte-compare
# them against CLI sscampaign runs, then re-POST (100% cache hits,
# identical bytes from the artifact store, one stored set per source)
# and SIGTERM-drain. The scripted flow
# lives in scripts/service_smoke.sh; internal/service's tests prove the
# same contract in-process at several worker counts and with stalled cells.
SERVICE_SMOKE_DIR ?= /tmp/service-smoke
service-smoke: ## Campaign daemon end to end: serve = CLI bytes, warm re-POST, clean drain
	bash scripts/service_smoke.sh $(SERVICE_SMOKE_DIR)

# Verdict sweep: the registry's pool-driven experiments (E12 and E22 are
# wall-clock runs and stay out) at 50 trials per cell, one ssbench run
# per seed from 1 to 60. A seed at which some claim check fails is a
# finding about the protocols or the experiment, not noise: the sweep
# stops there and prints the seed and the failing tables' titles. Too
# slow for every push; CI runs it on a schedule (verdict-sweep.yml).
VERDICT_SWEEP_DIR ?= /tmp/verdict-sweep
VERDICT_SWEEP_IDS = E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11,E13,E14,E15,E16,E17,E18,E19,E20,E21
verdict-sweep: ## Registry at 50 trials over seeds 1-60; stops at the first FAIL and names its seed
	mkdir -p $(VERDICT_SWEEP_DIR)
	$(GO) build -o $(VERDICT_SWEEP_DIR)/ssbench ./cmd/ssbench
	@for seed in $$(seq 1 60); do \
		if ! $(VERDICT_SWEEP_DIR)/ssbench -run $(VERDICT_SWEEP_IDS) -trials 50 -seed $$seed \
			> $(VERDICT_SWEEP_DIR)/seed-$$seed.txt 2> $(VERDICT_SWEEP_DIR)/seed-$$seed.err; then \
			echo "verdict sweep FAIL at seed $$seed:"; \
			awk '/^E[0-9]+:/ {title = $$0} /verdict: FAIL/ {print "  " title}' $(VERDICT_SWEEP_DIR)/seed-$$seed.txt; \
			cat $(VERDICT_SWEEP_DIR)/seed-$$seed.err; \
			exit 1; \
		fi; \
	done
	@echo "verdict sweep OK: every claim passes at seeds 1-60"

fmt: ## Fail if any file needs gofmt
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet: ## go vet every package
	$(GO) vet ./...

check: build vet fmt test ## build + vet + fmt + test
