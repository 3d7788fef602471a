// Command sscampaign compiles and runs declarative campaign files:
// scenario sweeps over graph × protocol × daemon × adversary axes,
// executed by campaign.Execute (the executor sscampaignd runs too) on
// the parallel trial pool, with a content-addressed result cache and
// shard/K-of-N execution (see internal/campaign and the README's
// "Campaigns" section for the DSL grammar).
//
// Usage:
//
//	sscampaign file.campaign                 # run, summary table on stdout
//	sscampaign -csv file.campaign            # CSV summary instead of text
//	sscampaign -jsonl out.jsonl file.campaign  # per-trial records ("-": stdout)
//	sscampaign -cache .campaign-cache file.campaign   # resume / incremental
//	sscampaign -shard 0/2 file.campaign      # this process runs cells [0, C/2)
//	sscampaign -print file.campaign          # canonical spec, no execution
//	sscampaign -events run.events file.campaign   # canonical event log ("-": stdout)
//	sscampaign -log-level debug file.campaign     # slog JSON events on stderr
//	sscampaign -cache .campaign-cache -cache-stats   # cell and rendered entry counts + bytes, no run
//
// Determinism: for a fixed campaign file the output bytes are identical
// across -parallelism values and across cache states, and concatenating
// the -shard i/n outputs in shard order reproduces the unsharded
// output. The -events log shares that contract (see internal/obs: no
// wall-clock, cell-ordered, cache hits replayed); the -log-level stream
// is timestamped live diagnostics and deliberately does not. Cache
// statistics go to stderr, never stdout.
//
// Rendered entries: with -cache, a run that writes the canonical log
// (-events) also keeps every output it can render (the event log, the
// JSONL, the table, the CSV and the progress stream sscampaignd serves a
// POST of the source) as one file in the cache directory, keyed by the
// source bytes and the shard. A later run of the same
// source at -log-level off is served from that file: no parse, compile,
// cell load, replay or render. Any other log level, or a missing or
// damaged entry, runs the campaign (which rewrites the entry).
//
// SIGINT/SIGTERM drain: no new cell starts, the cells in flight finish
// and, with -cache, persist; the run then exits non-zero having written
// no output, and the same command resumes from the cached cells. A
// second signal kills the process.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/prof"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The first signal drains; stop then restores the default disposition,
	// so a second one kills a drain that is taking too long.
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sscampaign:", err)
		os.Exit(1)
	}
}

// run executes one command line; canceling ctx drains the campaign (see
// campaign.Execute).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sscampaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		parallelism = fs.Int("parallelism", 0, "trial pool workers (0: GOMAXPROCS; results are identical for every value)")
		shardSpec   = fs.String("shard", "", "run only shard i of n, written i/n (contiguous cell-index partition)")
		cacheDir    = fs.String("cache", "", "content-addressed result cache directory (enables resume and incremental sweeps)")
		jsonlPath   = fs.String("jsonl", "", "write per-trial JSONL records to this path (\"-\": stdout, suppresses the table)")
		csvOut      = fs.Bool("csv", false, "render the summary table as CSV instead of aligned text")
		printSpec   = fs.Bool("print", false, "parse, print the canonical campaign spec and exit without running")
		eventsPath  = fs.String("events", "", "write the canonical deterministic event log to this path (\"-\": stdout, suppresses the table)")
		logLevel    = fs.String("log-level", "off", "live slog JSON events on stderr: off, info (cell granularity) or debug (every trial)")
		cacheStats  = fs.Bool("cache-stats", false, "print the -cache directory's cell entry and rendered entry counts and bytes, then exit")
		cpuProfile  = prof.Flag(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfile, err := prof.Start(*cpuProfile)
	if err != nil {
		return err
	}
	defer stopProfile()
	if *cacheStats {
		if *cacheDir == "" {
			return fmt.Errorf("-cache-stats needs -cache DIR to inspect")
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("-cache-stats takes no campaign file")
		}
		entries, size, err := campaign.CacheEntries(*cacheDir)
		if err != nil {
			return err
		}
		rendered, renderedSize, err := campaign.NewDirBackend(*cacheDir).RenderedStats()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "cache %s: %d entries, %d bytes; %d rendered entries, %d bytes\n",
			*cacheDir, entries, size, rendered, renderedSize)
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one campaign file argument (got %d)", fs.NArg())
	}
	// Fail an unwritable cache directory now, before any trial burns —
	// not per-cell at store time.
	var cache campaign.Backend
	if *cacheDir != "" {
		be := campaign.NewDirBackend(*cacheDir)
		if err := be.Probe(); err != nil {
			return err
		}
		cache = be
	}
	if *csvOut && *jsonlPath == "-" {
		return fmt.Errorf("-csv and -jsonl - both claim stdout: write the JSONL to a file instead")
	}
	if *eventsPath == "-" && (*jsonlPath == "-" || *csvOut) {
		return fmt.Errorf("-events - conflicts with other stdout output: write the event log to a file instead")
	}
	if *jsonlPath != "" && *jsonlPath == *eventsPath {
		return fmt.Errorf("-jsonl and -events both name %s: the records would overwrite the event log", *jsonlPath)
	}
	observer, replay, logged, err := buildObserver(*eventsPath, *logLevel, stderr)
	if err != nil {
		return err
	}
	shard, shards, err := parseShard(*shardSpec)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	outs := outputs{events: *eventsPath, jsonl: *jsonlPath, csv: *csvOut}
	status := func(name string, cells, owned, hits, misses int) {
		line := fmt.Sprintf("campaign %s: %d cells", name, cells)
		if shards > 1 {
			line += fmt.Sprintf(", shard %d/%d owns %d", shard, shards, owned)
		}
		if *cacheDir != "" {
			line += fmt.Sprintf(", cache %d hits, %d misses", hits, misses)
		}
		fmt.Fprintln(stderr, line)
	}

	// A repeated run is served its rendered entry: one file read, and no
	// parse, compile, cell load, event replay or render. A live log wants
	// the per-cell events, so it runs the campaign; so does a damaged or
	// unreadable entry, which that run rewrites.
	var key string
	if cache != nil && !*printSpec {
		key = campaign.RenderedKey(src, shard, shards)
	}
	if key != "" && !logged {
		if r, _ := campaign.LoadRendered(cache, key); r != nil {
			status(r.Name, r.Cells, r.Owned, r.Owned, 0)
			return outs.write(stdout, func(dst [campaign.NumSections]io.Writer) error {
				return writeSections(dst, r.WriteSection)
			})
		}
	}

	spec, err := campaign.Parse(string(src))
	if err != nil {
		return err
	}
	if *printSpec {
		_, err := io.WriteString(stdout, spec.String())
		return err
	}
	plan, err := campaign.Compile(spec, *parallelism)
	if err != nil {
		return err
	}
	out, err := campaign.Execute(ctx, plan, campaign.RunOptions{Shard: shard, Shards: shards, Cache: cache, Observer: observer})
	if err != nil {
		return err
	}
	status(spec.Name, len(plan.Cells), len(out.Results), out.CacheHits, out.CacheMisses)

	render := out.Render(replay)
	return outs.write(stdout, func(dst [campaign.NumSections]io.Writer) error {
		// A run that wrote the canonical log has every section at hand:
		// it keeps them all, with the stream a daemon serves a POST of the
		// source, as the rendered entry the next run is served.
		if key != "" && replay != nil {
			_, err := campaign.StoreRendered(cache, key, spec.Name, len(plan.Cells), len(out.Results), dst, render)
			return err
		}
		return writeSections(dst, render)
	})
}

// outputs are the destinations the output flags name.
type outputs struct {
	events, jsonl string
	csv           bool
}

// write opens the destinations, one per rendered section in section
// order (nil: the section is not written), hands them to fill and
// closes the files among them. The table goes to stdout unless another
// section claims it.
func (o outputs) write(stdout io.Writer, fill func(dst [campaign.NumSections]io.Writer) error) (err error) {
	var files []*os.File
	defer func() {
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	}()
	open := func(path string) (io.Writer, error) {
		if path == "-" {
			return stdout, nil
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	var dst [campaign.NumSections]io.Writer
	if o.events != "" {
		if dst[campaign.SectionEvents], err = open(o.events); err != nil {
			return err
		}
	}
	if o.jsonl != "" {
		if dst[campaign.SectionJSONL], err = open(o.jsonl); err != nil {
			return err
		}
	}
	switch {
	case o.csv:
		dst[campaign.SectionCSV] = stdout
	case o.events != "-" && o.jsonl != "-":
		dst[campaign.SectionTable] = stdout
	}
	return fill(dst)
}

// writeSections renders each section that has a destination into it.
func writeSections(dst [campaign.NumSections]io.Writer, render func(section int, w io.Writer) error) error {
	for s, w := range dst {
		if w != nil {
			if err := render(s, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildObserver assembles the run's event sinks from the -events and
// -log-level flags: a ReplaySink buffering the canonical log (nil when
// -events is unset) teed with a live slog JSON sink on stderr (logged
// reports whether there is one).
func buildObserver(eventsPath, logLevel string, stderr io.Writer) (o obs.Observer, replay *obs.ReplaySink, logged bool, err error) {
	if eventsPath != "" {
		replay = obs.NewReplaySink()
	}
	logSink, err := obs.LogLevelSink(logLevel, stderr)
	if err != nil {
		return nil, nil, false, err
	}
	if replay == nil {
		return obs.Tee(logSink), nil, logSink != nil, nil
	}
	return obs.Tee(replay, logSink), replay, logSink != nil, nil
}

// parseShard parses "i/n" ("" means run everything). Parsing is strict
// — trailing garbage in either number is an error, never a silently
// different shard — because a mis-parsed shard in a distributed run
// would compute the wrong cell range.
func parseShard(s string) (shard, shards int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n, e.g. 0/2)", s)
	}
	shard, err1 := strconv.Atoi(s[:i])
	shards, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n, e.g. 0/2)", s)
	}
	if shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("bad -shard %q (want 0 <= i < n)", s)
	}
	return shard, shards, nil
}
