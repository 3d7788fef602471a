package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
)

const testSrc = `campaign clitest
trials 2
max-steps 100000
graph path 4
protocol coloring mis
metrics silent legitimate rounds
`

func writeCampaign(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.campaign")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTable(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{writeCampaign(t, testSrc)}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"campaign clitest: 2 cells × 2 trials", "path-4|coloring|random-subset|0", "2/2"} {
		if !strings.Contains(out.String(), frag) {
			t.Fatalf("table output missing %q:\n%s", frag, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "campaign clitest: 2 cells") {
		t.Fatalf("status line missing:\n%s", errOut.String())
	}
	if strings.Contains(errOut.String(), "cache") {
		t.Fatal("cache stats reported without -cache")
	}
}

func TestRunPrintCanonical(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-print", writeCampaign(t, "campaign p\ngraph path 4\nprotocol coloring\n")}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	// Canonical form resolves every default.
	for _, frag := range []string{"campaign p\n", "seed 2009\n", "trials 5\n", "daemon random-subset\n", "metrics silent"} {
		if !strings.Contains(out.String(), frag) {
			t.Fatalf("-print missing %q:\n%s", frag, out.String())
		}
	}
}

func TestRunJSONLToStdout(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-jsonl", "-", writeCampaign(t, testSrc)}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 4 { // 2 cells × 2 trials
		t.Fatalf("want 4 JSONL lines, got %d:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], `{"cell":0,"key":"path-4|coloring|random-subset|0","trial":0`) {
		t.Fatalf("unexpected first record: %s", lines[0])
	}
	if strings.Contains(out.String(), "cells ×") {
		t.Fatal("-jsonl - must suppress the table on stdout")
	}
}

func TestRunCSV(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-csv", writeCampaign(t, testSrc)}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "cell,key,trials,silent,legitimate,rounds,±ci95\n") {
		t.Fatalf("CSV header wrong:\n%s", out.String())
	}
}

// TestRunCacheAndShard: a shard's cells serve the unsharded run from the
// cache, but the shard's rendered entry does not: its outputs are the
// shard's alone.
func TestRunCacheAndShard(t *testing.T) {
	var errOut strings.Builder
	path := writeCampaign(t, testSrc)
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	var first strings.Builder
	if err := run(context.Background(), []string{"-cache", cache, "-shard", "0/2", "-events", filepath.Join(dir, "shard.events"), path}, &first, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "shard 0/2 owns 1") || !strings.Contains(errOut.String(), "cache 0 hits, 1 misses") {
		t.Fatalf("shard/cache status wrong:\n%s", errOut.String())
	}
	// Unsharded resume: the shard's cell hits, the other misses.
	errOut.Reset()
	var second strings.Builder
	if err := run(context.Background(), []string{"-cache", cache, "-events", filepath.Join(dir, "whole.events"), path}, &second, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "cache 1 hits, 1 misses") {
		t.Fatalf("resume status wrong:\n%s", errOut.String())
	}
}

// runOut runs one command line to success and returns its stdout and
// stderr.
func runOut(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	if err := run(context.Background(), args, &out, &errOut); err != nil {
		t.Fatalf("sscampaign %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String()
}

// renderedEntries lists a cache directory's rendered entries.
func renderedEntries(t *testing.T, cache string) []string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(cache, "*.ssr1"))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestRunRenderedHit: a run with -events keeps a rendered entry, and
// later runs of the source are served from it (the table, -csv, -jsonl -
// and -events -) byte for byte as an uncached run prints them. The cell
// entries are deleted first, so only the rendered entry can report hits.
func TestRunRenderedHit(t *testing.T) {
	path := writeCampaign(t, testSrc)
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	runOut(t, "-cache", cache, "-events", filepath.Join(dir, "cold.events"), path)
	if n := len(renderedEntries(t, cache)); n != 1 {
		t.Fatalf("cold run with -events kept %d rendered entries, want 1", n)
	}
	cells, _ := filepath.Glob(filepath.Join(cache, "*.ssc4"))
	for _, c := range cells {
		os.Remove(c)
	}
	for _, flags := range [][]string{nil, {"-csv"}, {"-jsonl", "-"}, {"-events", "-"}} {
		want, _ := runOut(t, append(flags, path)...)
		got, status := runOut(t, append(append([]string{"-cache", cache}, flags...), path)...)
		if got != want {
			t.Errorf("served %v differs from an uncached run:\n%s\n---\n%s", flags, got, want)
		}
		if !strings.Contains(status, "campaign clitest: 2 cells, cache 2 hits, 0 misses") {
			t.Errorf("served %v status: %s", flags, status)
		}
	}
	if n, _, _ := campaign.CacheEntries(cache); n != 0 {
		t.Fatalf("served runs wrote %d cell entries", n)
	}
}

// TestRunRenderedDamaged: a damaged rendered entry is a miss. The run
// takes the cell path, writes the bytes the cold run wrote and rewrites
// the entry.
func TestRunRenderedDamaged(t *testing.T) {
	path := writeCampaign(t, testSrc)
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	outputs := func(tag string) []string {
		return []string{"-cache", cache, "-jsonl", filepath.Join(dir, tag+".jsonl"), "-events", filepath.Join(dir, tag+".events"), path}
	}
	wantTable, _ := runOut(t, outputs("cold")...)
	entries := renderedEntries(t, cache)
	if len(entries) != 1 {
		t.Fatalf("cold run kept %d rendered entries, want 1", len(entries))
	}
	valid, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	damaged := bytes.Clone(valid)
	damaged[len(damaged)/2] ^= 0x04 // inside the sections
	if err := os.WriteFile(entries[0], damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	table, status := runOut(t, outputs("warm")...)
	if !strings.Contains(status, "cache 2 hits, 0 misses") {
		t.Fatalf("run over a damaged entry: %s", status)
	}
	if table != wantTable {
		t.Fatalf("table over a damaged entry differs:\n%s\n---\n%s", table, wantTable)
	}
	for _, ext := range []string{".jsonl", ".events"} {
		a, errA := os.ReadFile(filepath.Join(dir, "cold"+ext))
		b, errB := os.ReadFile(filepath.Join(dir, "warm"+ext))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("warm%s over a damaged entry differs from cold%s (%v, %v)", ext, ext, errA, errB)
		}
	}
	if rewritten, err := os.ReadFile(entries[0]); err != nil || !bytes.Equal(rewritten, valid) {
		t.Fatalf("the damaged entry was not rewritten (%v)", err)
	}
}

// TestRunLogLevelBypassesRendered: a live log asks for per-cell events,
// so a run with -log-level info goes through the cell path even when a
// rendered entry could serve it, and prints the same bytes.
func TestRunLogLevelBypassesRendered(t *testing.T) {
	path := writeCampaign(t, testSrc)
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	want, _ := runOut(t, "-cache", cache, "-events", filepath.Join(dir, "cold.events"), path)
	got, status := runOut(t, "-cache", cache, "-log-level", "info", path)
	if !strings.Contains(status, `"msg":"cell-finish"`) {
		t.Fatalf("-log-level info over a rendered entry logged no cell events:\n%s", status)
	}
	if got != want {
		t.Fatalf("-log-level info table differs:\n%s\n---\n%s", got, want)
	}
}

// TestRunCacheStats: -cache-stats reports the entry count and total
// bytes of a cache directory without running anything.
func TestRunCacheStats(t *testing.T) {
	path := writeCampaign(t, testSrc)
	cache := filepath.Join(t.TempDir(), "cache")
	var out, errOut strings.Builder

	// An empty (not yet created) cache reads as zero entries.
	if err := run(context.Background(), []string{"-cache", cache, "-cache-stats"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 entries, 0 bytes; 0 rendered entries, 0 bytes") {
		t.Fatalf("empty cache stats wrong:\n%s", out.String())
	}

	// A run without -events stores the cells alone; one with it, the
	// rendered entry too, which the stats count apart.
	populated := regexp.MustCompile(`: 2 entries, [1-9][0-9]* bytes; (\d+) rendered entries, (\d+) bytes\n$`)
	for i, flags := range [][]string{nil, {"-events", filepath.Join(t.TempDir(), "run.events")}} {
		if err := run(context.Background(), append(append([]string{"-cache", cache}, flags...), path), &out, &errOut); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if err := run(context.Background(), []string{"-cache", cache, "-cache-stats"}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		m := populated.FindStringSubmatch(out.String())
		if m == nil || m[1] != strconv.Itoa(i) || (m[2] == "0") != (i == 0) {
			t.Fatalf("populated cache stats wrong after run %d:\n%s", i, out.String())
		}
	}

	// Guard rails: -cache-stats without -cache, or with a file argument.
	if err := run(context.Background(), []string{"-cache-stats"}, &out, &errOut); err == nil {
		t.Fatal("-cache-stats without -cache accepted")
	}
	if err := run(context.Background(), []string{"-cache", cache, "-cache-stats", path}, &out, &errOut); err == nil {
		t.Fatal("-cache-stats with a campaign file accepted")
	}
}

// TestRunUnwritableCache: an unusable -cache directory fails the run up
// front, before any trials execute.
func TestRunUnwritableCache(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("no unwritable directories for root")
	}
	ro := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	err := run(context.Background(), []string{"-cache", filepath.Join(ro, "cache"), writeCampaign(t, testSrc)}, &out, &errOut)
	if err == nil {
		t.Fatal("unwritable -cache dir accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("failed run still produced output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{}, &out, &errOut); err == nil {
		t.Fatal("missing file argument accepted")
	}
	if err := run(context.Background(), []string{filepath.Join(t.TempDir(), "absent.campaign")}, &out, &errOut); err == nil {
		t.Fatal("unreadable file accepted")
	}
	bad := writeCampaign(t, "campaign x\ngraph warp 4\nprotocol coloring\n")
	if err := run(context.Background(), []string{bad, bad}, &out, &errOut); err == nil {
		t.Fatal("two file arguments accepted")
	}
	if err := run(context.Background(), []string{bad}, &out, &errOut); err == nil || !strings.Contains(err.Error(), "unknown graph family") {
		t.Fatalf("parse error not surfaced: %v", err)
	}
	good := writeCampaign(t, testSrc)
	for _, shard := range []string{"2", "a/b", "2/2", "-1/2", "0/0", "0x1/2", "1/2abc", "0 /2"} {
		if err := run(context.Background(), []string{"-shard", shard, good}, &out, &errOut); err == nil {
			t.Fatalf("bad -shard %q accepted", shard)
		}
	}
}

// TestRunEventsFile: -events writes the canonical log, and the bytes
// are identical across -parallelism and across cache states.
func TestRunEventsFile(t *testing.T) {
	path := writeCampaign(t, testSrc)
	cache := filepath.Join(t.TempDir(), "cache")
	logs := make([][]byte, 0, 3)
	for _, args := range [][]string{
		{"-parallelism", "1", "-cache", cache}, // cold, populates the cache
		{"-parallelism", "4"},                  // uncached
		{"-parallelism", "4", "-cache", cache}, // fully warm
	} {
		ev := filepath.Join(t.TempDir(), "run.events")
		var out, errOut strings.Builder
		if err := run(context.Background(), append(append([]string{"-events", ev}, args...), path), &out, &errOut); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), `{"seq":0,"ev":"campaign-start","key":"clitest","cells":2}`) {
			t.Fatalf("unexpected first event: %s", data)
		}
		if !strings.Contains(out.String(), "cells ×") {
			t.Fatal("-events FILE must keep the table on stdout")
		}
		logs = append(logs, data)
	}
	if !bytes.Equal(logs[0], logs[1]) || !bytes.Equal(logs[0], logs[2]) {
		t.Fatalf("event logs differ across parallelism/cache state:\n--- cold p1\n%s--- p4\n%s--- warm p4\n%s",
			logs[0], logs[1], logs[2])
	}
}

// TestRunEventsStdout: -events - owns stdout and suppresses the table.
func TestRunEventsStdout(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-events", "-", writeCampaign(t, testSrc)}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), `{"seq":0,"ev":"campaign-start"`) {
		t.Fatalf("stdout is not the event log:\n%s", out.String())
	}
	if strings.Contains(out.String(), "cells ×") {
		t.Fatal("-events - must suppress the table")
	}
	// A -jsonl file beside it is still written.
	jsonl := filepath.Join(t.TempDir(), "run.jsonl")
	if err := run(context.Background(), []string{"-events", "-", "-jsonl", jsonl, writeCampaign(t, testSrc)}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(jsonl); err != nil || bytes.Count(data, []byte{'\n'}) != 4 {
		t.Fatalf("-events - with -jsonl FILE: %d lines in the file (%v), want 4", bytes.Count(data, []byte{'\n'}), err)
	}
}

// TestRunLogLevel: -log-level emits timestamped slog JSON on stderr,
// never on stdout.
func TestRunLogLevel(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"-log-level", "info", writeCampaign(t, testSrc)}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), `"msg":"cell-finish"`) {
		t.Fatalf("stderr missing slog events:\n%s", errOut.String())
	}
	if strings.Contains(out.String(), `"msg":`) {
		t.Fatal("slog events leaked to stdout")
	}
	// debug adds trial granularity.
	errOut.Reset()
	out.Reset()
	if err := run(context.Background(), []string{"-log-level", "debug", writeCampaign(t, testSrc)}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), `"msg":"trial-finish"`) {
		t.Fatalf("debug level missing trial events:\n%s", errOut.String())
	}
}

func TestRunEventsErrors(t *testing.T) {
	var out, errOut strings.Builder
	good := writeCampaign(t, testSrc)
	if err := run(context.Background(), []string{"-events", "-", "-csv", good}, &out, &errOut); err == nil {
		t.Fatal("-events - with -csv accepted")
	}
	if err := run(context.Background(), []string{"-events", "-", "-jsonl", "-", good}, &out, &errOut); err == nil {
		t.Fatal("-events - with -jsonl - accepted")
	}
	shared := filepath.Join(t.TempDir(), "run.out")
	if err := run(context.Background(), []string{"-jsonl", shared, "-events", shared, good}, &out, &errOut); err == nil {
		t.Fatal("-jsonl and -events on one path accepted")
	} else if _, statErr := os.Stat(shared); !os.IsNotExist(statErr) {
		t.Fatalf("rejected run still touched %s: %v", shared, statErr)
	}
	if err := run(context.Background(), []string{"-log-level", "loud", good}, &out, &errOut); err == nil {
		t.Fatal("bad -log-level accepted")
	}
}

// cancelOnSecondCellFinish is a stderr that cancels the run's context
// when the second cell-finish log line goes by: what Ctrl-C does, at a
// known point.
type cancelOnSecondCellFinish struct {
	strings.Builder
	cancel context.CancelFunc
	seen   int
}

func (w *cancelOnSecondCellFinish) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"msg":"cell-finish"`)) {
		if w.seen++; w.seen == 2 {
			w.cancel()
		}
	}
	return w.Builder.Write(p)
}

// TestRunDrainsOnCancelAndResumes: an interrupted sscampaign finishes the
// cell it is on, stores it, starts no other and writes none of its
// outputs; the same command again serves the finished cells from -cache
// and prints what a run nobody interrupted prints.
func TestRunDrainsOnCancelAndResumes(t *testing.T) {
	path := writeCampaign(t, strings.Replace(testSrc, "graph path 4", "graph path 4..8/2", 1)) // 6 cells
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	outputs := func(tag string) []string {
		return []string{"-jsonl", filepath.Join(dir, tag+".jsonl"), "-events", filepath.Join(dir, tag+".events")}
	}
	var want, wantErr strings.Builder
	if err := run(context.Background(), append(outputs("whole"), path), &want, &wantErr); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out strings.Builder
	errOut := &cancelOnSecondCellFinish{cancel: cancel}
	args := append(outputs("cut"), "-parallelism", "1", "-cache", cache, "-log-level", "info", path)
	err := run(ctx, args, &out, errOut)
	if !errors.Is(err, campaign.ErrDrained) || !strings.Contains(err.Error(), "4 of 6 cells remain") {
		t.Fatalf("interrupted run returned %v, want ErrDrained with 4 of 6 cells remaining", err)
	}
	if out.Len() != 0 || strings.Contains(errOut.String(), "campaign clitest:") {
		t.Fatalf("interrupted run still reported:\nstdout: %s\nstderr: %s", out.String(), errOut.String())
	}
	for _, ext := range []string{".jsonl", ".events"} {
		if _, err := os.Stat(filepath.Join(dir, "cut"+ext)); !os.IsNotExist(err) {
			t.Fatalf("interrupted run wrote cut%s (stat: %v)", ext, err)
		}
	}
	if n, _, err := campaign.CacheEntries(cache); err != nil || n != 2 {
		t.Fatalf("cache holds %d cells after the interrupt (err %v), want the 2 that finished", n, err)
	}
	if entries := renderedEntries(t, cache); len(entries) != 0 {
		t.Fatalf("interrupted run kept rendered entries %v", entries)
	}

	var resumed, resumedErr strings.Builder
	if err := run(context.Background(), append(outputs("resumed"), "-cache", cache, path), &resumed, &resumedErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumedErr.String(), "cache 2 hits, 4 misses") {
		t.Fatalf("resume status wrong:\n%s", resumedErr.String())
	}
	if resumed.String() != want.String() {
		t.Fatalf("resumed table differs from an uninterrupted run's:\n%s\n%s", want.String(), resumed.String())
	}
	for _, ext := range []string{".jsonl", ".events"} {
		a, errA := os.ReadFile(filepath.Join(dir, "whole"+ext))
		b, errB := os.ReadFile(filepath.Join(dir, "resumed"+ext))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("resumed%s differs from an uninterrupted run's (%v, %v)", ext, errA, errB)
		}
	}
}
