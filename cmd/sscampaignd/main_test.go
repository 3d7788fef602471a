package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

const daemonSrc = `campaign daemontest
trials 2
max-steps 100000
graph path 4
protocol coloring mis
metrics silent legitimate rounds
`

// syncBuffer keeps the daemon's stderr readable while run() is still
// writing it from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon runs the daemon on a free port and returns its base URL
// plus a shutdown function that triggers the signal path and waits.
func startDaemon(t *testing.T, extra ...string) (base string, stderr *syncBuffer, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stderr = &syncBuffer{}
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() {
		errCh <- run(ctx, args, stderr, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never bound")
	}
	var once sync.Once
	var stopErr error
	shutdown = func() error {
		once.Do(func() {
			cancel()
			select {
			case stopErr = <-errCh:
			case <-time.After(30 * time.Second):
				stopErr = fmt.Errorf("daemon did not stop")
			}
		})
		return stopErr
	}
	t.Cleanup(func() { shutdown() })
	return base, stderr, shutdown
}

// cliJSONL renders the reference per-trial records the way the
// sscampaign CLI would, for byte comparison against the served run.
func cliJSONL(t *testing.T, src string) string {
	t.Helper()
	spec, err := campaign.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.Compile(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Run(campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := out.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestDaemonEndToEnd drives the real binary path: bind :0, POST a
// campaign, stream it to completion, fetch the records, compare bytes
// with the in-process CLI run, then shut down via the signal context.
func TestDaemonEndToEnd(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	profile := filepath.Join(t.TempDir(), "daemon.prof")
	base, stderr, shutdown := startDaemon(t, "-cache", cache, "-workers", "3", "-cpuprofile", profile)

	resp, err := http.Post(base+"/v1/runs", "text/plain", strings.NewReader(daemonSrc))
	if err != nil {
		t.Fatal(err)
	}
	var posted struct {
		ID     string `json:"id"`
		Name   string `json:"name"`
		Stream string `json:"stream"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&posted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || posted.Name != "daemontest" {
		t.Fatalf("POST: status %d, body %+v", resp.StatusCode, posted)
	}

	// The stream ends when the run does; every line must be JSON.
	sresp, err := http.Get(base + posted.Stream)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("stream line not JSON: %q", sc.Text())
		}
	}
	sresp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	jresp, err := http.Get(base + "/v1/runs/" + posted.ID + "/jsonl")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("GET jsonl: status %d: %s", jresp.StatusCode, served)
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := cliJSONL(t, daemonSrc); string(served) != want {
		t.Fatalf("served JSONL differs from the CLI run:\n--- served\n%s--- cli\n%s", served, want)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if out := stderr.String(); !strings.Contains(out, "listening on http://") || !strings.Contains(out, "stopped") {
		t.Fatalf("daemon stderr missing lifecycle lines:\n%s", out)
	}
	// The profile is finished by the time the drain returns.
	if info, err := os.Stat(profile); err != nil || info.Size() == 0 {
		t.Fatalf("-cpuprofile after shutdown: %v, %v", info, err)
	}
	// The drained cache persists the run's cells for the next daemon.
	if entries, _, err := campaign.CacheEntries(cache); err != nil || entries != 2 {
		t.Fatalf("cache after shutdown: %d entries, %v", entries, err)
	}
}

// TestDaemonFlagErrors pins the startup failure surface.
func TestDaemonFlagErrors(t *testing.T) {
	ctx := context.Background()
	var stderr syncBuffer
	if err := run(ctx, []string{"positional.campaign"}, &stderr, nil); err == nil {
		t.Fatal("positional argument accepted")
	}
	if err := run(ctx, []string{"-addr", "999.999.999.999:0"}, &stderr, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
	if err := run(ctx, []string{"-nosuchflag"}, &stderr, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestDaemonUnwritableCache: a bad -cache directory fails startup, not
// the first run.
func TestDaemonUnwritableCache(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("no unwritable directories for root")
	}
	ro := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	var stderr syncBuffer
	if err := run(context.Background(), []string{"-cache", filepath.Join(ro, "cache")}, &stderr, nil); err == nil {
		t.Fatal("unwritable -cache accepted")
	}
}
