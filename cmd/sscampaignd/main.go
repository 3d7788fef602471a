// Command sscampaignd is the campaign service daemon: a long-running
// HTTP server that accepts POSTed .campaign specs, executes them with
// the executor sscampaign uses (campaign.Execute) against a shared
// content-addressed result cache, streams per-trial progress as JSONL,
// and serves the finished run's records, tables and canonical event
// log (see internal/service for the API and the determinism contract:
// served bytes are identical to a CLI sscampaign run at the same seed).
//
// Usage:
//
//	sscampaignd                          # in-memory cache, 127.0.0.1:8377
//	sscampaignd -addr 127.0.0.1:0        # pick a free port (logged on stderr)
//	sscampaignd -cache /var/cache/ss     # persistent cache: restarts resume
//	sscampaignd -workers 8 -queue 32     # per-run workers, submit backlog
//	sscampaignd -cpuprofile d.prof       # CPU profile of everything served, written at shutdown
//
// SIGINT/SIGTERM drain gracefully: in-flight cells finish and persist
// to the cache, queued runs fail cleanly, then the process exits. A
// restarted daemon given the same -cache directory resumes a drained
// campaign from the persisted cells and serves byte-identical output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/prof"
	"repro/internal/service"
)

// Server-side bounds on what a client may leave half done. There is no
// WriteTimeout: a progress stream lives as long as its run.
const (
	// readHeaderTimeout bounds a connection that never finishes sending
	// its request headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout bounds a keep-alive connection between requests.
	idleTimeout = 2 * time.Minute
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sscampaignd:", err)
		os.Exit(1)
	}
}

// run binds the listener, serves until ctx cancels (the signal path),
// then drains. ready, when non-nil, receives the bound address once the
// server is accepting (tests bind :0 and need the real port).
func run(ctx context.Context, args []string, stderr io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("sscampaignd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8377", "listen address (\":0\" picks a free port, logged on stderr)")
		cacheDir = fs.String("cache", "", "content-addressed result cache directory (empty: in-memory, lost on exit)")
		workers  = fs.Int("workers", 0, "pool workers per run (0: GOMAXPROCS; served bytes are identical for every value)")
		queue    = fs.Int("queue", 16, "submitted-but-not-started run backlog bound")
		drain    = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget: in-flight cells finish and persist within this window")
		cpuProf  = prof.Flag(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q (campaigns are POSTed to /v1/runs, not passed on the command line)", fs.Args())
	}
	// The profile covers everything served: it stops when run returns,
	// which on the signal path is after the drain.
	stopProfile, err := prof.Start(*cpuProf)
	if err != nil {
		return err
	}
	defer stopProfile()
	var cache campaign.Backend
	if *cacheDir != "" {
		be := campaign.NewDirBackend(*cacheDir)
		// An unusable cache directory fails startup, not the Nth cell of
		// the first run.
		if err := be.Probe(); err != nil {
			return err
		}
		cache = be
	}

	svc := service.New(service.Config{
		Cache:      cache,
		Workers:    *workers,
		QueueDepth: *queue,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "sscampaignd: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "sscampaignd: draining — in-flight cells finish and persist")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Service first: runs reach terminal states and their progress
	// streams close, which lets the HTTP server's Shutdown complete.
	if err := svc.Shutdown(dctx); err != nil {
		fmt.Fprintln(stderr, "sscampaignd: drain incomplete:", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		srv.Close()
		return err
	}
	fmt.Fprintln(stderr, "sscampaignd: stopped")
	return nil
}
