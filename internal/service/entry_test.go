package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

var (
	seedLine   = regexp.MustCompile(`(?m)^seed .*$`)
	trialsLine = regexp.MustCompile(`(?m)^trials .*$`)
)

// benchSource is bench/campaigns/NAME.campaign at seed, with its trials
// line rewritten to trials when trials > 0.
func benchSource(t testing.TB, name string, seed uint64, trials int) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "campaigns", name+".campaign"))
	if err != nil {
		t.Fatal(err)
	}
	raw = seedLine.ReplaceAll(raw, []byte("seed "+strconv.FormatUint(seed, 10)))
	if trials > 0 {
		raw = trialsLine.ReplaceAll(raw, []byte("trials "+strconv.Itoa(trials)))
	}
	return string(raw)
}

// cliStore does what `sscampaign -cache DIR -events FILE` does with src
// over be: Execute against the cells, then StoreRendered of every section
// under the unsharded key. It returns the run's cache hits.
func cliStore(t *testing.T, be campaign.Backend, src string) int {
	t.Helper()
	plan := compilePlan(t, src)
	replay := obs.NewReplaySink()
	out, err := campaign.Execute(context.Background(), plan, campaign.RunOptions{Cache: be, Observer: replay})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.StoreRendered(be, keyOf(src), plan.Spec.Name, len(plan.Cells), len(out.Results),
		[campaign.NumSections]io.Writer{}, out.Render(replay)); err != nil {
		t.Fatal(err)
	}
	return out.CacheHits
}

// TestDaemonEntryMatchesCLI: the rendered entry the daemon writes is the
// CLI's. A cold run's entry equals byte for byte, its five sections and
// all, what sscampaign writes over the same cells after the daemon's
// entry is removed; and sscampaign finds every cell there.
func TestDaemonEntryMatchesCLI(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"fault", "plain"} {
		src := benchSource(t, name, 7, 2)
		dir := t.TempDir()
		be := campaign.NewDirBackend(dir)
		svc := New(Config{Workers: 2, Cache: be})
		r := runToDone(t, svc, src)
		shutdown(t, svc)
		daemon, err := campaign.LoadRendered(be, keyOf(src))
		if err != nil || daemon == nil {
			t.Fatalf("%s: the daemon's entry loads as (%v, %v)", name, daemon, err)
		}
		path := filepath.Join(dir, keyOf(src)+".ssr1")
		daemonBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if hits := cliStore(t, be, src); hits != r.Cells() {
			t.Fatalf("%s: sscampaign over the daemon's cache hit %d of %d cells", name, hits, r.Cells())
		}
		cli, err := campaign.LoadRendered(be, keyOf(src))
		if err != nil || cli == nil {
			t.Fatalf("%s: the CLI's entry loads as (%v, %v)", name, cli, err)
		}
		for s, label := range []string{"events", "jsonl", "table", "csv", "stream"} {
			if !bytes.Equal(daemon.Sections[s], cli.Sections[s]) {
				t.Errorf("%s: the daemon's %s differs from the CLI's\n%s", name, label,
					diffHint(string(cli.Sections[s]), string(daemon.Sections[s])))
			}
		}
		if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, daemonBytes) {
			t.Errorf("%s: the daemon's entry differs from the CLI's (%v)", name, err)
		}
	}
}

// TestCLIEntryIsServedWithoutCompiling: a daemon started over a cache
// that sscampaign -cache -events filled serves the first POST of that
// source, and its four GETs, from the CLI's entry; so does a daemon
// started over it again. Neither parses nor compiles anything.
func TestCLIEntryIsServedWithoutCompiling(t *testing.T) {
	t.Parallel()
	src := benchSource(t, "plain", 11, 2)
	dir := t.TempDir()
	cliStore(t, campaign.NewDirBackend(dir), src)
	cli, err := campaign.LoadRendered(campaign.NewDirBackend(dir), keyOf(src))
	if err != nil || cli == nil {
		t.Fatalf("the CLI's entry loads as (%v, %v)", cli, err)
	}
	var compiles atomic.Int64
	counted := func(src string, workers int) (*campaign.Plan, error) {
		compiles.Add(1)
		return compileSource(src, workers)
	}
	for _, start := range []string{"first start", "restart"} {
		svc := New(Config{Workers: 2, Cache: campaign.NewDirBackend(dir), compile: counted})
		rec := httptest.NewRecorder()
		id, stream := postStream(t, svc, src, rec, rec.Body)
		if stream != string(cli.Sections[campaign.SectionStream]) || contentLength(t, rec) != rec.Body.Len() {
			t.Fatalf("%s: the POST did not stream the CLI entry's stream in a body of known length", start)
		}
		r, _ := svc.Get(id)
		if state, _ := r.State(); state != StateDone || r.Cells() != cli.Cells || r.Name() != cli.Name {
			t.Fatalf("%s: the run is %s, %q of %d cells; want done, %q of %d", start, state, r.Name(), r.Cells(), cli.Name, cli.Cells)
		}
		if hits, misses := r.CacheStats(); hits != cli.Cells || misses != 0 {
			t.Fatalf("%s: %d hits, %d misses; want %d and 0", start, hits, misses, cli.Cells)
		}
		for i, kind := range outputKinds {
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+id+"/"+kind, nil))
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), cli.Sections[outputSections[i]]) {
				t.Fatalf("%s: GET %s: status %d, the CLI's bytes: %v", start, kind, rec.Code,
					bytes.Equal(rec.Body.Bytes(), cli.Sections[outputSections[i]]))
			}
		}
		shutdown(t, svc)
	}
	if n := compiles.Load(); n != 0 {
		t.Fatalf("serving the CLI's entry parsed and compiled %d times, want 0", n)
	}
}

// getAllocBytes bounds what one GET of a rendered entry's section
// allocates over TCP, the client's side included: the request, the
// response and the open file, and no copy of the section.
const getAllocBytes = 16 << 10

// TestFinishedRunsLeaveNoArtifactBytes: with a DirBackend, finished runs
// leave their artifacts in the cache directory and none in the heap.
// Sixteen fresh runs of bench/campaigns/fault.campaign at 4 trials (over
// 100 KB of artifacts each) grow the live heap by what a run's status and
// its source's text and index entry take: the source's length and 1 KiB
// a run. A GET of the 171 KB events section of bench/campaigns/
// plain.campaign over TCP allocates under getAllocBytes: the section goes
// from the file to the socket. Not parallel: it reads the process's heap.
func TestFinishedRunsLeaveNoArtifactBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("a measurement of the heap, which the race detector changes")
	}
	be := campaign.NewDirBackend(t.TempDir())
	svc, ts := startTestServer(t, Config{Workers: 2, Cache: be})
	runToDone(t, svc, benchSource(t, "fault", 100, 4)) // the registry's and the store's first growth
	const runs = 16
	srcs := make([]string, runs)
	for i := range srcs {
		srcs[i] = benchSource(t, "fault", uint64(101+i), 4)
	}
	before := heapAfterGC()
	for _, src := range srcs {
		runToDone(t, svc, src)
	}
	after := heapAfterGC()
	_, indexed := svc.ArtifactStats()
	grown := int64(after) - int64(before)
	t.Logf("%d fresh runs: %d B of entries indexed, live heap grew %d B", runs, indexed, grown)
	if bound := int64(runs * (len(srcs[0]) + 1<<10)); indexed < runs*100<<10 || grown > bound {
		t.Fatalf("%d fresh runs index %d B of entries and grow the live heap %d B; want over %d B and under %d B",
			runs, indexed, grown, runs*100<<10, bound)
	}

	src := benchSource(t, "plain", 2009, 0)
	run := runToDone(t, svc, src)
	url := ts.URL + "/v1/runs/" + run.ID + "/events"
	client := ts.Client()
	size := 0
	get := func(int) {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength != n {
			t.Fatalf("GET events: status %d, %d bytes of %d (%v)", resp.StatusCode, n, resp.ContentLength, err)
		}
		size = int(n)
	}
	get(0) // the connection's buffers
	perGet := allocatedPerOp(20, get)
	t.Logf("a GET of a %d B events section allocates %d B", size, perGet)
	if size < 160<<10 || perGet > getAllocBytes {
		t.Fatalf("a GET of a %d B events section allocated %d B, want under %d B", size, perGet, getAllocBytes)
	}
}

// readOnlyBackend is a DirBackend whose writes fail once ro is set, as a
// cache directory turned read-only would fail them (a test that runs as
// root cannot make one).
type readOnlyBackend struct {
	*campaign.DirBackend
	ro atomic.Bool
}

func (b *readOnlyBackend) Store(hash string, data []byte) error {
	if b.ro.Load() {
		return fs.ErrPermission
	}
	return b.DirBackend.Store(hash, data)
}

func (b *readOnlyBackend) WriteRendered(key string, write func(io.Writer) error) (campaign.Stamp, error) {
	if b.ro.Load() {
		return campaign.Stamp{}, fs.ErrPermission
	}
	return b.DirBackend.WriteRendered(key, write)
}

func (b *readOnlyBackend) RemoveRendered(key string) error {
	if b.ro.Load() {
		return fs.ErrPermission
	}
	return b.DirBackend.RemoveRendered(key)
}

// TestReadOnlyCacheServesOrFails: once the cache directory refuses
// writes, a finished run's GETs serve its entry's bytes, also after the
// entry left the index. A run that reads every cell from the prefilled
// cache but cannot store its entry there is done all the same, its entry
// kept in memory and charged to the store, and so is the run that
// writes an evicted entry again; a run that cannot store its cells fails
// with the write's error, which its GETs report. No GET returns a body
// other than the right bytes or the error.
func TestReadOnlyCacheServesOrFails(t *testing.T) {
	t.Parallel()
	be := &readOnlyBackend{DirBackend: campaign.NewDirBackend(t.TempDir())}
	svc, ts := startTestServer(t, Config{Workers: 2, Cache: be})
	served := atSeed(plainCampaignSrc, 1)
	done := runToDone(t, svc, served)
	unrendered := atSeed(plainCampaignSrc, 3)
	runToDone(t, svc, unrendered)
	dropKept(svc, unrendered) // its cells stay, its entry goes
	be.ro.Store(true)

	// get fetches every artifact of id and requires the reference bytes
	// of src under their Content-Length, or else (src == "") the refused
	// write in an error.
	get := func(id, src string) {
		t.Helper()
		var ref artifacts
		if src != "" {
			ref = cliArtifacts(t, src)
		}
		for i, kind := range outputKinds {
			resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/" + kind)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			want := [...]string{ref.jsonl, ref.events, ref.table, ref.csv}[i]
			switch {
			case src != "" && (resp.StatusCode != http.StatusOK || string(body) != want || resp.ContentLength != int64(len(body))):
				t.Fatalf("GET %s %s: status %d, %d of %d bytes, the reference bytes: %v", id, kind,
					resp.StatusCode, len(body), resp.ContentLength, string(body) == want)
			case src == "":
				var e struct{ Error string }
				if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil ||
					!strings.Contains(e.Error, fs.ErrPermission.Error()) {
					t.Fatalf("GET %s %s: status %d, body %q; want the refused write's error", id, kind, resp.StatusCode, body)
				}
			}
		}
	}
	get(done.ID, served)
	// The index forgets the entry; the file is still there to be read.
	dropIndex(svc, served)
	get(done.ID, served)
	get(runToDone(t, svc, served).ID, served)

	// A full-hit run over the prefilled cache keeps its entry in memory.
	warm := runToDone(t, svc, unrendered)
	if hits, misses := warm.CacheStats(); hits != warm.Cells() || misses != 0 {
		t.Fatalf("the run over the prefilled cache: %d hits, %d misses", hits, misses)
	}
	if idx, err := campaign.IndexRendered(be, keyOf(unrendered)); idx != nil || err != nil {
		t.Fatalf("a read-only cache holds the run's entry (%v)", err)
	}
	if n, size := svc.ArtifactStats(); n != 2 || size < int64(len(keptStream(svc, unrendered))) {
		t.Fatalf("the store indexes %d entries, %d bytes; want both, the one in memory charged", n, size)
	}
	get(warm.ID, unrendered)
	// Evicted, it is written to memory again by the GET that wants it.
	dropKept(svc, unrendered)
	get(warm.ID, unrendered)

	// A fresh run cannot store its cells.
	r, err := svc.Submit(atSeed(plainCampaignSrc, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitClosed(t, r.Done())
	if state, err := r.State(); state != StateFailed || !strings.Contains(fmt.Sprint(err), fs.ErrPermission.Error()) {
		t.Fatalf("%s over a read-only cache: %s, %v; want failed with the refused write", r.ID, state, err)
	}
	get(r.ID, "")
}

// TestChangedEntryIsRecomputed: an entry truncated, or rewritten in place
// at the same length, after it was indexed no longer has the indexed
// stamp. The GET drops the index entry, finds the file damaged, runs the
// source again and serves the bytes of the first run, and the entry on
// disk is whole again.
func TestChangedEntryIsRecomputed(t *testing.T) {
	t.Parallel()
	src := atSeed(plainCampaignSrc, 1)
	want := cliArtifacts(t, src)
	for _, change := range []string{"truncated", "rewritten"} {
		dir := t.TempDir()
		be := campaign.NewDirBackend(dir)
		svc := New(Config{Workers: 2, Cache: be})
		r := runToDone(t, svc, src)
		path := filepath.Join(dir, keyOf(src)+".ssr1")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch change {
		case "truncated":
			err = os.Truncate(path, int64(len(data)/2))
		case "rewritten":
			// A byte of the JSONL flipped, and a later mtime: a clock
			// coarser than the write would otherwise keep the old one.
			idx, _ := svc.store.index(keyOf(src))
			data[idx.Off[campaign.SectionJSONL]] ^= 0x20
			if err = os.WriteFile(path, data, 0o644); err == nil {
				later := time.Unix(0, idx.Stamp.ModTime).Add(time.Second)
				err = os.Chtimes(path, later, later)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := servedArtifacts(t, r); got != want {
			t.Fatalf("%s entry: the GETs differ from Plan.Run's\n%s", change, diffHint(want.jsonl, got.jsonl))
		}
		if idx, err := campaign.IndexRendered(be, keyOf(src)); err != nil || idx == nil {
			t.Fatalf("%s entry: not rewritten (%v)", change, err)
		}
		shutdown(t, svc)
	}
}

// closeCounter is a DirBackend that counts the rendered entries it opens
// and the ones closed again.
type closeCounter struct {
	*campaign.DirBackend
	opened, closed atomic.Int64
}

func (b *closeCounter) OpenRendered(key string) (campaign.EntryReader, error) {
	f, err := b.DirBackend.OpenRendered(key)
	if f == nil {
		return f, err
	}
	b.opened.Add(1)
	return countedEntry{f, b}, nil
}

type countedEntry struct {
	campaign.EntryReader
	b *closeCounter
}

func (e countedEntry) Close() error {
	e.b.closed.Add(1)
	return e.EntryReader.Close()
}

// TestEntriesAreClosed: every rendered entry the service opens is closed
// again, by resident POSTs with and without a stream, by GETs, and by
// the runs that index, check and write entries.
func TestEntriesAreClosed(t *testing.T) {
	t.Parallel()
	be := &closeCounter{DirBackend: campaign.NewDirBackend(t.TempDir())}
	svc := New(Config{Workers: 2, Cache: be})
	defer shutdown(t, svc)
	src := atSeed(plainCampaignSrc, 1)
	runToDone(t, svc, src)
	dropKept(svc, src)
	runToDone(t, svc, src) // writes the entry again
	for range 3 {
		r := runToDone(t, svc, src)
		rec := httptest.NewRecorder()
		postStream(t, svc, src, rec, rec.Body)
		servedArtifacts(t, r)
	}
	if opened, closed := be.opened.Load(), be.closed.Load(); opened == 0 || opened != closed {
		t.Fatalf("the service opened %d rendered entries and closed %d", opened, closed)
	}
}
