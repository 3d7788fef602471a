package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestDirBackendRoundTrip: Store/Load round-trip, absent entries are a
// clean (nil, nil), and Stats counts entries and bytes.
func TestDirBackendRoundTrip(t *testing.T) {
	t.Parallel()
	be := NewDirBackend(t.TempDir())
	if data, err := be.Load("deadbeef"); err != nil || data != nil {
		t.Fatalf("absent entry: got (%v, %v), want (nil, nil)", data, err)
	}
	payload := encodeEntry("x", nil)
	if err := be.Store("deadbeef", payload); err != nil {
		t.Fatal(err)
	}
	got, err := be.Load("deadbeef")
	if err != nil || string(got) != string(payload) {
		t.Fatalf("round-trip: got (%q, %v)", got, err)
	}
	n, size, err := be.Stats()
	if err != nil || n != 1 || size != int64(len(payload)) {
		t.Fatalf("Stats() = (%d, %d, %v), want (1, %d, nil)", n, size, err, len(payload))
	}
}

// TestDirBackendLoadMatchesReadFile: Load hands back what os.ReadFile
// would, whatever the entry's length is to its first buffer's: shorter,
// exactly as long, a byte longer, many times longer, and empty (a
// non-nil empty slice, which is how a blank file stays distinct from an
// absent one). A directory where the file should be fails with
// os.ReadFile's own message.
func TestDirBackendLoadMatchesReadFile(t *testing.T) {
	t.Parallel()
	be := NewDirBackend(t.TempDir())
	for _, size := range []int{0, 1, 500, loadBufSize - 1, loadBufSize, loadBufSize + 1, 2 * loadBufSize, 7*loadBufSize + 13} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*31 + size)
		}
		hash := "size-" + strconv.Itoa(size)
		if err := be.Store(hash, payload); err != nil {
			t.Fatal(err)
		}
		want, wantErr := os.ReadFile(be.path(hash))
		got, err := be.Load(hash)
		if err != nil || wantErr != nil || got == nil || !bytes.Equal(got, want) || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte entry: Load gave (%d bytes, nil %v, %v), os.ReadFile (%d bytes, %v)",
				size, len(got), got == nil, err, len(want), wantErr)
		}
	}
	if err := os.Mkdir(be.path("a-directory"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, wantErr := os.ReadFile(be.path("a-directory"))
	got, err := be.Load("a-directory")
	if err == nil || wantErr == nil || err.Error() != wantErr.Error() || got != nil {
		t.Fatalf("directory in place of an entry: Load gave (%v, %v), os.ReadFile fails with %v", got, err, wantErr)
	}
	// Through loadCache that is an unreadable entry, which Execute reports
	// as a cache-corrupt diagnostic and a miss.
	if err := os.Mkdir(be.path(cellHash("fp")), 0o755); err != nil {
		t.Fatal(err)
	}
	if recs, err := loadCache(be, "fp", 1, 1); err == nil || recs != nil || !strings.Contains(err.Error(), "unreadable") {
		t.Fatalf("directory in place of an entry through loadCache: (%v, %v)", recs, err)
	}
}

// TestDirBackendStatsMissingDir: a cache directory that was never
// created reads as empty, not as an error (a cold cache is normal).
func TestDirBackendStatsMissingDir(t *testing.T) {
	t.Parallel()
	be := NewDirBackend(filepath.Join(t.TempDir(), "never-created"))
	n, size, err := be.Stats()
	if err != nil || n != 0 || size != 0 {
		t.Fatalf("Stats() on missing dir = (%d, %d, %v), want (0, 0, nil)", n, size, err)
	}
}

// TestDirBackendProbe: Probe succeeds on a creatable directory and
// hard-errors on an unwritable one — the CLI's fail-fast contract.
func TestDirBackendProbe(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := NewDirBackend(filepath.Join(dir, "sub", "cache")).Probe(); err != nil {
		t.Fatalf("Probe on creatable dir: %v", err)
	}
	if runtime.GOOS == "windows" || os.Geteuid() == 0 {
		t.Skip("no unwritable directories for this user")
	}
	ro := filepath.Join(dir, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if err := NewDirBackend(filepath.Join(ro, "cache")).Probe(); err == nil {
		t.Fatal("Probe on unwritable dir succeeded")
	}
}

// TestMemBackend: the in-memory backend honors the same contract and is
// safe for concurrent use.
func TestMemBackend(t *testing.T) {
	t.Parallel()
	be := NewMemBackend()
	if data, err := be.Load("absent"); err != nil || data != nil {
		t.Fatalf("absent entry: got (%v, %v), want (nil, nil)", data, err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i))
			if err := be.Store(key, []byte(strings.Repeat("x", i+1))); err != nil {
				t.Error(err)
			}
			if _, err := be.Load(key); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	n, size, err := be.Stats()
	if err != nil || n != 8 || size != 1+2+3+4+5+6+7+8 {
		t.Fatalf("Stats() = (%d, %d, %v), want (8, 36, nil)", n, size, err)
	}
	// Stored bytes are copied: mutating the caller's slice afterwards
	// must not corrupt the entry.
	buf := []byte("original")
	be.Store("copy", buf)
	buf[0] = 'X'
	if got, _ := be.Load("copy"); string(got) != "original" {
		t.Fatalf("MemBackend aliased the caller's buffer: %q", got)
	}
}

// TestMemBackendHeldEntriesStayUnchanged: a MemBackend hands every
// reader the slice it holds (Backend's Load contract: the bytes are read
// only), so replaying cells from it twice leaves each entry as it was. A
// decoder that worked in place would fail here.
func TestMemBackendHeldEntriesStayUnchanged(t *testing.T) {
	t.Parallel()
	be := NewMemBackend()
	plan := compileSrc(t, lazyGraphSrc)
	if _, err := plan.Run(RunOptions{Cache: be}); err != nil {
		t.Fatal(err)
	}
	snapshot := map[string][]byte{}
	for hash, data := range be.m {
		if held, _ := be.Load(hash); &held[0] != &data[0] {
			t.Fatalf("entry %s: Load returned a copy, not the held slice", hash)
		}
		snapshot[hash] = bytes.Clone(data)
	}
	if len(snapshot) != len(plan.Cells) {
		t.Fatalf("backend holds %d entries, want %d", len(snapshot), len(plan.Cells))
	}
	for range 2 {
		out, err := plan.Run(RunOptions{Cache: be, Observer: obs.NewReplaySink()})
		if err != nil || out.CacheHits != len(plan.Cells) {
			t.Fatalf("replay from the backend: %v, %d hits", err, out.CacheHits)
		}
	}
	for hash, want := range snapshot {
		if !bytes.Equal(be.m[hash], want) {
			t.Fatalf("entry %s changed while cells replayed from it", hash)
		}
	}
}

// corruptCollector records cache-corrupt diagnostics.
type corruptCollector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *corruptCollector) Observe(e obs.Event) {
	if e.Kind != obs.KindCacheCorrupt {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// TestCorruptCacheEntryDegradesToMiss: with every cache file damaged —
// truncated, bit-flipped, or promising more records than it holds (see
// corruptions) — each cell surfaces a KindCacheCorrupt diagnostic and
// recomputes, the final output is byte-identical to a clean run, and
// the corrupt entries are overwritten with good ones.
func TestCorruptCacheEntryDegradesToMiss(t *testing.T) {
	t.Parallel()
	// The diagnostic kind never enters canonical logs.
	if obs.KindCacheCorrupt.Canonical() {
		t.Fatal("KindCacheCorrupt must be diagnostic")
	}
	for name, damage := range corruptions {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			clean, _ := renderJSONL(t, testCampaignSrc, 2, RunOptions{Cache: NewDirBackend(dir)})

			files, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
			if err != nil || len(files) == 0 {
				t.Fatalf("no cache files to corrupt (err %v)", err)
			}
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(f, damage(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			var c corruptCollector
			recomputed, out := renderJSONL(t, testCampaignSrc, 2, RunOptions{Cache: NewDirBackend(dir), Observer: &c})
			if recomputed != clean {
				t.Fatal("recomputed output differs from the clean run")
			}
			if out.CacheHits != 0 || out.CacheMisses != len(out.Results) {
				t.Fatalf("corrupt entries should all miss: %d hits, %d misses", out.CacheHits, out.CacheMisses)
			}
			if len(c.events) != len(files) {
				t.Fatalf("want %d cache-corrupt diagnostics, got %d", len(files), len(c.events))
			}
			for _, e := range c.events {
				if e.Key == "" || e.Cell < 0 {
					t.Fatalf("cache-corrupt event missing cell identity: %+v", e)
				}
			}

			// Third run: the overwritten entries now hit cleanly.
			var c2 corruptCollector
			warm, out2 := renderJSONL(t, testCampaignSrc, 2, RunOptions{Cache: NewDirBackend(dir), Observer: &c2})
			if warm != clean {
				t.Fatal("warm output differs after corruption recovery")
			}
			if out2.CacheHits != len(out2.Results) || len(c2.events) != 0 {
				t.Fatalf("recovery run: %d hits, %d corrupt events", out2.CacheHits, len(c2.events))
			}
		})
	}
}

// TestLoadCacheTruncated: loadCache itself distinguishes corrupt (error)
// from stale (clean miss) entries.
func TestLoadCacheTruncated(t *testing.T) {
	t.Parallel()
	be := NewMemBackend()
	fp := "fingerprint-under-test"
	if err := storeCache(be, fp, []TrialRecord{{}, {}}); err != nil {
		t.Fatal(err)
	}
	if recs, err := loadCache(be, fp, 2, 2); err != nil || len(recs) != 2 {
		t.Fatalf("clean hit: got (%d recs, %v)", len(recs), err)
	}
	// Stale: record count outside bounds is a clean miss.
	if recs, err := loadCache(be, fp, 3, 3); err != nil || recs != nil {
		t.Fatalf("stale count: got (%v, %v), want (nil, nil)", recs, err)
	}
	// Corrupt: truncated payload is an error.
	data, _ := be.Load(cellHash(fp))
	be.Store(cellHash(fp), data[:len(data)/2])
	if _, err := loadCache(be, fp, 2, 2); err == nil {
		t.Fatal("truncated entry loaded without error")
	}
	// Unreadable: backend I/O failure is an error too.
	if _, err := loadCache(failBackend{}, fp, 2, 2); err == nil {
		t.Fatal("unreadable entry loaded without error")
	}
}

// failBackend is a Backend whose Load always fails. It has no rendered
// entries: the embedded Backend is nil.
type failBackend struct{ Backend }

func (failBackend) Load(string) ([]byte, error) { return nil, errors.New("disk on fire") }
func (failBackend) Store(string, []byte) error  { return errors.New("disk on fire") }
func (failBackend) Stats() (int, int64, error)  { return 0, 0, errors.New("disk on fire") }
