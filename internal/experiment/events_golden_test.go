package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestGoldenEvents pins the canonical event log of one registry
// experiment (E1, a campaign spec) at the golden
// configuration: the committed bytes prove the event schema, the seq
// numbering and the seed derivation stay stable, and rendering at
// Parallelism 1 and 4 enforces the log's scheduling-independence on
// every run. Regenerate after an intentional schema change with
//
//	go test ./internal/experiment -run TestGoldenEvents -update
func TestGoldenEvents(t *testing.T) {
	t.Parallel()
	runner, err := ByID("E1")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "E1.events.golden")
	var rendered [2][]byte
	for i, par := range []int{1, 4} {
		sink := obs.NewReplaySink()
		cfg := goldenConfig(par)
		cfg.Observer = sink
		if _, err := runner(cfg); err != nil {
			t.Fatalf("E1 at parallelism %d: %v", par, err)
		}
		var buf bytes.Buffer
		if err := sink.WriteCanonical(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("E1 emitted no canonical events")
		}
		rendered[i] = buf.Bytes()
	}
	if !bytes.Equal(rendered[0], rendered[1]) {
		t.Fatalf("E1 event log differs between Parallelism 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s",
			rendered[0], rendered[1])
	}
	if *updateGolden {
		if err := os.WriteFile(path, rendered[0], 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden event log (run with -update to create it): %v", err)
	}
	if !bytes.Equal(want, rendered[0]) {
		t.Fatalf("E1 event log drifted from the committed golden (regenerate with -update if intentional):\n--- want ---\n%s\n--- got ---\n%s",
			want, rendered[0])
	}
}
