package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func TestRunSelectedExperimentText(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-run", "E9", "-quick", "-trials", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"E9:", "verdict: PASS", "Theorem 4"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunMarkdown(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-run", "E2", "-quick", "-trials", "1", "-markdown"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"## E2", "| graph |", "**Verdict: PASS**"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("markdown missing %q:\n%s", frag, out)
		}
	}
}

func TestRunMultipleIDs(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "E9, E2", "-quick", "-trials", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "E9:") || !strings.Contains(sb.String(), "E2:") {
		t.Fatal("both experiments should appear")
	}
}

func TestRunUnknownID(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-run", "E99"}, &sb)
	if err == nil {
		t.Fatal("unknown experiment id accepted")
	}
	// The hard error must name the offending id and list every valid id.
	for _, frag := range []string{`"E99"`, "valid ids", "E1", "E18"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("unknown-id error missing %q: %v", frag, err)
		}
	}
	// An empty element (trailing comma) is an error too, never a skip.
	if err := run([]string{"-run", "E3,"}, &sb); err == nil {
		t.Fatal("empty experiment id accepted")
	}
}

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, e := range experiment.Registry() {
		if !strings.Contains(out, e.ID+" ") && !strings.Contains(out, e.ID+"  ") {
			t.Fatalf("-list output missing %s:\n%s", e.ID, out)
		}
		if !strings.Contains(out, e.Desc) {
			t.Fatalf("-list output missing description of %s:\n%s", e.ID, out)
		}
	}
	if strings.Contains(out, "verdict") {
		t.Fatal("-list must not run experiments")
	}
}

func TestRunCustomAdversary(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-adversary", "cluster", "-faults", "3", "-inject", "on-silence:2", "-quick", "-trials", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"EX: adversary cluster (k=3) scheduled on-silence:2", "max radius", "verdict: PASS"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunCustomChurn(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-churn", "rewire:2", "-quick", "-trials", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"EX: churn rewire (k=2) scheduled on-silence:2", "churn events", "verdict: PASS"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunCustomChurnComposed(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-churn", "crashjoin", "-churn-inject", "on-silence:2",
		"-adversary", "uniform", "-faults", "1", "-inject", "on-silence:2",
		"-quick", "-trials", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	frag := "EX: churn crashjoin (k=2) scheduled on-silence:2 + adversary uniform (k=1) scheduled on-silence:2"
	if !strings.Contains(out, frag) || !strings.Contains(out, "verdict: PASS") {
		t.Fatalf("composed churn output missing %q:\n%s", frag, out)
	}
}

func TestRunBadChurn(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-churn", "meteor"}, &sb); err == nil {
		t.Fatal("unknown churn shape accepted")
	} else if !strings.Contains(err.Error(), "rewire") {
		t.Fatalf("unknown-shape error does not list shapes: %v", err)
	}
	if err := run([]string{"-churn", "rewire:zero"}, &sb); err == nil {
		t.Fatal("bad churn size accepted")
	}
	if err := run([]string{"-churn", "rewire:0"}, &sb); err == nil {
		t.Fatal("zero churn size accepted")
	}
	if err := run([]string{"-churn", "rewire", "-churn-inject", "sometimes"}, &sb); err == nil {
		t.Fatal("bad churn schedule accepted")
	}
	if err := run([]string{"-churn-inject", "on-silence:2"}, &sb); err == nil {
		t.Fatal("-churn-inject without -churn accepted")
	}
	if err := run([]string{"-run", "E3", "-churn", "rewire"}, &sb); err == nil {
		t.Fatal("-run combined with -churn accepted")
	}
}

func TestRunBadAdversary(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-adversary", "bitrot"}, &sb); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	if err := run([]string{"-adversary", "uniform", "-inject", "sometimes"}, &sb); err == nil {
		t.Fatal("bad schedule accepted")
	}
	if err := run([]string{"-adversary", "uniform", "-faults", "0"}, &sb); err == nil {
		t.Fatal("zero fault size accepted")
	}
}

func TestRunFlagCombinations(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-inject", "on-silence:2"}, &sb); err == nil {
		t.Fatal("-inject without -adversary accepted")
	}
	if err := run([]string{"-faults", "3"}, &sb); err == nil {
		t.Fatal("-faults without -adversary accepted")
	}
	if err := run([]string{"-run", "E3", "-adversary", "uniform"}, &sb); err == nil {
		t.Fatal("-run combined with -adversary accepted")
	}
}

// TestRunEvents: -events writes the canonical log for the selected
// experiments, byte-identical across -parallelism.
func TestRunEvents(t *testing.T) {
	var logs [][]byte
	for _, par := range []string{"1", "4"} {
		ev := filepath.Join(t.TempDir(), "run.events")
		var sb strings.Builder
		if err := run([]string{"-run", "E1", "-quick", "-trials", "2", "-parallelism", par, "-events", ev}, &sb); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), `{"seq":0,"ev":"cell-start"`) {
			t.Fatalf("unexpected first event: %s", data)
		}
		logs = append(logs, data)
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("event logs differ across parallelism:\n--- 1\n%s--- 4\n%s", logs[0], logs[1])
	}
}

func TestRunEventsErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-run", "E1", "-events", "-"}, &sb); err == nil {
		t.Fatal("-events - accepted (stdout carries the tables)")
	}
	if err := run([]string{"-run", "E1", "-log-level", "loud"}, &sb); err == nil {
		t.Fatal("bad -log-level accepted")
	}
}
