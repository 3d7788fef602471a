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

// refused runs ssbench with args, a use of the custom fault and churn
// scenario flags it no longer defines (a single scenario is a campaign
// file run by sscampaign, e.g. examples/campaigns/ex-fault.campaign),
// and requires an undefined-flag error and no table.
func refused(t *testing.T, args ...string) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("%v: error %v, want an undefined-flag error", args, err)
	}
	if sb.Len() != 0 {
		t.Errorf("%v: printed a table:\n%s", args, sb.String())
	}
}

func TestRunBadAdversary(t *testing.T) {
	refused(t, "-adversary", "bitrot")
	refused(t, "-adversary", "uniform", "-inject", "on-silence:2", "-quick", "-trials", "1")
	refused(t, "-faults", "2", "-adversary", "uniform")
}

func TestRunBadChurn(t *testing.T) {
	refused(t, "-churn", "rewire:2", "-quick", "-trials", "1")
	refused(t, "-churn-inject", "on-silence:2", "-churn", "rewire")
}

// TestRunFlagCombinations: combined with a registry selection, each of
// the five former custom-scenario flags is still a usage error.
func TestRunFlagCombinations(t *testing.T) {
	for _, flag := range []string{"-adversary", "-faults", "-inject", "-churn", "-churn-inject"} {
		refused(t, "-run", "E3", "-quick", "-trials", "1", flag, "2")
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
