package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// The lines the benchmark's scale-sync workload parses from ssscale's
// output (bench/workloads.go): the process count, the silence line with
// its rounds and steps, and the wall time.
var (
	graphLine  = regexp.MustCompile(`(?m)^graph\s+\S+ \(n=(\d+),`)
	silentLine = regexp.MustCompile(`(?m)^silent\s+true \(legitimate true\) after (\d+) rounds, (\d+) steps$`)
	wallLine   = regexp.MustCompile(`(?m)^wall\s+([0-9.]+)s$`)
)

func TestReportLines(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "400", "-seed", "7"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, re := range []*regexp.Regexp{graphLine, silentLine, wallLine} {
		if !re.Match(out.Bytes()) {
			t.Errorf("no line matches %s in:\n%s", re, out.String())
		}
	}
	if m := graphLine.FindSubmatch(out.Bytes()); m != nil && string(m[1]) != "400" {
		t.Errorf("graph line reports n=%s, want 400 (a 20×20 torus)", m[1])
	}
}

func TestBudgetFails(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "400", "-budget-mb", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "exceeds budget 1 MiB") {
		t.Fatalf("run with -budget-mb 1: error %v, want the budget message\n%s", err, out.String())
	}
}
