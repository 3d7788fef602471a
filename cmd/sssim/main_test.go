package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestRunAllProtocols runs every protocol of the family table. The
// frozen variants are allowed to stop in an illegitimate silence.
func TestRunAllProtocols(t *testing.T) {
	for _, proto := range engine.Families() {
		var sb strings.Builder
		err := run([]string{"-protocol", proto, "-graph", "cycle", "-n", "8", "-seed", "3"}, &sb)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		out := sb.String()
		if !strings.Contains(out, "silent=true") {
			t.Fatalf("%s: did not stabilize:\n%s", proto, out)
		}
		if !strings.Contains(proto, "frozen") && !strings.Contains(out, "legitimate=true") {
			t.Fatalf("%s: not legitimate:\n%s", proto, out)
		}
		if !strings.Contains(out, "k-efficiency") {
			t.Fatalf("%s: measures missing:\n%s", proto, out)
		}
	}
}

func TestRunQuietMode(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-q", "-protocol", "mis", "-graph", "path", "-n", "6"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "k-efficiency") {
		t.Fatal("quiet mode printed the detailed report")
	}
}

func TestRunSuffixReport(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-protocol", "mis", "-graph", "grid", "-n", "9", "-suffix", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "stabilized phase") {
		t.Fatalf("suffix report missing:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-protocol", "nope"},
		{"-graph", "nope"},
		{"-sched", "nope"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/net.g"
	if err := os.WriteFile(path, []byte("graph ring\nn 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 0\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-file", path, "-protocol", "matching"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ring") {
		t.Fatalf("file-loaded graph name missing:\n%s", sb.String())
	}
	if err := run([]string{"-file", dir + "/missing.g"}, &sb); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := dir + "/bad.g"
	if err := os.WriteFile(bad, []byte("e 0 1\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", bad}, &sb); err == nil {
		t.Fatal("malformed file accepted")
	}
}
