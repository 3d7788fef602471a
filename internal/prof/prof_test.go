package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestStart(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	path := Flag(fs)
	if err := fs.Parse(nil); err != nil || *path != "" {
		t.Fatalf("default -cpuprofile = %q (%v), want empty", *path, err)
	}
	stop, err := Start(*path)
	if err != nil {
		t.Fatal(err)
	}
	stop() // nothing started, nothing to stop

	file := filepath.Join(t.TempDir(), "cpu.prof")
	if err := fs.Parse([]string{"-cpuprofile", file}); err != nil {
		t.Fatal(err)
	}
	stop, err = Start(*path)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if st, err := os.Stat(file); err != nil || st.Size() == 0 {
		t.Fatalf("profile not written: %v", err)
	}

	if _, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof")); err == nil {
		t.Fatal("Start into a missing directory succeeded")
	}
}
