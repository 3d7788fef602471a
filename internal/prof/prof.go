// Package prof is the one place the command-line tools get their
// -cpuprofile flag from, so the flag reads and behaves the same in each.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
)

// Flag registers -cpuprofile on fs and returns the path it will hold.
func Flag(fs *flag.FlagSet) *string {
	return fs.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
}

// Start begins a CPU profile written to path and returns the function
// that ends it; defer it. With an empty path (the flag's default)
// nothing is profiled. A profile is a diagnostic beside the run's own
// output, so a failure to finish writing it is reported on standard
// error and does not change the run's result.
func Start(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "-cpuprofile:", err)
		}
	}, nil
}
