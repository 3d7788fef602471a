//go:build unix

package main

import (
	"os"
	"syscall"
)

// maxRSSKiB reports an exited child's peak resident set size. Linux
// reports ru_maxrss in KiB; 0 means the platform gave no usage record.
func maxRSSKiB(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return int64(ru.Maxrss)
	}
	return 0
}
