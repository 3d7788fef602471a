// Command launch starts the benchmark's CLI children and reports what
// each one used. It exists because of how Linux accounts ru_maxrss: a
// child created by fork/vfork + exec starts with its parent's peak RSS
// as its own (exec folds the old address space's high-water mark into
// the new process), so a child smaller than the harness would report
// the harness's memory. This process stays at a few MiB — it imports no
// more than it needs — which puts that floor below any Go child.
//
// Protocol, one request per line on stdin, fields separated by NUL:
//
//	stdout-file NUL stderr-file NUL program NUL arg...
//
// and one reply line on stdout once the child has exited:
//
//	ok EXIT-CODE CPU-NANOSECONDS PEAK-RSS-KIB
//	error MESSAGE
//
// It runs one child at a time and exits at EOF on stdin.
package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

func main() {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for in.Scan() {
		fmt.Println(launch(strings.Split(in.Text(), "\x00")))
	}
}

func launch(req []string) string {
	if len(req) < 3 {
		return "error malformed request"
	}
	stdout, err := os.Create(req[0])
	if err != nil {
		return "error " + err.Error()
	}
	defer stdout.Close()
	stderr, err := os.Create(req[1])
	if err != nil {
		return "error " + err.Error()
	}
	defer stderr.Close()
	cmd := exec.Command(req[2], req[3:]...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	_ = cmd.Run() // the exit code below carries a failed run; ps is nil when it never started
	ps := cmd.ProcessState
	if ps == nil {
		return "error could not start " + req[2]
	}
	return fmt.Sprintf("ok %d %d %d", ps.ExitCode(), int64(ps.UserTime()+ps.SystemTime()), maxRSSKiB(ps))
}
