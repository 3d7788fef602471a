package main

import (
	"bufio"
	"bytes"
	"embed"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// campaignFS holds the three reference inputs. They are embedded so the
// harness, its tests and the traced run read the same bytes whatever the
// working directory is.
//
//go:embed campaigns/*.campaign
var campaignFS embed.FS

// suiteFiles is "the suite": the reference campaigns in run order.
var suiteFiles = []string{"plain", "fault", "churn"}

// builds is what buildPrograms compiles: the shipped binaries the
// end-to-end workloads drive, plus the harness's own child launcher (see
// launch/main.go for why it exists).
var builds = []string{"./cmd/sscampaign", "./cmd/sscampaignd", "./cmd/ssscale", "./cmd/ssbench", "./bench/launch"}

const (
	outDir = "bench/out"
	binDir = outDir + "/bin"
)

var seedLine = regexp.MustCompile(`(?m)^seed \d+$`)

// campaignSource returns reference campaign name with its `seed` line
// rewritten to seed: the only substitution the harness makes.
func campaignSource(name string, seed uint64) (string, error) {
	raw, err := campaignFS.ReadFile("campaigns/" + name + ".campaign")
	if err != nil {
		return "", err
	}
	if n := len(seedLine.FindAll(raw, -1)); n != 1 {
		return "", fmt.Errorf("%s.campaign: want exactly one seed line, found %d", name, n)
	}
	return string(seedLine.ReplaceAll(raw, []byte("seed "+strconv.FormatUint(seed, 10)))), nil
}

// env is one workload run's sandbox: a directory under bench/out, the
// children's resource accounting, and the daemon if the workload has
// one. Everything a run writes lands under dir.
type env struct {
	seed  uint64
	nproc int
	dir   string
	log   io.Writer

	launch   *launcher
	childCPU time.Duration // user+sys of every exited CLI child
	childRSS int64         // largest ru_maxrss since takeChildRSS, KiB

	daemon *daemon
	// tr is set while a traced run drives a workload's own closed loop,
	// so its ops record client-side spans; nil in every end-to-end run.
	tr *tracer
}

// buildPrograms compiles the shipped binaries into bench/out/bin. The go
// command skips the link when the target is up to date, so every call
// after a checkout's first costs a fraction of a second.
func buildPrograms() error {
	out, err := exec.Command("go", append([]string{"build", "-o", binDir + "/"}, builds...)...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// reset empties the sandbox directory.
func (e *env) reset() error {
	if err := os.RemoveAll(e.dir); err != nil {
		return err
	}
	return os.MkdirAll(e.dir, 0o755)
}

// writeCampaign writes reference campaign name at seed into the sandbox
// and returns its path.
func (e *env) writeCampaign(name string, seed uint64) (string, error) {
	src, err := campaignSource(name, seed)
	if err != nil {
		return "", err
	}
	path := filepath.Join(e.dir, name+".campaign")
	return path, os.WriteFile(path, []byte(src), 0o644)
}

// launcher is the running bench/launch child that starts every CLI
// child on the harness's behalf, one at a time.
type launcher struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startLauncher starts bench/launch; the first runChild of a run calls
// it, after buildPrograms has built the binary.
func (e *env) startLauncher() error {
	cmd := exec.Command(filepath.Join(binDir, "launch"))
	cmd.Stderr = e.log
	in, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	e.launch = &launcher{cmd: cmd, in: in, out: bufio.NewReader(out)}
	return nil
}

// stopLauncher closes the launcher's stdin, which ends it, and waits.
func (e *env) stopLauncher() {
	if e.launch == nil {
		return
	}
	e.launch.in.Close()
	_ = e.launch.cmd.Wait() // nothing to act on: no child is in flight
	e.launch = nil
}

// runChild runs one shipped program to completion through the launcher,
// charging its CPU time and peak RSS to the run. A non-zero exit is an
// error carrying stderr.
func (e *env) runChild(prog string, args ...string) (stdout, stderr []byte, err error) {
	if e.launch == nil {
		if err := e.startLauncher(); err != nil {
			return nil, nil, fmt.Errorf("bench/launch: %w", err)
		}
	}
	outPath, errPath := filepath.Join(e.dir, "child.stdout"), filepath.Join(e.dir, "child.stderr")
	req := append([]string{outPath, errPath, filepath.Join(binDir, prog)}, args...)
	if _, err := io.WriteString(e.launch.in, strings.Join(req, "\x00")+"\n"); err != nil {
		return nil, nil, fmt.Errorf("bench/launch: %w", err)
	}
	reply, err := e.launch.out.ReadString('\n')
	if err != nil {
		return nil, nil, fmt.Errorf("bench/launch: %w", err)
	}
	var exit int
	var cpu, rss int64
	if _, err := fmt.Sscanf(reply, "ok %d %d %d", &exit, &cpu, &rss); err != nil {
		return nil, nil, fmt.Errorf("bench/launch: %s %s: %s", prog, strings.Join(args, " "), strings.TrimSpace(reply))
	}
	e.childCPU += time.Duration(cpu)
	e.childRSS = max(e.childRSS, rss)
	if stdout, err = os.ReadFile(outPath); err != nil {
		return nil, nil, err
	}
	if stderr, err = os.ReadFile(errPath); err != nil {
		return nil, nil, err
	}
	if exit != 0 {
		return nil, nil, fmt.Errorf("%s %s: exit status %d\n%s", prog, strings.Join(args, " "), exit, stderr)
	}
	return stdout, stderr, nil
}

// takeChildRSS returns the largest child peak RSS since the last call
// and starts over: called after each op, it is that op's figure on the
// CLI workloads (the service workloads read the daemon's).
func (e *env) takeChildRSS() int64 {
	rss := e.childRSS
	e.childRSS = 0
	return rss
}

// artifacts are one campaign's three rendered outputs.
type artifacts struct{ jsonl, events, table []byte }

func (a artifacts) equal(b artifacts) bool {
	return bytes.Equal(a.jsonl, b.jsonl) && bytes.Equal(a.events, b.events) && bytes.Equal(a.table, b.table)
}

var cacheStatus = regexp.MustCompile(`cache (\d+) hits, (\d+) misses`)

// runCampaign is one `sscampaign -parallelism P -cache DIR -jsonl F
// -events F FILE` invocation; it returns the artifacts and the cache
// hit/miss counts the program printed.
func (e *env) runCampaign(file, cacheDir string, parallelism int) (arts artifacts, hits, misses int, err error) {
	base := strings.TrimSuffix(file, ".campaign")
	jsonl, events := base+".jsonl", base+".events"
	table, status, err := e.runChild("sscampaign", "-parallelism", strconv.Itoa(parallelism),
		"-cache", cacheDir, "-jsonl", jsonl, "-events", events, file)
	if err != nil {
		return arts, 0, 0, err
	}
	m := cacheStatus.FindSubmatch(status)
	if m == nil {
		return arts, 0, 0, fmt.Errorf("sscampaign %s: no cache status on stderr: %q", file, status)
	}
	hits, _ = strconv.Atoi(string(m[1]))
	misses, _ = strconv.Atoi(string(m[2]))
	arts.table = table
	if arts.jsonl, err = os.ReadFile(jsonl); err != nil {
		return arts, 0, 0, err
	}
	if arts.events, err = os.ReadFile(events); err != nil {
		return arts, 0, 0, err
	}
	return arts, hits, misses, nil
}

// runSuite runs sscampaign over the suite at the run's seed against one
// cache directory and sums the hit/miss counts.
func (e *env) runSuite(cacheDir string, parallelism int) (arts []artifacts, hits, misses int, err error) {
	for _, name := range suiteFiles {
		file, err := e.writeCampaign(name, e.seed)
		if err != nil {
			return nil, 0, 0, err
		}
		a, h, m, err := e.runCampaign(file, cacheDir, parallelism)
		if err != nil {
			return nil, 0, 0, err
		}
		arts = append(arts, a)
		hits, misses = hits+h, misses+m
	}
	return arts, hits, misses, nil
}

// daemon is a running sscampaignd child and the HTTP client that talks
// to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

var listening = regexp.MustCompile(`listening on (http://\S+)`)

// startDaemon launches `sscampaignd -addr 127.0.0.1:0 -cache DIR
// -workers N` and returns once /v1/healthz answers. The client keeps one
// connection, the closed-loop caller's.
func (e *env) startDaemon(cacheDir string) error {
	cmd := exec.Command(filepath.Join(binDir, "sscampaignd"),
		"-addr", "127.0.0.1:0", "-cache", cacheDir, "-workers", strconv.Itoa(e.nproc))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan struct{}),
		// The timeout bounds a whole exchange, stream included: a daemon
		// that hangs fails the op instead of the run's 180 s limit.
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
	}
	e.daemon = d
	// The reader goroutine ends at the pipe's EOF, which the child's exit
	// produces; stopDaemon waits for it before cmd.Wait, as StderrPipe
	// requires.
	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listening.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case d.base = <-addr:
	case <-d.exited:
		e.stopDaemon()
		return errors.New("sscampaignd exited before listening")
	case <-time.After(10 * time.Second):
		e.stopDaemon()
		return errors.New("sscampaignd did not report its address within 10s")
	}
	if _, err := d.get("/v1/healthz"); err != nil {
		e.stopDaemon()
		return fmt.Errorf("sscampaignd healthz: %w", err)
	}
	return nil
}

// stopDaemon sends SIGINT (the daemon drains and exits), kills after ten
// seconds, and waits for the process to end.
func (e *env) stopDaemon() {
	d := e.daemon
	if d == nil {
		return
	}
	e.daemon = nil
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(os.Interrupt) // already exited: Wait below still reaps it
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	_ = d.cmd.Wait() // exit status of a stopped daemon carries nothing we act on
}

// get fetches path and returns the body; any non-2xx status is an error.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// streamed is what one POST /v1/runs?stream=1 delivered.
type streamed struct {
	id          string
	firstLine   time.Duration // POST sent -> status line read
	done        time.Duration // POST sent -> stream EOF
	events      int           // ndjson lines after the status line
	trialFinish int
	bytes       int
}

var runID = regexp.MustCompile(`"id":"([^"]+)"`)

// submitStream POSTs a campaign source and reads the ndjson stream to
// EOF. A non-2xx status (a 503 queue-full included) or a truncated
// stream is an error, never retried.
func (d *daemon) submitStream(src string) (streamed, error) {
	var st streamed
	start := time.Now()
	resp, err := d.client.Post(d.base+"/v1/runs?stream=1", "text/plain", strings.NewReader(src))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body) // best-effort detail for the error text
		return st, fmt.Errorf("POST /v1/runs: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for first := true; ; first = false {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			st.bytes += len(line)
			switch {
			case first:
				st.firstLine = time.Since(start)
				if m := runID.FindSubmatch(line); m != nil {
					st.id = string(m[1])
				}
			case bytes.Contains(line, []byte(`"ev":"stream-truncated"`)):
				return st, errors.New("stream truncated: subscriber lagged")
			default:
				st.events++
				if bytes.HasPrefix(line, []byte(`{"ev":"trial-finish"`)) {
					st.trialFinish++
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
	}
	st.done = time.Since(start)
	if st.id == "" {
		return st, errors.New("stream carried no run id")
	}
	return st, nil
}

// procCPU reads a live process's user+sys time from /proc/PID/stat
// (fields 14 and 15, in clock ticks; USER_HZ is 100 on Linux).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from the closing parenthesis.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procPeakRSSKiB reads a live process's VmHWM from /proc/PID/status.
func procPeakRSSKiB(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
