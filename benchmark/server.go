package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// flagSpec is one mdserve flag the benchmark would like to pass.
type flagSpec struct {
	name, value string // value "" for a boolean switch
}

// serverFlags is the mdserve configuration every workload runs: 100k
// generated facts, degree 2, the planner over warmed columns, a 1 MiB
// result cache with delta maintenance, batching, admission, /metrics,
// and a durable data directory with the default fsync-per-append and
// fold cadence (left at their defaults so both sides of a comparison
// run the same flush policy).
func serverFlags(seed int64) []flagSpec {
	return []flagSpec{
		{"gen", strconv.Itoa(facts)},
		{"seed", strconv.FormatInt(seed, 10)},
		{"parallelism", "2"},
		{"planner", ""},
		{"columns", strconv.Itoa(columnsMin)},
		{"result-cache", strconv.Itoa(cacheBytes)},
		{"delta", ""},
		{"batch", ""},
		{"admission", "4"},
		{"metrics", ""},
		// FACTS listings check that every acknowledged append survived a
		// restart; the default 10000-row limit would refuse them.
		{"max-rows", "0"},
	}
}

// definedFlags lists the flags the built binary defines, read from its
// -h usage text.
func definedFlags(bin string) (map[string]bool, error) {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 2 by design
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s+-([A-Za-z0-9][A-Za-z0-9_.-]*)`).FindAllStringSubmatch(string(out), -1) {
		defined[m[1]] = true
	}
	if !defined["addr"] || !defined["data"] {
		return nil, fmt.Errorf("%s -h lists no -addr/-data flag; output: %.300s", bin, out)
	}
	return defined, nil
}

// argv renders the wanted flags the binary defines and logs the rest,
// so a flag a later version folds into the default drops out instead of
// failing the run.
func argv(wanted []flagSpec, defined map[string]bool, logf func(string, ...any)) []string {
	var args []string
	for _, f := range wanted {
		if !defined[f.name] {
			logf("mdserve defines no -%s: flag dropped", f.name)
			continue
		}
		if f.value == "" {
			args = append(args, "-"+f.name)
		} else {
			args = append(args, "-"+f.name, f.value)
		}
	}
	return args
}

// server is one running mdserve process.
type server struct {
	cmd   *exec.Cmd
	base  string
	log   *syncBuffer
	done  chan struct{}
	start time.Time
}

// startServer launches bin with args on a free loopback port and data
// directory dir.
func startServer(bin string, args []string, dir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	full := append([]string{"-addr", addr, "-data", dir}, args...)
	s := &server{base: "http://" + addr, log: &syncBuffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, full...)
	// The server must not outlive the benchmark, even one that crashes.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = s.log
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mdserve: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is the kill's; nothing to report
		close(s.done)
	}()
	return s, nil
}

// syncBuffer collects a child's stderr while the benchmark reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.done
}

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// waitFor polls check until it succeeds, the process exits or limit
// passes, and returns the time from process start to success.
func (s *server) waitFor(limit time.Duration, check func() error) (time.Duration, error) {
	deadline := s.start.Add(limit)
	var last error
	for time.Now().Before(deadline) {
		if s.exited() {
			return 0, fmt.Errorf("mdserve exited before answering: %s", tailOf(s.log.String()))
		}
		if last = check(); last == nil {
			return time.Since(s.start), nil
		}
		if _, wrong := last.(*mismatchError); wrong {
			// A server that answers has finished loading: a wrong answer
			// now is final, not a sign to keep waiting.
			return 0, last
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("mdserve not answering correctly after %s: %v", limit, last)
}

func tailOf(s string) string {
	if len(s) > 600 {
		s = s[len(s)-600:]
	}
	return strings.TrimSpace(s)
}

// cpuTime reads the process's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// mark is one reading taken at a whole second of the timed window.
type mark struct {
	cpu   time.Duration // the server's CPU time so far
	steal float64       // host steal so far, in machine-seconds
}

// sampleWindow reads the server's CPU time and the host's steal at start
// and at each of the next n whole seconds, in the background; the
// returned function waits for the last reading.
func (s *server) sampleWindow(start time.Time, n int) func() ([]mark, error) {
	marks := make([]mark, n+1)
	errc := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i <= n && err == nil; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second)))
			marks[i].steal = stealSeconds() / float64(runtime.NumCPU())
			marks[i].cpu, err = s.cpuTime()
		}
		errc <- err
	}()
	return func() ([]mark, error) { return marks, <-errc }
}

// stealSeconds reads the CPU time the hypervisor gave to other guests,
// in seconds summed over CPUs, from /proc/stat (0 where unavailable).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100 // USER_HZ
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// httpClient is a client with one keep-alive connection.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// get fetches base+path and returns the status and body.
func get(ctx context.Context, c *http.Client, url string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// post sends an append body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
