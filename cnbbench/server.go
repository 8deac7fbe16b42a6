package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one cnbd process listening on loopback, with its pprof
// listener on a second port.
type server struct {
	cmd    *exec.Cmd
	base   string
	pprof  string
	client *http.Client
	stderr bytes.Buffer
	done   chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer starts cnbd with default flags except -parallelism 1 and a
// -pprof-addr, and returns once /healthz answers.
func startServer(ctx context.Context, bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	pport, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick pprof port: %w", err)
	}
	s := &server{
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		pprof:  fmt.Sprintf("http://127.0.0.1:%d", pport),
		client: &http.Client{Timeout: 60 * time.Second},
		done:   make(chan error, 1),
	}
	s.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-parallelism", "1",
		"-pprof-addr", fmt.Sprintf("127.0.0.1:%d", pport))
	s.cmd.Stderr = &s.stderr
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cnbd: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()

	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("cnbd exited during start-up: %v: %s", err, s.stderr.String())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("cnbd did not answer /healthz within 20s: %s", s.stderr.String())
		}
	}
}

// stop kills cnbd and waits until it has exited.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Kill() // fails only if the process already exited
	<-s.done
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// post sends body and returns the response body; a non-200 status is an
// error carrying the server's message.
func (s *server) post(path, body string) ([]byte, error) {
	resp, err := s.client.Post(s.base+path, "text/plain", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (s *server) get(url string) ([]byte, error) {
	resp, err := s.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return data, nil
}

// execResult is the part of one POST /query result the benchmark reads.
type execResult struct {
	EstCost    float64           `json:"est_cost"`
	Rows       []json.RawMessage `json:"rows"`
	ResultRows int               `json:"result_rows"`
	Measure    struct {
		Evals int64 `json:"evals"`
		Rows  int64 `json:"rows"`
	} `json:"measure"`
	PlanMS float64 `json:"plan_ms"`
	ExecMS float64 `json:"exec_ms"`
	WallMS float64 `json:"wall_ms"`
}

// query posts one document to /query and returns its single result and
// the client round-trip time.
func (s *server) query(instName, body string, maxRows int) (*execResult, time.Duration, error) {
	path := "/query?instance=" + instName
	if maxRows != 0 {
		path += "&max_rows=" + strconv.Itoa(maxRows)
	}
	start := time.Now()
	data, err := s.post(path, body)
	rtt := time.Since(start)
	if err != nil {
		return nil, rtt, err
	}
	var resp struct {
		Queries []execResult `json:"queries"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, rtt, fmt.Errorf("decode /query response: %w", err)
	}
	if len(resp.Queries) != 1 {
		return nil, rtt, fmt.Errorf("/query returned %d results, want 1", len(resp.Queries))
	}
	return &resp.Queries[0], rtt, nil
}

// counters is one reading of the server from outside: GET /metrics, the
// heap MemStats through -pprof-addr and /proc/<pid>/status.
type counters struct {
	Requests      int64 `json:"requests"`
	Errors        int64 `json:"errors"`
	Coalesced     int64 `json:"coalesced"`
	Flights       int64 `json:"flights"`
	BackchaseRuns int64 `json:"backchase_runs"`
	Cache         struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Chase struct {
		Runs        int64 `json:"runs"`
		Steps       int64 `json:"steps"`
		HomTests    int64 `json:"hom_tests"`
		DepSearches int64 `json:"dep_searches"`
	} `json:"chase"`
	Instances map[string]struct {
		RowsEmitted int64 `json:"rows_emitted"`
		Evals       int64 `json:"evals"`
	} `json:"instances"`

	Mallocs    int64 `json:"-"`
	TotalAlloc int64 `json:"-"`
}

// readMetrics fills c from GET /metrics.
func (s *server) readMetrics(c *counters) error {
	data, err := s.get(s.base + "/metrics")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, c); err != nil {
		return fmt.Errorf("decode /metrics: %w", err)
	}
	return nil
}

// readHeap fills the cumulative allocation counters from the MemStats
// block of /debug/pprof/heap?debug=1. The handler renders the whole heap
// profile before it samples MemStats, so a reading includes the
// allocations of its own rendering.
func (s *server) readHeap(c *counters) error {
	data, err := s.get(s.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return err
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var dst *int64
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# Mallocs = "):
			dst = &c.Mallocs
		case strings.HasPrefix(line, "# TotalAlloc = "):
			dst = &c.TotalAlloc
		default:
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(line[strings.Index(line, "=")+1:]), 10, 64)
		if err != nil {
			return fmt.Errorf("heap profile line %q: %w", line, err)
		}
		*dst = v
		found++
	}
	if found != 2 {
		return fmt.Errorf("heap profile lacks Mallocs/TotalAlloc")
	}
	return nil
}

// cpuTime returns the time all of pid's threads have spent on a CPU, from
// /proc/<pid>/task/*/schedstat. The kernel counts it in nanoseconds and,
// with paravirtual steal accounting, leaves out time the hypervisor gave
// the vCPU to another guest.
func cpuTime(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// procStatusKB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status.
func procStatusKB(pid int, field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}
