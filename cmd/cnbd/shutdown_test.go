package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runMainEnv makes the test binary run cnbd's main instead of the tests,
// so TestShutdownDrainsInFlightRequest can signal a real server process.
const runMainEnv = "CNBD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestShutdownDrainsInFlightRequest starts cnbd as a child process, sends
// it SIGTERM while a cold /optimize request is in flight, and requires
// that the request still completes with every query optimized and that
// the process exits 0.
func TestShutdownDrainsInFlightRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server process")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	logFile, err := os.Create(filepath.Join(t.TempDir(), "cnbd.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	logs := func() string {
		b, _ := os.ReadFile(logFile.Name())
		return string(b)
	}
	// -parallelism is deprecated and ignored, but must still parse:
	// cnbbench/server.go starts cnbd with it.
	cmd := exec.Command(os.Args[0], "-addr", addr, "-parallelism", "1")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var exitErr error
	exited := make(chan struct{})
	go func() {
		exitErr = cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})
	base := "http://" + addr
	waitFor(t, "server up", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// Two cold queries in one document: the server optimizes them one
	// after another, so once the first flight has started the request has
	// work left when the signal arrives, and at most two flights' work
	// has to fit in the server's drain timeout.
	const queries = 2
	doc := projDeptDoc
	for i := 2; i <= queries; i++ {
		doc += fmt.Sprintf(`
query Q%d:
  select struct(PN: s, PB: p.Budg, DN: d.DName)
  from depts d, d.DProjs s, Proj p
  where s = p.PName and p.CustName = "Customer%d";
`, i, i)
	}
	type outcome struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(base+"/optimize", "text/plain", strings.NewReader(doc))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- outcome{status: resp.StatusCode, body: body, err: err}
	}()

	var flights float64
	waitFor(t, "first flight", func() bool {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var m map[string]any
		if json.NewDecoder(resp.Body).Decode(&m) != nil {
			return false
		}
		flights, _ = m["flights"].(float64)
		return flights >= 1
	})
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if flights >= queries {
		t.Logf("every flight had started before SIGTERM (%v); the drain covered only the last", flights)
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("in-flight /optimize failed across shutdown: %v\nserver log:\n%s", out.err, logs())
	}
	if out.status != http.StatusOK {
		t.Fatalf("in-flight /optimize: HTTP %d %s", out.status, out.body)
	}
	var resp optimizeResponse
	if err := json.Unmarshal(out.body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Queries) != queries {
		t.Fatalf("%d query results, want %d", len(resp.Queries), queries)
	}
	for _, q := range resp.Queries {
		if q.BestPlan == "" {
			t.Errorf("query %s has no best plan", q.Name)
		}
	}

	select {
	case <-exited:
		if exitErr != nil {
			t.Fatalf("cnbd exit: %v\nserver log:\n%s", exitErr, logs())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("cnbd did not exit after draining\nserver log:\n%s", logs())
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepts requests after shutdown")
	}
}

// waitFor polls cond every few milliseconds for up to 30 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
