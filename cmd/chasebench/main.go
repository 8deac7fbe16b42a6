// Command chasebench runs the reproduction experiments (E1–E20 of
// EXPERIMENTS.md) and prints their tables.
//
// Usage:
//
//	chasebench                      # run everything
//	chasebench -exp E1              # run one experiment
//	chasebench -list                # list experiments
//	chasebench -json                # also write BENCH_PR3.json (perf trajectory)
//	chasebench -exp E18 -exec-rows 1000000   # E18 at a nightly data tier
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cnb/internal/bench"
)

// defaultJSONPath is where -json writes the machine-readable results;
// CI archives this file as the perf trajectory artifact.
const defaultJSONPath = "BENCH_PR3.json"

// record is the machine-readable result of one experiment.
type record struct {
	ID     string             `json:"id"`
	Title  string             `json:"title"`
	WallMS float64            `json:"wall_ms"`
	Rows   int                `json:"rows"`
	Metric map[string]float64 `json:"metrics,omitempty"`
}

// report is the top-level JSON document.
type report struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	Parallelism int      `json:"parallelism"`
	Experiments []record `json:"experiments"`
}

func main() {
	var (
		exp         = flag.String("exp", "", "run a single experiment (e.g. E1)")
		list        = flag.Bool("list", false, "list experiments and exit")
		parallelism = flag.Int("parallelism", 0, "backchase worker count (0 = all cores, 1 = serial)")
		jsonFlag    = flag.Bool("json", false, "write machine-readable results to "+defaultJSONPath)
		jsonOut     = flag.String("json-out", "", "write machine-readable results to this path (implies -json)")
		execRows    = flag.Int("exec-rows", 0, "fact rows for the E18 execution experiment (0 = package default, the CI tier)")
	)
	flag.Parse()
	bench.Parallelism = *parallelism
	if *execRows > 0 {
		bench.ExecRows = *execRows
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Parallelism: *parallelism,
	}
	for _, e := range bench.All() {
		if *exp != "" && !strings.EqualFold(*exp, e.ID) {
			continue
		}
		start := time.Now()
		tb, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		fmt.Println(tb)
		rep.Experiments = append(rep.Experiments, record{
			ID:     tb.ID,
			Title:  tb.Title,
			WallMS: float64(wall.Microseconds()) / 1000,
			Rows:   len(tb.Rows),
			Metric: tb.Metrics,
		})
	}

	if len(rep.Experiments) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches %q (use -list)\n", *exp)
		os.Exit(1)
	}

	if *jsonFlag || *jsonOut != "" {
		path := *jsonOut
		if path == "" {
			path = defaultJSONPath
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal results: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiments)\n", path, len(rep.Experiments))
	}
}
