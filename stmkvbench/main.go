// Command stmkvbench is the repository's end-to-end benchmark: open-loop
// traffic from one generator process against a separate stmkvd process,
// latency at two fixed offered rates, capacity under a p99 limit, and (with
// -trace 1) a traced run that gives per-layer figures.
//
// Run it from the repository root through the wrapper, which builds stmkvd
// and this command first:
//
//	bash stmkvbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A correctness violation prints
// correct=false with no metrics and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// conns is the generator's connection count and GOMAXPROCS: the number of
// CPUs of the 2-CPU host the workloads were sized on.
const conns = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: read-mostly, durable-write or hot-rmw")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same request stream")
		seconds = flag.Int("seconds", 10, "measured seconds, split across the run's phases")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		bin     = flag.String("stmkvd", ".bench_build/bin/stmkvd", "stmkvd binary under test")
		work    = flag.String("work", ".bench_build/work", "scratch directory for data dirs and logs")
		out     = flag.String("results", ".bench_build/results", "directory for the full result record and span files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	runtime.GOMAXPROCS(min(conns, runtime.NumCPU()))
	if _, err := os.Stat(*bin); err != nil {
		fatal(fmt.Errorf("stmkvd binary: %w", err))
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{w: w, seed: *seed, seconds: float64(*seconds), bin: *bin, dir: dir, out: *out, trace: *trace == 1}
	res, err := b.run()
	b.cleanup()
	if b.t != nil && b.t.err() != nil {
		// A correctness violation: report it instead of numbers.
		fmt.Fprintln(os.Stderr, "stmkvbench: CORRECTNESS VIOLATION:", b.t.err())
		for _, r := range b.t.refusals {
			fmt.Fprintln(os.Stderr, "stmkvbench: refused:", r)
		}
		res, err = &result{Correct: false, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: map[string]metric{}}, nil
	}
	if err != nil {
		fatal(err)
	}
	rec := map[string]any{"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"environment": b.environment(), "result": res, "detail": b.detail}
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if data, err := json.MarshalIndent(rec, "", "  "); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("full record:", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stmkvbench:", err)
	os.Exit(1)
}

// environment records what the numbers were measured on.
func (b *bench) environment() map[string]any {
	serverProcs := "default (= num_cpu)"
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		serverProcs = v
	}
	walPolicy := "none (in memory)"
	if b.w.durable {
		walPolicy = b.w.walPolicy
	}
	return map[string]any{
		"num_cpu":              runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"generator_conns":      conns,
		"server_gomaxprocs":    serverProcs,
		"go_version":           runtime.Version(),
		"commit":               commitID(b.bin),
		"data_dir_fs":          fsType(b.dir),
		"wal_policy":           walPolicy,
		"server_flags":         b.w.serverFlags,
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
