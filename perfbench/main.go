// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (lebench, fleet or spectre) at paper scale for a fixed wall-clock
// window, checks every operation's output, and prints its metrics; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// measures an untraced half-window and then a traced half-window of the
// same seed, and reports the per-layer set (span self times, profile
// shares, layer counters) plus the tracing overhead. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload lebench --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, measures, and prints. It returns the process exit code:
// 0 whenever a result line was printed (a failed check shows as
// "correct": false), 2 on bad arguments or a set-up error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: lebench, fleet or spectre")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 30, "host seconds the run measures")
	trace := fs.Int("trace", 0, "1 = per-layer run (untraced + traced half-windows)")
	out := fs.String("out", ".bench_build", "directory for span and profile files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, ok := workloads[*wl]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload lebench|fleet|spectre, -seconds > 0, -trace 0|1\n")
		return 2
	}
	res, err := measure(*wl, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1, *out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
