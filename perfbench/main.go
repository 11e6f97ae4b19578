// Command perfbench is the repository's benchmark.  It synthesizes corpora
// of 10⁴ trajectories with internal/gen, builds, saves and reopens them
// with internal/store, serves them in process through the real server and
// cluster HTTP stack on loopback, drives them with pkg/client, checks the
// answers against direct store queries, and prints every metric by name
// with its unit.  The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) record spans around every call into a layer and report the
// per-layer metrics.  Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in turn.  A correctness failure exits
// with status 1, a usage or harness error with status 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"utcq/internal/mmapio"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "point, range-batch, ingest-mixed, cluster, or all")
	seed := fs.Int64("seed", 1, "seed of the corpus and the queries")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if os.Getenv(mmapio.NoMmapEnv) == "1" {
		// The heap-read fallback is not the production read path.
		fmt.Fprintf(stderr, "perfbench: refusing to run with %s=1: the benchmark measures the mmap read path\n", mmapio.NoMmapEnv)
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want point, range-batch, ingest-mixed, cluster or all)\n", *name)
			return 2
		}
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	host := describeHost(root)
	dur := time.Duration(*seconds * float64(time.Second))

	var results []result
	code := 0
	for _, n := range names {
		res, err := runOne(benchSpec{name: n, prm: workloads[n], seed: *seed, dur: dur, traced: *trace == 1, root: root}, host, stdout)
		var g errGate
		switch {
		case errors.As(err, &g):
			fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %v\n", n, err)
			code = max(code, 1)
		case err != nil:
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 2
		}
		results = append(results, res)
	}
	final := results[0]
	if len(results) > 1 {
		final = result{Correct: true, Metrics: map[string]metricValue{}}
		for i, res := range results {
			final.Correct = final.Correct && res.Correct
			final.Attempted += res.Attempted
			final.Failed += res.Failed
			for k, v := range res.Metrics {
				final.Metrics[names[i]+"."+k] = v
			}
		}
	}
	if err := printResult(stdout, final); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return code
}

// benchSpec names one workload run.
type benchSpec struct {
	name   string
	prm    params
	seed   int64
	dur    time.Duration
	traced bool
	root   string // directory holding .bench_build
}

// runOne runs one workload and returns its result.  A gate failure comes
// back as errGate together with a result whose Correct is false.
func runOne(sp benchSpec, host hostRecord, out io.Writer) (result, error) {
	build := filepath.Join(sp.root, ".bench_build")
	traces := filepath.Join(build, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	record := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Seconds  float64    `json:"seconds"`
		Traced   bool       `json:"traced"`
		Host     hostRecord `json:"host"`
		Params   params     `json:"params"`
		Started  string     `json:"started"`
	}{sp.name, sp.seed, sp.dur.Seconds(), sp.traced, host, sp.prm, time.Now().UTC().Format(time.RFC3339)}
	line, _ := json.Marshal(record)
	fmt.Fprintf(out, "# run %s\n", line)

	r := &run{name: sp.name, prm: sp.prm, seed: sp.seed, dur: sp.dur, traced: sp.traced,
		work: work, traces: traces, out: out, rep: newReport()}
	err = r.execute()
	runtime.GC()
	var g errGate
	if errors.As(err, &g) {
		fmt.Fprintf(out, "# %s: CORRECTNESS FAILURE: %v\n", sp.name, err)
		return result{Correct: false, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metricValue{}}, err
	}
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# %s metrics (%s):\n", sp.name, map[bool]string{false: "untraced", true: "traced"}[sp.traced])
	r.rep.printText(out, "  ")
	if sp.traced {
		fmt.Fprintf(out, "# spans written to %s\n", r.traceFile())
	}
	defs := endToEnd
	if sp.traced {
		defs = perLayer
	}
	ms, err := r.rep.declared(defs)
	if err != nil {
		return result{}, err
	}
	return result{Correct: true, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: ms}, nil
}
