package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"utcq/internal/gen"
	"utcq/internal/store"
)

// tiny shrinks a workload so the whole harness path runs in seconds.
func tiny(p params) params {
	p.Trajs = 60
	p.Pool = min(p.Pool, 256)
	p.SetupReps, p.OpenReps = 2, 2
	p.GateSample = min(p.GateSample, 12)
	p.WarmupS = 0.1
	if p.Rate > 0 {
		p.Rate, p.PerReq = 200, 4
	}
	return p
}

// TestSmokeEveryWorkload runs every workload on tiny corpora, untraced and
// traced, and checks that each declared metric is printed by name with its
// unit, in the text report and in the final JSON line.
func TestSmokeEveryWorkload(t *testing.T) {
	root := t.TempDir()
	host := describeHost(".")
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			sp := benchSpec{name: name, prm: tiny(workloads[name]), seed: 3, dur: 600 * time.Millisecond, traced: traced, root: root}
			res, err := runOne(sp, host, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: result %+v", name, traced, res)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result, %d declared", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.Name, m, d.Unit)
				}
				if !hasTextLine(out.String(), d.Name, d.Unit) {
					t.Errorf("%s traced=%v: no text line for %s in %s", name, traced, d.Name, d.Unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

func hasTextLine(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestGateFailsOnForeignStore points the correctness gate at an oracle
// built from another seed's corpus: the answers must not match.
func TestGateFailsOnForeignStore(t *testing.T) {
	p := gen.CD()
	served, err := synthesize(p, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := synthesize(p, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deployNode(served, 2, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	other, err := store.Build(foreign.g, foreign.tus, store.DefaultOptions(p.Ts))
	if err != nil {
		t.Fatal(err)
	}
	r := &run{name: "point", prm: tiny(workloads["point"])}
	pool := r.pool(newQueryGen(5, served.g, served.tus, 0.2))
	var retries atomic.Int64
	c := newClient(d.url, nil, &retries)
	if _, err := gate(context.Background(), c, storeOracle(d.members[0].st), pool[:50]); err != nil {
		t.Fatalf("gate against the served store itself: %v", err)
	}
	if _, err := gate(context.Background(), c, storeOracle(other), pool[:50]); err == nil {
		t.Fatal("gate passed against a store built from another seed")
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the
// harness's metric lists in step, and every declared workload runnable.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, harness %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %s, the harness has no such workload", w.Name)
		}
	}
}

// TestRefusesNoMmap: the heap-read fallback is not the read path the
// benchmark measures, so the harness will not run under it.
func TestRefusesNoMmap(t *testing.T) {
	t.Setenv("UTCQ_NO_MMAP", "1")
	var out, errOut bytes.Buffer
	if code := cliMain([]string{"--workload", "point", "--seconds", "1"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q: want a non-zero exit and no result", code, out.String())
	}
}
