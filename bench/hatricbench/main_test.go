package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload once, shortened to 2,000 references per
// vCPU, through every stage the benchmark has, and checks that the
// metrics it prints are exactly those BENCHMARK.json names, with their
// units, and that the JSON output round-trips.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	var rep report
	for i, bw := range bf.Workloads {
		w := &workloads[i]
		if bw.Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, bw.Name, w.name)
		}
		p, err := w.pair(1, 2000)
		if err != nil {
			t.Fatal(err)
		}
		m := &measurement{p: p}
		if m.verify() {
			for m.tracing(0) {
				m.round(true, true)
			}
		}
		if !m.ok() {
			t.Fatalf("%s: %v", w.name, m.errs)
		}
		for traced, want := range map[bool][]metricSpec{false: bf.EndToEnd, true: bf.PerLayer} {
			line := m.line(traced)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(line.Metrics), len(want))
			}
			for _, mt := range want {
				got, ok := line.Metrics[mt.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.name, mt.Name)
				case got.Unit != mt.Unit:
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.name, mt.Name, got.Unit, mt.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, mt.Name, got.Value)
				}
			}
		}
		if got := m.line(true).Metrics["sim.parallel_speedup"].Value; !m.parallel() && got != 1 {
			t.Errorf("%s: sim.parallel_speedup = %v on a serial workload, want 1", w.name, got)
		}
		rep.Workloads = append(rep.Workloads, m.report())
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("report does not round-trip through JSON:\n%s", data)
	}
}

// cannedTraces is `go tool pprof -traces` output in the shape the
// toolchain prints it: four stacks, 70 samples.
const cannedTraces = `File: hatricbench
Type: cpu
Duration: 1.20s, Total samples = 700ms (58.33%)
-----------+-------------------------------------------------------
     300ms   hatric/internal/cache.(*Cache).probeInsert
             hatric/internal/cache.(*Cache).Insert (inline)
             hatric/internal/coherence.(*Hierarchy).Write
             hatric/internal/sim.(*System).step
             hatric/internal/sim.(*System).stepOnce
             hatric/internal/sim.(*System).Run
             main.runCell
-----------+-------------------------------------------------------
     200ms   hatric/internal/sim.(*System).stepShard
             hatric/internal/sim.(*System).runShard
             hatric/internal/sim.(*System).parWorker
-----------+-------------------------------------------------------
     0.1s    runtime.memclrNoHeapPointers
             runtime.mallocgc
             hatric/internal/hv.(*Hypervisor).HandleFault
             hatric/internal/sim.(*System).applyEvent
             hatric/internal/sim.(*System).dispatchEvents
             hatric/internal/sim.(*System).parEpoch
-----------+-------------------------------------------------------
     100ms   internal/runtime/syscall.Syscall6
             runtime/pprof.profileWriter
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	ps := newProfileSummary()
	if err := ps.parseTraces(strings.NewReader(cannedTraces)); err != nil {
		t.Fatal(err)
	}
	if ps.Samples != 70 {
		t.Fatalf("samples = %v, want 70", ps.Samples)
	}
	sum := 0.0
	for _, b := range hostBuckets {
		sum += ps.Self[b]
	}
	if math.Abs(sum/ps.Samples-1) > 0.01 {
		t.Errorf("self shares sum to %v, want 1", sum/ps.Samples)
	}
	want := map[string]float64{"cache": 30, "sim": 20, "go_runtime": 20}
	for b, n := range want {
		if ps.Self[b] != n {
			t.Errorf("self[%s] = %v, want %v", b, ps.Self[b], n)
		}
	}
	// The first stack holds four sim frames and the second three; each
	// counts once.
	wantIncl := map[string]float64{"sim": 60, "cache": 30, "coherence": 30, "hv": 10, "go_runtime": 20, "other": 40}
	for b, n := range wantIncl {
		if ps.Incl[b] != n {
			t.Errorf("incl[%s] = %v, want %v", b, ps.Incl[b], n)
		}
	}
	if ps.Shard != 20 || ps.Barrier != 10 {
		t.Errorf("shard, barrier = %v, %v; want 20, 10", ps.Shard, ps.Barrier)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) and quantiles([1, 2], n=4).
	for _, c := range []struct {
		in   []float64
		want summary
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, summary{Median: 5.5, Q1: 2.75, Q3: 8.25, N: 10}},
		{[]float64{1, 2}, summary{Median: 1.5, Q1: 0.75, Q3: 2.25, N: 2}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}
