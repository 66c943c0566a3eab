// Command hatricbench measures the simulator on four workloads, each a
// cell pair: the same machine under software shootdowns ("sw") and under
// HATRIC. It reports the host end-to-end metrics (throughput, set-up
// time, allocation), the modeled results (HATRIC's runtime, speed-up and
// energy ratio) and per-layer metrics (CPU profile shares per internal
// package, reference generation cost, CPU use, parallel speed-up, and
// modeled per-layer counts). It checks every result: zero stale
// translations, every reference retired, no HATRIC shootdowns, and
// fingerprints that repeat exactly across runs and worker counts.
//
// The full set verifies every workload, then interleaves 11 timed runs
// per workload round-robin, with the traced runs riding in the same
// rounds, and prints every metric as "workload metric value unit":
//
//	go run . -seed 1 -out results.json
//
// A single workload measured for a fixed time prints one JSON line, with
// the end-to-end metrics at -trace 0 and the per-layer ones at -trace 1:
//
//	go run . -workload resident -seed 3 -seconds 20 -trace 0
//
// The command exits nonzero when any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "", "measure only this workload for -seconds and print one JSON line (default: the full set)")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measuring time of a single-workload run")
	trace := flag.Int("trace", 0, "single-workload run: 0 prints the end-to-end metrics, 1 the per-layer ones")
	out := flag.String("out", "", "full set: also write the results as JSON to this file")
	flag.Parse()

	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hatricbench:", err)
			os.Exit(2)
		}
		if *trace != 0 && *trace != 1 {
			fmt.Fprintln(os.Stderr, "hatricbench: -trace must be 0 or 1")
			os.Exit(2)
		}
		os.Exit(runOne(w, *seed, *seconds, *trace == 1))
	}
	os.Exit(runAll(*seed, *out))
}

// valueUnit is one metric of the single-workload JSON line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lineResult is the single-workload JSON line.
type lineResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// line is the single-workload result: the end-to-end metrics, or with
// traced the per-layer ones.
func (m *measurement) line(traced bool) lineResult {
	metrics := m.endToEnd()
	if traced {
		metrics = m.perLayer()
	}
	l := lineResult{Correct: m.ok(), Attempted: m.attempted, Failed: m.failed, Metrics: map[string]valueUnit{}}
	for _, mt := range metrics {
		l.Metrics[mt.Name] = valueUnit{mt.Value, mt.Unit}
	}
	return l
}

// runOne measures one workload for the given time and prints its result
// as one JSON line. It returns the exit code.
func runOne(w *benchWorkload, seed uint64, seconds float64, traced bool) int {
	p, err := w.pair(seed, w.refs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hatricbench:", err)
		return 1
	}
	m := &measurement{p: p}
	if m.verify() {
		start := time.Now()
		for m.ok() {
			if traced {
				m.round(true, true)
			} else {
				m.timed()
			}
			if time.Since(start).Seconds() >= seconds && !(traced && m.tracing(0)) {
				break
			}
		}
	}
	data, err := json.Marshal(m.line(traced))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hatricbench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !m.ok() {
		return 1
	}
	return 0
}

// The full set makes fullRuns timed runs per workload and collects at
// least profileSamples CPU profile samples per workload.
const (
	fullRuns       = 11
	profileSamples = 2000
)

// runAll measures the full set and returns the exit code.
func runAll(seed uint64, out string) int {
	ms := make([]*measurement, len(workloads))
	for i := range workloads {
		p, err := workloads[i].pair(seed, workloads[i].refs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hatricbench:", err)
			return 1
		}
		ms[i] = &measurement{p: p}
		ms[i].verify()
	}
	// Round-robin across workloads, so that a slow spell on the host
	// lands on every workload rather than on one; each timed run brings
	// its own set-up timings. The traced pass rides in the same rounds
	// until it has its profile samples.
	for r := 0; ; r++ {
		busy := false
		for _, m := range ms {
			plain, traced := r < fullRuns, m.tracing(profileSamples)
			if m.ok() && (plain || traced) {
				m.round(plain, traced)
				busy = true
			}
		}
		if !busy {
			break
		}
	}
	rep := report{Seed: seed, Runs: fullRuns}
	failed := false
	for _, m := range ms {
		wr := m.report()
		rep.Workloads = append(rep.Workloads, wr)
		for _, mt := range append(wr.EndToEnd, wr.PerLayer...) {
			fmt.Printf("%s %s %.6g %s\n", m.p.name, mt.Name, mt.Value, mt.Unit)
		}
		for i, proto := range protocols {
			fmt.Printf("%s fingerprint.%s %016x\n", m.p.name, proto, m.v.fingerprints[i])
		}
		for _, e := range m.errs {
			fmt.Fprintf(os.Stderr, "hatricbench: FAIL %v\n", e)
		}
		failed = failed || !m.ok()
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hatricbench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// report is the full set's JSON output.
type report struct {
	Seed      uint64           `json:"seed"`
	Runs      int              `json:"runs"`
	Workloads []workloadReport `json:"workloads"`
}

// workloadReport is one workload's share of the report.
type workloadReport struct {
	Name         string            `json:"name"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Errors       []string          `json:"errors,omitempty"`
	Fingerprints map[string]string `json:"fingerprints"`
	// Timed holds every timed run; RefsPerSec, SetupS and AllocMB
	// summarize them.
	Timed      []sample `json:"timed_runs"`
	RefsPerSec summary  `json:"refs_per_sec"`
	SetupS     summary  `json:"setup_s"`
	AllocMB    summary  `json:"alloc_mb"`
	Traced     []sample `json:"traced_runs"`
	// Serial holds a parallel workload's serial-engine runs behind
	// sim.parallel_speedup.
	Serial   []sample        `json:"serial_engine_runs,omitempty"`
	Profile  *profileSummary `json:"profile"`
	EndToEnd []metric        `json:"end_to_end"`
	PerLayer []metric        `json:"per_layer"`
}
