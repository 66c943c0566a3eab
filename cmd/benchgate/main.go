// Command benchgate runs BenchmarkSimulatorThroughput and gates CI on it:
// it executes the benchmark several times, converts each run to simulated
// references per second, writes the trajectory (plus the median and the
// comparison against the committed baseline) to a JSON artifact, and exits
// nonzero when the median regresses more than the allowed fraction below
// the baseline.
//
// The benchmark runs with -benchmem, and the artifact records the median
// heap bytes and allocations per op next to throughput. Like the sweeps
// below, the memory figures are informational and never gate.
//
// It also times one whole sweep — a paperfigs-quick campaign run
// in-process — and records its wall-clock in the artifact. Single-run
// refs/sec measures the simulator inner loop; the sweep wall-clock is the
// number a user actually waits on (cell fan-out across cores included), so
// the artifact keeps both trajectories observable. The sweep is
// informational only: it never fails the gate.
//
// With -parallel it times the parallel engine on one machine at each
// worker count, and records the heap each run allocates and the host's
// own 2-goroutine scaling ceiling next to the speedups. These never gate
// either.
//
// The committed baseline (bench/baseline_throughput.json) records the
// median refs/sec on the machine that set it, so the gate is meaningful on
// comparable runners and the artifact keeps the refs/sec trajectory
// observable over time either way.
//
// Usage (CI):
//
//	go run ./cmd/benchgate -count 5 -benchtime 3x \
//	    -baseline bench/baseline_throughput.json -out BENCH_throughput.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"hatric/internal/arch"
	"hatric/internal/exp"
	"hatric/internal/hv"
	"hatric/internal/sim"
	"hatric/internal/workload"
)

// Report is the JSON artifact the gate writes.
type Report struct {
	Benchmark     string    `json:"benchmark"`
	RefsPerSec    []float64 `json:"refs_per_sec"`
	MedianRefsSec float64   `json:"median_refs_per_sec"`
	// MinRefsSec is the worst run of the series: on a loaded runner the
	// median still wanders, so the artifact keeps the conservative end of
	// the trajectory observable alongside it.
	MinRefsSec float64 `json:"min_refs_per_sec"`
	// BytesPerOp and AllocsPerOp are the medians of -benchmem's B/op and
	// allocs/op over the same runs (informational; never gate).
	BytesPerOp     float64 `json:"bytes_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	Baseline       float64 `json:"baseline_refs_per_sec,omitempty"`
	Ratio          float64 `json:"ratio_vs_baseline,omitempty"`
	MaxRegression  float64 `json:"max_regression"`
	Pass           bool    `json:"pass"`
	BaselineSource string  `json:"baseline_source,omitempty"`
	// Note carries free-form context about the measuring host (-note),
	// so a committed trajectory seed can say when its absolute numbers
	// came from a machine unlike the baseline's.
	Note string `json:"note,omitempty"`

	// Whole-sweep wall-clock: one paperfigs-quick campaign timed
	// in-process (informational; never gates).
	SweepFigures   []string `json:"sweep_figures,omitempty"`
	SweepRefs      uint64   `json:"sweep_refs_per_thread,omitempty"`
	SweepWallSec   float64  `json:"sweep_wall_clock_sec,omitempty"`
	SweepFigPerSec float64  `json:"sweep_figures_per_sec,omitempty"`

	// Parallel-engine scaling sweep (sim.Options.ParallelCPUs): one
	// multi-VM paged machine timed at each worker count, workers=0 being
	// the serial engine. Informational; never gates — the speedup ceiling
	// is min(workers, host cores), so the series only demonstrates scaling
	// on a multi-core runner (ParallelHostCPUs records what this one had).
	ParallelWorkers  []int     `json:"parallel_workers,omitempty"`
	ParallelRefsSec  []float64 `json:"parallel_refs_per_sec,omitempty"`
	ParallelSpeedup  []float64 `json:"parallel_speedup_vs_serial,omitempty"`
	ParallelHostCPUs int       `json:"parallel_host_cpus,omitempty"`
	// ParallelAllocMB is the heap the sweep machine allocates (TotalAlloc
	// growth over sim.New plus Run) in one run at each worker count.
	ParallelAllocMB []float64 `json:"parallel_alloc_mb,omitempty"`
	// ParallelHostScaling is the host's own ceiling for a 2-worker
	// speedup: a fixed integer kernel's rate on 2 goroutines over its rate
	// on 1, measured next to the sweep.
	ParallelHostScaling float64 `json:"parallel_host_scaling,omitempty"`
	ParallelNote        string  `json:"parallel_note,omitempty"`
}

// runSweep times a paperfigs-quick campaign (every figure the default
// cmd/paperfigs invocation regenerates) and fills the sweep fields.
func runSweep(rep *Report, refs uint64) error {
	r := exp.Quick()
	if refs > 0 {
		r.Refs = refs
	}
	figures := []struct {
		name string
		run  func() error
	}{
		{"fig2", func() error { _, err := r.Figure2(); return err }},
		{"fig7", func() error { _, err := r.Figure7(); return err }},
		{"fig8", func() error { _, err := r.Figure8(); return err }},
		{"fig9", func() error { _, err := r.Figure9(); return err }},
		{"fig10", func() error { _, err := r.Figure10(); return err }},
		{"fig11L", func() error { _, err := r.Figure11Left(); return err }},
		{"fig11R", func() error { _, err := r.Figure11Right(); return err }},
		{"fig12", func() error { _, err := r.Figure12(); return err }},
		{"fig13", func() error { _, err := r.Figure13(); return err }},
		{"xen", func() error { _, err := r.XenTable(); return err }},
		{"micro", func() error { _, err := r.MicroCosts(); return err }},
		{"dedup", func() error { _, err := r.Dedup(); return err }},
	}
	start := time.Now()
	for _, f := range figures {
		if err := f.run(); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		rep.SweepFigures = append(rep.SweepFigures, f.name)
	}
	wall := time.Since(start).Seconds()
	rep.SweepRefs = r.Refs
	rep.SweepWallSec = wall
	if wall > 0 {
		rep.SweepFigPerSec = float64(len(figures)) / wall
	}
	return nil
}

// runParallelSweep times the epoch-barrier parallel engine on a multi-VM
// paged machine (two 4-thread VMs sharing an 8-pCPU host under paging
// pressure) at workers 0 (serial) and 1/2/4/8, and fills the parallel_*
// series. Each point keeps the best of `repeats` runs — wall-clock
// throughput on a shared runner is noisy downward only — and the heap
// allocated by the first.
func runParallelSweep(rep *Report, repeats int) error {
	spec, err := workload.ByName("canneal")
	if err != nil {
		return err
	}
	spec = spec.WithRefs(150_000)
	spec.Threads = 4
	cfg := arch.DefaultConfig()
	cfg.NumCPUs = 8
	sim.SizeConfig(&cfg, 2*spec.FootprintPages, hv.ModePaged)
	build := func(workers int) sim.Options {
		return sim.Options{
			Config:   cfg,
			Protocol: "hatric",
			Paging:   hv.BestPolicy(),
			Mode:     hv.ModePaged,
			VMs: []sim.VMSpec{
				{Workloads: []sim.AssignedWorkload{{Spec: spec, CPUs: []int{0, 1, 2, 3}}}},
				{Workloads: []sim.AssignedWorkload{{Spec: spec, CPUs: []int{4, 5, 6, 7}}}},
			},
			Seed:         1,
			ParallelCPUs: workers,
		}
	}
	serial := 0.0
	for _, workers := range []int{0, 1, 2, 4, 8} {
		best, allocMB := 0.0, 0.0
		for i := 0; i < repeats; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			sys, err := sim.New(build(workers))
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := sys.Run()
			if err != nil {
				return err
			}
			if rs := float64(res.Agg.MemRefs) / time.Since(start).Seconds(); rs > best {
				best = rs
			}
			if i == 0 {
				runtime.ReadMemStats(&after)
				allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			}
		}
		if workers == 0 {
			serial = best
		}
		rep.ParallelWorkers = append(rep.ParallelWorkers, workers)
		rep.ParallelRefsSec = append(rep.ParallelRefsSec, best)
		rep.ParallelSpeedup = append(rep.ParallelSpeedup, best/serial)
		rep.ParallelAllocMB = append(rep.ParallelAllocMB, allocMB)
	}
	rep.ParallelHostCPUs = runtime.NumCPU()
	rep.ParallelHostScaling = hostScaling(repeats)
	rep.ParallelNote = "workers=0 is the serial engine; speedup ceiling is min(workers, host cores)," +
		" and parallel_host_scaling is what 2 goroutines of plain integer work reach on this host." +
		" On a single-core host the series measures epoch-barrier overhead, not scaling."
	return nil
}

// kernelSink keeps hostScaling's kernel results live.
var kernelSink [2]uint64

// hostScaling measures a fixed integer kernel — a chain of 2^26 LCG steps
// per goroutine, touching no memory — on 2 goroutines against 1, keeping
// each side's best rate of `repeats`, and returns the ratio. A 2-worker
// engine speedup on the same host cannot be expected to exceed it.
func hostScaling(repeats int) float64 {
	const steps = 1 << 26
	rate := func(goroutines int) float64 {
		best := 0.0
		for r := 0; r < repeats; r++ {
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					x := uint64(g + 1)
					for i := 0; i < steps; i++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
					kernelSink[g] = x
				}()
			}
			wg.Wait()
			best = max(best, float64(goroutines*steps)/time.Since(start).Seconds())
		}
		return best
	}
	return rate(2) / rate(1)
}

// Baseline is the committed reference point.
type Baseline struct {
	MedianRefsSec float64 `json:"median_refs_per_sec"`
	Machine       string  `json:"machine,omitempty"`
	Note          string  `json:"note,omitempty"`
}

var benchLine = regexp.MustCompile(`BenchmarkSimulatorThroughput\S*\s+\d+\s+(\S+) ns/op\s+(\S+) refs/op\s+(\d+) B/op\s+(\d+) allocs/op`)

// median returns the median of xs (the mean of the middle two for an even
// count); xs must be non-empty.
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return sorted[n/2]
}

func main() {
	count := flag.Int("count", 5, "benchmark repetitions")
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value")
	baselinePath := flag.String("baseline", "bench/baseline_throughput.json", "committed baseline JSON")
	outPath := flag.String("out", "BENCH_throughput.json", "artifact output path")
	maxReg := flag.Float64("max-regression", 0.15, "fail when median falls more than this fraction below baseline")
	sweep := flag.Bool("sweep", true, "also time one paperfigs-quick campaign in-process")
	sweepRefs := flag.Uint64("sweep-refs", 0, "refs per thread for the sweep (0 = exp.Quick default)")
	parallel := flag.Bool("parallel", true, "also run the parallel-engine scaling sweep (workers 1/2/4/8)")
	parallelRepeats := flag.Int("parallel-repeats", 3, "runs per worker count in the parallel sweep (best kept)")
	note := flag.String("note", "", "free-form host/context note recorded in the artifact")
	flag.Parse()

	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", "BenchmarkSimulatorThroughput", "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: benchmark failed: %v\n%s", err, out)
		os.Exit(1)
	}

	var refsSec, bytesOp, allocsOp []float64
	for _, m := range benchLine.FindAllStringSubmatch(string(out), -1) {
		nsOp, err1 := strconv.ParseFloat(m[1], 64)
		refsOp, err2 := strconv.ParseFloat(m[2], 64)
		bOp, err3 := strconv.ParseFloat(m[3], 64)
		aOp, err4 := strconv.ParseFloat(m[4], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || nsOp <= 0 {
			continue
		}
		refsSec = append(refsSec, refsOp/(nsOp/1e9))
		bytesOp = append(bytesOp, bOp)
		allocsOp = append(allocsOp, aOp)
	}
	if len(refsSec) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark lines parsed from:\n%s", out)
		os.Exit(1)
	}

	rep := Report{
		Benchmark:     "BenchmarkSimulatorThroughput",
		RefsPerSec:    refsSec,
		MedianRefsSec: median(refsSec),
		MinRefsSec:    slices.Min(refsSec),
		BytesPerOp:    median(bytesOp),
		AllocsPerOp:   median(allocsOp),
		MaxRegression: *maxReg,
		Pass:          true,
		Note:          *note,
	}
	if data, err := os.ReadFile(*baselinePath); err == nil {
		var base Baseline
		if err := json.Unmarshal(data, &base); err == nil && base.MedianRefsSec > 0 {
			rep.Baseline = base.MedianRefsSec
			rep.Ratio = rep.MedianRefsSec / base.MedianRefsSec
			rep.BaselineSource = *baselinePath
			rep.Pass = rep.Ratio >= 1-*maxReg
		}
	} else {
		fmt.Fprintf(os.Stderr, "benchgate: no baseline at %s; recording trajectory only\n", *baselinePath)
	}

	if *sweep {
		if err := runSweep(&rep, *sweepRefs); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: sweep failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: sweep (%d figures, %d refs/thread) took %.1fs\n",
			len(rep.SweepFigures), rep.SweepRefs, rep.SweepWallSec)
	}

	if *parallel {
		if err := runParallelSweep(&rep, *parallelRepeats); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: parallel sweep failed: %v\n", err)
			os.Exit(1)
		}
		for i, w := range rep.ParallelWorkers {
			fmt.Printf("benchgate: parallel workers=%d: %.0f refs/sec (%.2fx serial), %.1f MB allocated\n",
				w, rep.ParallelRefsSec[i], rep.ParallelSpeedup[i], rep.ParallelAllocMB[i])
		}
		fmt.Printf("benchgate: host scaling, 2 goroutines over 1: %.2fx\n", rep.ParallelHostScaling)
	}

	data, _ := json.MarshalIndent(rep, "", "  ")
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: writing %s: %v\n", *outPath, err)
		os.Exit(1)
	}
	fmt.Printf("benchgate: median %.0f refs/sec over %d runs", rep.MedianRefsSec, len(refsSec))
	if rep.Baseline > 0 {
		fmt.Printf(" (%.2fx of baseline %.0f)", rep.Ratio, rep.Baseline)
	}
	fmt.Println()
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: median %.0f refs/sec is below %.0f%% of baseline %.0f\n",
			rep.MedianRefsSec, (1-*maxReg)*100, rep.Baseline)
		os.Exit(1)
	}
}
