package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"hatric/internal/sim"
)

// fingerprint hashes what a cell computes: the aggregate counters, the
// runtime, every CPU's completion cycle and the total energy. A change
// that only speeds the simulator up must leave it bit-identical.
func fingerprint(r *sim.Result) uint64 {
	h := fnv.New64a()
	// binary.Write fails only on values that are not fixed-size; all of
	// these are.
	_ = binary.Write(h, binary.LittleEndian, &r.Agg)
	_ = binary.Write(h, binary.LittleEndian, uint64(r.Runtime))
	_ = binary.Write(h, binary.LittleEndian, r.Completion)
	_ = binary.Write(h, binary.LittleEndian, math.Float64bits(r.Energy.TotalPJ))
	return h.Sum64()
}

// checkCell applies the checks every result of a cell must pass.
func checkCell(opts sim.Options, r *sim.Result, vcpuRefs uint64) error {
	a := &r.Agg
	switch {
	case a.StaleTranslationUses != 0:
		return fmt.Errorf("%s: %d stale translation uses", opts.Protocol, a.StaleTranslationUses)
	case a.MemRefs != vcpuRefs:
		return fmt.Errorf("%s: retired %d references, want %d", opts.Protocol, a.MemRefs, vcpuRefs)
	case opts.Protocol == "hatric" && (a.IPIs != 0 || a.ShootdownCycles != 0):
		return fmt.Errorf("hatric: %d IPIs and %d shootdown cycles, want 0", a.IPIs, a.ShootdownCycles)
	}
	return nil
}

// runCell builds and runs one cell. It returns the result and the wall
// and process CPU seconds spent inside Run.
func runCell(opts sim.Options) (res *sim.Result, wall, cpu float64, err error) {
	sys, err := sim.New(opts)
	if err != nil {
		return nil, 0, 0, err
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	res, err = sys.Run()
	return res, time.Since(start).Seconds(), cpuSeconds() - cpu0, err
}

// verified is the outcome of a workload's untimed verification pass: each
// cell's reference result and fingerprint.
type verified struct {
	results      [2]*sim.Result
	fingerprints [2]uint64
}

// verify runs each cell once with the stale-translation audit on and
// checks it. parallel_2w-style cells (ParallelCPUs > 1) are run again at
// one worker and must match bit for bit.
func verify(p pair) (verified, error) {
	var v verified
	for i, opts := range p.cells {
		opts.CheckStale = true
		res, _, _, err := runCell(opts)
		if err != nil {
			return v, fmt.Errorf("%s/%s: %w", p.name, opts.Protocol, err)
		}
		if err := checkCell(opts, res, p.vcpuRefs); err != nil {
			return v, fmt.Errorf("%s/%w", p.name, err)
		}
		v.results[i], v.fingerprints[i] = res, fingerprint(res)
		if opts.ParallelCPUs > 1 {
			opts.ParallelCPUs = 1
			one, _, _, err := runCell(opts)
			if err != nil {
				return v, fmt.Errorf("%s/%s at 1 worker: %w", p.name, opts.Protocol, err)
			}
			if fp := fingerprint(one); fp != v.fingerprints[i] {
				return v, fmt.Errorf("%s/%s: fingerprint %016x at 1 worker, %016x at %d",
					p.name, opts.Protocol, fp, v.fingerprints[i], p.cells[i].ParallelCPUs)
			}
		}
	}
	return v, nil
}

// sample is one timed run of a cell pair.
type sample struct {
	RefsPerSec float64 `json:"refs_per_sec"`
	RunSec     float64 `json:"run_s"`
	AllocMB    float64 `json:"alloc_mb"`
	// CPUPerWall is process CPU time over wall time inside Run.
	CPUPerWall float64 `json:"cpu_per_wall"`
	// SetupS, set on untraced timed runs only, is the set-up time
	// measured just before the run.
	SetupS float64 `json:"setup_s,omitempty"`
}

// timedRun builds and runs both cells of p and checks each result against
// its fingerprint in want; a zero entry is filled from this run instead.
// Every run starts from a collected heap, so that garbage left by the
// previous run does not land its collection on this one. The returned
// sample is valid only when err is nil.
func timedRun(p pair, want *[2]uint64) (sample, error) {
	var s sample
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var refs uint64
	var cpu float64
	for i, opts := range p.cells {
		res, wall, c, err := runCell(opts)
		if err != nil {
			return s, fmt.Errorf("%s/%s: %w", p.name, opts.Protocol, err)
		}
		if err := checkCell(opts, res, p.vcpuRefs); err != nil {
			return s, fmt.Errorf("%s/%w", p.name, err)
		}
		switch fp := fingerprint(res); {
		case want[i] == 0:
			want[i] = fp
		case fp != want[i]:
			return s, fmt.Errorf("%s/%s: fingerprint %016x, want %016x", p.name, opts.Protocol, fp, want[i])
		}
		s.RunSec += wall
		cpu += c
		refs += res.Agg.MemRefs
	}
	runtime.ReadMemStats(&after)
	s.RefsPerSec = float64(refs) / s.RunSec
	s.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	s.CPUPerWall = cpu / s.RunSec
	return s, nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// Getrusage of the calling process fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setupsPerRun is how many timed sim.New calls of each cell precede each
// timed run.
const setupsPerRun = 5

// setupSeconds is the median of setupsPerRun sim.New times of each cell,
// summed over the pair. Each call starts from a collected heap. The calls
// are warm: the verification pass has already built every cell once.
//
// The collector is paused during each call. Otherwise the collection that
// the call's tens of megabytes trigger lands at a varying point and, now
// and then, doubles the time. The call's allocation still counts, in
// alloc_mb.
func setupSeconds(p pair) (float64, error) {
	total := 0.0
	for _, opts := range p.cells {
		times := make([]float64, setupsPerRun)
		for i := range times {
			runtime.GC()
			gcPercent := debug.SetGCPercent(-1)
			start := time.Now()
			_, err := sim.New(opts)
			times[i] = time.Since(start).Seconds()
			debug.SetGCPercent(gcPercent)
			if err != nil {
				return 0, fmt.Errorf("%s/%s: %w", p.name, opts.Protocol, err)
			}
		}
		total += quartiles(times).Median
	}
	return total, nil
}

// summary is a median with its quartiles and sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quartiles computes the summary with the same exclusive method as
// Python's statistics.quantiles(values, n=4).
func quartiles(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	sum := summary{N: n}
	switch n {
	case 0:
		return sum
	case 1:
		sum.Median, sum.Q1, sum.Q3 = s[0], s[0], s[0]
		return sum
	}
	at := func(i int) float64 {
		// Python's exclusive method: position i*(n+1)/4 (1-based), the
		// index clamped to [1, n-1] and the fraction left unclamped, so
		// small samples extrapolate exactly as Python does.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	sum.Q1, sum.Median, sum.Q3 = at(1), at(2), at(3)
	return sum
}

// ratio is num/den, or 0 when den is 0, so that a count the workload
// never produces reads as 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
