package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"

	"hatric/internal/sim"
	"hatric/internal/workload"
)

// metric is one named value with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// modeledLayers derives the per-layer counts of one cell from its result.
// They are exact: a fixed seed gives the same values on every host. Every
// stats.Counters field the benchmark reads is read here.
func modeledLayers(proto string, r *sim.Result) []metric {
	a := &r.Agg
	kref := float64(a.MemRefs) / 1000
	f := func(v uint64) float64 { return float64(v) }
	missRate := func(hits, misses uint64) float64 { return ratio(f(misses), f(hits+misses)) }
	name := func(layer, n string) string { return layer + "." + proto + "." + n }
	out := []metric{
		{name("tstruct", "l1tlb_miss_rate"), missRate(a.L1TLBHits, a.L1TLBMisses), "fraction"},
		{name("tstruct", "l2tlb_miss_rate"), missRate(a.L2TLBHits, a.L2TLBMisses), "fraction"},
		{name("tstruct", "ntlb_miss_rate"), missRate(a.NTLBHits, a.NTLBMisses), "fraction"},
		{name("tstruct", "entries_lost_per_kref"), ratio(f(a.TLBEntriesLost+a.MMUEntriesLost+a.NTLBEntriesLost), kref), "1/kref"},
		{name("walker", "walks_per_kref"), ratio(f(a.Walks), kref), "1/kref"},
		{name("walker", "refs_per_walk"), ratio(f(a.WalkRefs), f(a.Walks)), "refs"},
		{name("cache", "l1_miss_rate"), missRate(a.L1Hits, a.L1Misses), "fraction"},
		{name("cache", "l2_miss_rate"), missRate(a.L2Hits, a.L2Misses), "fraction"},
		{name("cache", "llc_miss_rate"), missRate(a.LLCHits, a.LLCMisses), "fraction"},
		{name("coherence", "invals_per_kref"), ratio(f(a.InvalidationsSent), kref), "1/kref"},
		{name("coherence", "spurious_inval_ratio"), ratio(f(a.SpuriousInvalidations), f(a.InvalidationsSent)), "fraction"},
		{name("coherence", "back_invals_per_kref"), ratio(f(a.DirBackInvalidations), kref), "1/kref"},
		{name("core", "remaps_per_kref"), ratio(f(a.RemapsInitiated), kref), "1/kref"},
		{name("core", "vm_exits_per_kref"), ratio(f(a.VMExits), kref), "1/kref"},
	}
	// HATRIC's IPIs and shootdown cycles are checked to be 0, so only the
	// software protocol reports them.
	if proto == "sw" {
		out = append(out,
			metric{name("core", "shootdown_cycles_per_remap"), ratio(f(a.ShootdownCycles), f(a.RemapsInitiated)), "cycles"},
			metric{name("core", "ipis_per_remap"), ratio(f(a.IPIs), f(a.RemapsInitiated)), "ratio"},
			metric{name("core", "desched_stall_share"), ratio(f(a.DescheduledStallCycles), f(a.ShootdownCycles)), "fraction"},
		)
	} else {
		out = append(out, metric{name("core", "cotag_hit_ratio"), ratio(f(a.CoTagInvalidations), f(a.CoTagCompares)), "fraction"})
	}
	return append(out,
		metric{name("hv", "faults_per_kref"), ratio(f(a.PageFaults), kref), "1/kref"},
		metric{name("hv", "evictions_per_kref"), ratio(f(a.PageEvictions), kref), "1/kref"},
		metric{name("hv", "ksm_breaks"), f(a.KSMBreaks), "count"},
		metric{name("hv", "compaction_moves"), f(a.CompactionMoves), "count"},
		metric{name("hv", "balloon_reclaims"), f(a.BalloonReclaims), "count"},
		metric{name("hv", "migration_downtime_mcycles"), f(a.MigrationDowntimeCycles) / 1e6, "Mcycles"},
		metric{name("memdev", "hbm_share"), ratio(f(r.HBMBytes), f(r.HBMBytes+r.DRAMBytes)), "fraction"},
		metric{name("sim", "vcpu_switches_per_kref"), ratio(f(a.VCPUSwitches), kref), "1/kref"},
		metric{name("sim", "deferred_per_ref"), ratio(f(a.ParallelDeferred), f(a.MemRefs)), "ratio"},
	)
}

// hostBuckets are the profile's attribution buckets: the simulator's
// internal packages, the Go runtime, and everything else (the benchmark
// itself, the profiler, other standard-library code).
var hostBuckets = []string{
	"workload", "xrand", "cache", "lrurank", "coherence", "walker", "tstruct",
	"pagetable", "memdev", "hv", "core", "stats", "sim", "go_runtime", "other",
}

// bucketOf maps a function name as pprof prints it to its bucket.
func bucketOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "hatric/internal/"):
		name := strings.TrimPrefix(pkg, "hatric/internal/")
		for _, b := range hostBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/"):
		return "go_runtime"
	}
	return "other"
}

// profileSummary is the attribution of a CPU profile's samples. Self
// counts a sample for the bucket of its leaf frame; incl counts it once
// for every bucket with a frame anywhere on its stack.
type profileSummary struct {
	Samples float64            `json:"samples"`
	Self    map[string]float64 `json:"self"`
	Incl    map[string]float64 `json:"incl"`
	// Shard counts samples under the parallel engine's runShard; Barrier
	// those under its barrier replay (dispatchEvents, pumpAtBarrier).
	Shard   float64 `json:"shard"`
	Barrier float64 `json:"barrier"`
}

func newProfileSummary() *profileSummary {
	return &profileSummary{Self: map[string]float64{}, Incl: map[string]float64{}}
}

// profileTick is the sampling period of runtime/pprof's CPU profiler.
const profileTick = 10 * time.Millisecond

// parseTraces adds the stacks of `go tool pprof -traces` output to ps.
// Lines of dashes separate stacks. A stack's first line holds its sampled
// time and its leaf frame ("  10ms   pkg.Func"); its callers follow one
// per line ("         pkg.Caller", perhaps with " (inline)").
func (ps *profileSummary) parseTraces(r io.Reader) error {
	var (
		weight   float64
		seen     map[string]bool
		inStacks bool
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			inStacks, weight = true, 0
			continue
		}
		fields := strings.Fields(line)
		if !inStacks || len(fields) == 0 {
			continue // the header before the first stack
		}
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) >= 2 {
			weight = float64(d) / float64(profileTick)
			seen = map[string]bool{}
			fn := fields[1]
			b := bucketOf(fn)
			ps.Samples += weight
			ps.Self[b] += weight
			ps.addFrame(fn, b, weight, seen)
			continue
		}
		if weight == 0 {
			continue
		}
		fn := fields[0]
		ps.addFrame(fn, bucketOf(fn), weight, seen)
	}
	return sc.Err()
}

// addFrame counts one frame of a stack towards the inclusive totals, at
// most once per bucket and marker per stack.
func (ps *profileSummary) addFrame(fn, bucket string, weight float64, seen map[string]bool) {
	if !seen[bucket] {
		seen[bucket] = true
		ps.Incl[bucket] += weight
	}
	marker := ""
	switch {
	case strings.HasSuffix(fn, "sim.(*System).runShard"):
		marker = "shard"
	case strings.HasSuffix(fn, "sim.(*System).dispatchEvents"), strings.HasSuffix(fn, "sim.(*System).pumpAtBarrier"):
		marker = "barrier"
	}
	if marker == "" || seen[marker] {
		return
	}
	seen[marker] = true
	if marker == "shard" {
		ps.Shard += weight
	} else {
		ps.Barrier += weight
	}
}

// hostLayers turns the attribution into the host per-layer metrics.
func (ps *profileSummary) hostLayers() []metric {
	share := func(v float64) float64 { return ratio(v, ps.Samples) }
	var out []metric
	for _, b := range hostBuckets {
		out = append(out, metric{"host." + b + ".self_share", share(ps.Self[b]), "fraction"})
	}
	return append(out,
		metric{"host.hv.incl_share", share(ps.Incl["hv"]), "fraction"},
		metric{"host.core.incl_share", share(ps.Incl["core"]), "fraction"},
		metric{"host.sim.shard_incl_share", share(ps.Shard), "fraction"},
		metric{"host.sim.barrier_incl_share", share(ps.Barrier), "fraction"},
	)
}

// profiledRun is timedRun under the CPU profiler. The profile goes to a
// temporary file, is attributed with `go tool pprof -traces`, and is
// removed.
func profiledRun(p pair, want *[2]uint64, ps *profileSummary) (sample, error) {
	f, err := os.CreateTemp("", "hatricbench-*.pprof")
	if err != nil {
		return sample{}, err
	}
	defer os.Remove(f.Name())
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return sample{}, err
	}
	s, runErr := timedRun(p, want)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return sample{}, err
	}
	if runErr != nil {
		return sample{}, runErr
	}
	cmd := exec.Command("go", "tool", "pprof", "-symbolize=none", "-traces", f.Name())
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return sample{}, err
	}
	if err := cmd.Start(); err != nil {
		return sample{}, fmt.Errorf("go tool pprof: %w", err)
	}
	parseErr := ps.parseTraces(stdout)
	if err := cmd.Wait(); err != nil {
		return sample{}, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return s, parseErr
}

// genNsPerRef times reference generation alone: every stream the cells
// would build, replayed in refBatch-sized slabs. The stream seeds follow
// sim.New, which seeds process g (counted across VMs) with seed+g*101.
func genNsPerRef(opts sim.Options) float64 {
	const slab = 256
	const replays = 5
	vms := opts.VMs
	if len(vms) == 0 {
		vms = sim.OneVM(opts.Workloads)
	}
	buf := make([]workload.Access, slab)
	times := make([]float64, 0, replays)
	for rep := 0; rep < replays; rep++ {
		var refs uint64
		start := time.Now()
		g := uint64(0)
		for _, vm := range vms {
			for _, aw := range vm.Workloads {
				spec := aw.Spec.PerThread(len(aw.CPUs))
				for t := range aw.CPUs {
					st := workload.NewStream(spec, opts.Seed+g*101, t)
					for n := st.NextBatch(buf); n > 0; n = st.NextBatch(buf) {
						refs += uint64(n)
					}
				}
				g++
			}
		}
		times = append(times, float64(time.Since(start).Nanoseconds())/float64(refs))
	}
	return quartiles(times).Median
}
