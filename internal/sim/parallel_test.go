package sim

// Tests for the epoch-barrier parallel engine (Options.ParallelCPUs).
//
// The engine's contract has two halves, tested separately:
//
//  1. Worker-count independence (the hard determinism property): at a
//     fixed configuration, ParallelCPUs=1 and ParallelCPUs=N produce
//     bit-identical results. This is what makes the mode a throughput
//     knob rather than a model parameter.
//  2. The parallel engine is a documented statistical variant of the
//     serial engine — deferring shared-cache fills and invalidation
//     waves to the barrier shifts LLC/directory timing — so it carries
//     its own golden set (goldenParallelWant) instead of reusing the
//     serial fingerprints. Counters the deferral provably cannot shift
//     (instruction and reference counts; translation-structure behavior
//     on remap-free machines) are asserted equal to the serial engine.

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"hatric/internal/arch"
	"hatric/internal/hv"
	"hatric/internal/workload"
)

func runParallelFP(t *testing.T, o Options) uint64 {
	t.Helper()
	sys, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return goldenFingerprint(res)
}

// TestParallelWorkerIndependence is the epoch-barrier property test:
// randomized small machines, all four protocols, several seeds — the
// fingerprint (every counter, clock, byte total, and per-VM aggregate)
// must be bit-identical across worker counts.
func TestParallelWorkerIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	epochs := []arch.Cycles{10_000, 25_000, 50_000}
	for trial := 0; trial < 3; trial++ {
		spec := workload.Spec{
			Name:           fmt.Sprintf("rnd%d", trial),
			FootprintPages: 600 + rng.Intn(600),
			Refs:           uint64(2_500 + rng.Intn(2_000)),
			RegionPages:    150 + rng.Intn(200),
			Theta:          0.4 + rng.Float64()*0.4,
			DriftEvery:     uint64(1_000 + rng.Intn(1_500)),
			DriftPages:     8 + rng.Intn(24),
			StreamFrac:     rng.Float64() * 0.2,
			WriteFrac:      0.2 + rng.Float64()*0.3,
			GapMean:        1 + rng.Intn(4),
			Threads:        2,
		}
		seed := uint64(rng.Int63())
		epoch := epochs[trial]
		build := func(protocol string, workers int) Options {
			o := Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "lru"},
				Mode:     hv.ModePaged,
				VMs: []VMSpec{
					{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{0, 1}}}},
					{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{2, 3}}}},
				},
				Seed:         seed,
				CheckStale:   true,
				ParallelCPUs: workers,
				EpochCycles:  epoch,
			}
			if trial == 2 {
				// Exercise the storm deferrals (dedup scans, write-breaks,
				// compaction windows) under sharding too.
				o.KSM = hv.KSMConfig{ScanEvery: 400, PagesPerScan: 16,
					SharingFactor: 0.5, BreakRate: 0.3, ClassCount: 24}
				o.Compaction = hv.CompactionConfig{Every: 300, WindowPages: 4}
				o.Paging.Daemon = true
			}
			return o
		}
		for _, proto := range []string{"sw", "hatric", "unitd", "ideal"} {
			t.Run(fmt.Sprintf("trial%d/%s", trial, proto), func(t *testing.T) {
				want := runParallelFP(t, build(proto, 1))
				for _, workers := range []int{2, 4} {
					if got := runParallelFP(t, build(proto, workers)); got != want {
						t.Errorf("ParallelCPUs=%d diverged from ParallelCPUs=1: %#016x vs %#016x",
							workers, got, want)
					}
				}
			})
		}
	}
}

// TestParallelMatchesSerialTranslation pins the counters the epoch
// deferral provably cannot shift: on a remap-free machine (inf-hbm, no
// storms) the per-CPU translation sequence is identical to the serial
// engine's — same streams, same TLB/MMU/nTLB fill order — so the whole
// translation-structure block, instruction and reference counts, and
// the stale-use audit must match the serial run exactly, even though
// cache timing differs.
func TestParallelMatchesSerialTranslation(t *testing.T) {
	build := func(workers int) Options {
		cfg := smokeConfig()
		cfg.Mem.HBMFrames = 4096
		return Options{
			Config:       cfg,
			Protocol:     "hatric",
			Paging:       hv.PagingConfig{Policy: "lru"},
			Mode:         hv.ModeInfHBM,
			Workloads:    SingleWorkload(smokeSpec(), 4),
			Seed:         42,
			CheckStale:   true,
			ParallelCPUs: workers,
		}
	}
	run := func(o Options) *Result {
		sys, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(build(0))
	par := run(build(2))
	if serial.Agg.PageFaults != 0 || serial.Agg.RemapsInitiated != 0 {
		t.Fatalf("precondition violated: inf-hbm run faulted (%d) or remapped (%d)",
			serial.Agg.PageFaults, serial.Agg.RemapsInitiated)
	}
	if par.Agg.StaleTranslationUses != 0 {
		t.Errorf("parallel engine used %d stale translations", par.Agg.StaleTranslationUses)
	}
	type pair struct {
		name string
		s, p uint64
	}
	for _, f := range []pair{
		{"Instructions", serial.Agg.Instructions, par.Agg.Instructions},
		{"MemRefs", serial.Agg.MemRefs, par.Agg.MemRefs},
		{"Walks", serial.Agg.Walks, par.Agg.Walks},
		{"WalkRefs", serial.Agg.WalkRefs, par.Agg.WalkRefs},
		{"L1TLBHits", serial.Agg.L1TLBHits, par.Agg.L1TLBHits},
		{"L1TLBMisses", serial.Agg.L1TLBMisses, par.Agg.L1TLBMisses},
		{"L2TLBHits", serial.Agg.L2TLBHits, par.Agg.L2TLBHits},
		{"L2TLBMisses", serial.Agg.L2TLBMisses, par.Agg.L2TLBMisses},
		{"NTLBHits", serial.Agg.NTLBHits, par.Agg.NTLBHits},
		{"NTLBMisses", serial.Agg.NTLBMisses, par.Agg.NTLBMisses},
		{"MMUCacheHits", serial.Agg.MMUCacheHits, par.Agg.MMUCacheHits},
		{"MMUCacheMisses", serial.Agg.MMUCacheMisses, par.Agg.MMUCacheMisses},
		{"PageFaults", serial.Agg.PageFaults, par.Agg.PageFaults},
	} {
		if f.s != f.p {
			t.Errorf("%s: serial %d vs parallel %d", f.name, f.s, f.p)
		}
	}
	if par.Agg.ParallelEpochs == 0 {
		t.Errorf("parallel run recorded no epochs")
	}
}

// TestAccessedBitsMatchReferences pins the nested accessed-bit contract
// CLOCK relies on: every referenced page ends with its bit set, and no
// other page does. step is the only writer — directly on the serial
// engine, through the barrier's OR of the lanes' marks on the parallel
// one (its only route to these bits). Every page is resident (inf-hbm),
// so nothing is evicted or remapped and no bit is ever cleared; the
// expected set is rebuilt from the reference streams themselves, seeded as
// New seeds them. Two VMs make the test see the VM half of a mark too.
func TestAccessedBitsMatchReferences(t *testing.T) {
	spec := smokeSpec()
	spec.Refs = 6_000
	spec.Threads = 2
	for _, workers := range []int{0, 2} {
		cfg := smokeConfig()
		cfg.Mem.HBMFrames = 4096
		opts := Options{
			Config:   cfg,
			Protocol: "hatric",
			Paging:   hv.PagingConfig{Policy: "lru"},
			Mode:     hv.ModeInfHBM,
			VMs: []VMSpec{
				{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{0, 1}}}},
				{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{2, 3}}}},
			},
			Seed:         23,
			ParallelCPUs: workers,
		}
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg.PageEvictions != 0 || res.Agg.RemapsInitiated != 0 {
			t.Fatalf("precondition violated: %d evictions, %d remaps",
				res.Agg.PageEvictions, res.Agg.RemapsInitiated)
		}
		for v, vm := range sys.VMs() {
			// One process per VM: its process index is the VM's.
			w := opts.VMs[v].Workloads[0]
			referenced := map[arch.GPP]bool{}
			for ti := range w.CPUs {
				st := workload.NewStream(w.Spec.PerThread(len(w.CPUs)), opts.Seed+uint64(v)*101, ti)
				for acc, ok := st.Next(); ok; acc, ok = st.Next() {
					gpp, _ := vm.Guests[0].Translate(acc.VA.Page())
					referenced[gpp] = true
				}
			}
			wrong := 0
			for gvp := 0; gvp < w.Spec.FootprintPages; gvp++ {
				gpp, _ := vm.Guests[0].Translate(arch.GVP(gvp))
				if vm.Nested.Accessed(gpp) != referenced[gpp] {
					wrong++
				}
			}
			if wrong != 0 || len(referenced) == 0 {
				t.Errorf("workers=%d VM %d: %d of %d pages have an accessed bit that disagrees with the %d referenced",
					workers, v, wrong, w.Spec.FootprintPages, len(referenced))
			}
		}
	}
}

// TestParallelLogFollowsWorkerPeak pins the deferred log's memory on a
// parallel_2w-shaped machine (two paged data_caching VMs of 4 threads, 2
// workers). The log keeps one lane per worker, so each lane's capacity
// follows the busiest epoch of its own worker. One slice per CPU grew to
// every CPU's own busiest epoch, and these fall in different epochs — a
// CPU that parks on a fault early logs little, one that runs its whole
// epoch logs much — so together the lanes must hold less than the
// per-CPU peaks summed, which no per-CPU layout can.
func TestParallelLogFollowsWorkerPeak(t *testing.T) {
	spec, err := workload.ByName("data_caching")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.WithRefs(30_000)
	vms := []VMSpec{
		{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{0, 1, 2, 3}}}},
		{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{4, 5, 6, 7}}}},
	}
	cfg := arch.DefaultConfig()
	cfg.NumCPUs = 8
	SizeConfigVMs(&cfg, vms, hv.ModePaged)
	cfg.Mem.HBMFrames = 1536
	sys, err := New(Options{
		Config:       cfg,
		Protocol:     "sw",
		Paging:       hv.BestPolicy(),
		Mode:         hv.ModePaged,
		VMs:          vms,
		Seed:         5,
		ParallelCPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.parInit()
	defer sys.parStop()
	log := sys.par.log
	logged := make([]uint64, cfg.NumCPUs) // ParallelDeferred so far
	cpuPeak := make([]uint64, cfg.NumCPUs)
	lanePeak := make([]uint64, log.Lanes())
	epochs := 0
	for ; sys.active > 0; epochs++ {
		if err := sys.parEpoch(); err != nil {
			t.Fatal(err)
		}
		perLane := make([]uint64, log.Lanes())
		for cpu := range logged {
			n := sys.cnt[cpu].ParallelDeferred - logged[cpu]
			logged[cpu] += n
			perLane[log.Lane(cpu)] += n
			cpuPeak[cpu] = max(cpuPeak[cpu], n)
		}
		for lane, n := range perLane {
			lanePeak[lane] = max(lanePeak[lane], n)
		}
	}
	total, sumCPUPeaks := uint64(0), uint64(0)
	for lane, peak := range lanePeak {
		c := uint64(log.Capacity(lane))
		total += c
		if c > 2*peak {
			t.Errorf("lane %d holds %d events of capacity, more than twice its busiest epoch (%d)", lane, c, peak)
		}
	}
	for _, p := range cpuPeak {
		sumCPUPeaks += p
	}
	t.Logf("%d epochs: lane peaks %v, capacity %d events, per-CPU peaks sum to %d",
		epochs, lanePeak, total, sumCPUPeaks)
	if total >= sumCPUPeaks {
		t.Errorf("the lanes hold %d events of capacity, no less than the per-CPU peaks summed (%d)", total, sumCPUPeaks)
	}
}

// TestQuickParallelDeterminism rides the CI determinism job (which runs
// every TestQuick* twice with -count=2): the same parallel configuration
// must fingerprint identically run over run, in-process and across
// processes.
func TestQuickParallelDeterminism(t *testing.T) {
	build := func() Options {
		spec := smokeSpec()
		spec.Refs = 5_000
		return Options{
			Config:       smokeConfig(),
			Protocol:     "hatric",
			Paging:       hv.PagingConfig{Policy: "lru"},
			Mode:         hv.ModePaged,
			Workloads:    SingleWorkload(spec, 4),
			Seed:         7,
			CheckStale:   true,
			ParallelCPUs: 4,
		}
	}
	first := runParallelFP(t, build())
	if again := runParallelFP(t, build()); again != first {
		t.Errorf("same parallel run fingerprinted differently: %#016x vs %#016x", again, first)
	}
}

// TestParallelOptionsValidation pins the configuration errors: the
// engine shards physical CPUs, so negative worker counts and more
// workers than pCPUs are rejected up front with descriptive messages.
func TestParallelOptionsValidation(t *testing.T) {
	base := func() Options {
		return Options{
			Config:    smokeConfig(),
			Protocol:  "hatric",
			Paging:    hv.PagingConfig{Policy: "lru"},
			Mode:      hv.ModePaged,
			Workloads: SingleWorkload(smokeSpec(), 4),
			Seed:      7,
		}
	}
	neg := base()
	neg.ParallelCPUs = -1
	if _, err := New(neg); err == nil {
		t.Errorf("negative ParallelCPUs accepted")
	}
	over := base()
	over.ParallelCPUs = smokeConfig().NumCPUs + 1
	if _, err := New(over); err == nil {
		t.Errorf("ParallelCPUs > NumCPUs accepted")
	} else if want := "physical CPUs"; !containsStr(err.Error(), want) {
		t.Errorf("oversubscription error %q does not mention %q", err, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// goldenParallelWant is the parallel engine's own golden set: the same
// eleven machine shapes and four protocols as goldenWant, run at
// ParallelCPUs=4 with the default epoch length. The fingerprints differ
// from the serial set by design (epoch-deferred shared-state timing) and
// are frozen here; TestParallelWorkerIndependence is what ties every
// other worker count to these values.
var goldenParallelWant = map[string]uint64{
	"balloon/sw":        0xb9652197753dde70,
	"balloon/hatric":    0x3c50034c786acc75,
	"balloon/unitd":     0x6a57621e67b4c977,
	"balloon/ideal":     0x35a07f736371f260,
	"compact/sw":        0xcf5fa1519126c84f,
	"compact/hatric":    0xcf0c0beae92b9b55,
	"compact/unitd":     0x1128159789c591f5,
	"compact/ideal":     0x59afb9a29941fa47,
	"dedup/sw":          0x467dbc9139818ed1,
	"dedup/hatric":      0x3ae54cf416218fe1,
	"dedup/unitd":       0x41851d6d0fe29e65,
	"dedup/ideal":       0x31e5c400b8e45bd5,
	"migration/sw":      0xbecdb84926621c97,
	"migration/hatric":  0x67ed91c18db6278a,
	"migration/unitd":   0xdf0f5658dbabc25b,
	"migration/ideal":   0x8491ffc24c272b3a,
	"migsched/sw":       0x2b20390f289acc73,
	"migsched/hatric":   0xa691fa697ac89372,
	"migsched/unitd":    0x882f124959c6cbe9,
	"migsched/ideal":    0xe1055d646705606c,
	"multivm/sw":        0x84a1189f16255c4b,
	"multivm/hatric":    0xbb9c3003f62244c6,
	"multivm/unitd":     0xd15c2bc509f074a4,
	"multivm/ideal":     0x2305c04183fa2eb6,
	"oddrefs/sw":        0x3fbb1da61a286cf9,
	"oddrefs/hatric":    0x4bbb084a672e9adc,
	"oddrefs/unitd":     0xe8304748d6139f96,
	"oddrefs/ideal":     0x8349989187b6fecb,
	"overcommit/sw":     0x55f5311816765ccb,
	"overcommit/hatric": 0xcfcfcbc748ec7b13,
	"overcommit/unitd":  0xc49582ab967dcfb3,
	"overcommit/ideal":  0xd83ea62409c5c9b4,
	"pinned/sw":         0xf5ada30ff98be465,
	"pinned/hatric":     0xa8028f3b96fee67c,
	"pinned/unitd":      0x9cd83e6dc4b0aab5,
	"pinned/ideal":      0x80ec456c43c6ded9,
	"qos/sw":            0x9ad230b00bde3b60,
	"qos/hatric":        0x7af5aaf9213154e8,
	"qos/unitd":         0x6fe06e1d19b3d441,
	"qos/ideal":         0x2bb68014226bf2ea,
	"quantum1/sw":       0x575e9c39b44fa823,
	"quantum1/hatric":   0xfeb7a207662c7657,
	"quantum1/unitd":    0x9d9346f5ad1137cb,
	"quantum1/ideal":    0xe70cac709a01ca73,
}

func TestGoldenCountersParallel(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	scenarios := goldenScenarios()
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines []string
	for _, name := range names {
		build := scenarios[name]
		for _, proto := range []string{"sw", "hatric", "unitd", "ideal"} {
			key := name + "/" + proto
			t.Run(key, func(t *testing.T) {
				o := build(proto)
				o.ParallelCPUs = 4
				sys, err := New(o)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Agg.ParallelEpochs == 0 {
					t.Errorf("parallel run recorded no epochs")
				}
				checkRemapAccounting(t, res.Agg)
				got := goldenFingerprint(res)
				if update {
					lines = append(lines, fmt.Sprintf("\t%q: %#016x,", key, got))
					return
				}
				want, ok := goldenParallelWant[key]
				if !ok {
					t.Fatalf("no parallel golden fingerprint for %s; run with GOLDEN_UPDATE=1 to record", key)
				}
				if got != want {
					t.Errorf("parallel fingerprint drifted: got %#016x want %#016x\nagg: %+v",
						got, want, res.Agg)
				}
			})
		}
	}
	if update {
		fmt.Println("var goldenParallelWant = map[string]uint64{")
		for _, l := range lines {
			fmt.Println(l)
		}
		fmt.Println("}")
	}
}
