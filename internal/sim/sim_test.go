package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hatric/internal/arch"
	"hatric/internal/hv"
	"hatric/internal/workload"
)

// TestStaleAuditAcrossVariants runs every protocol under every directory
// ablation and asserts the paper's correctness property: no CPU ever uses a
// translation the page tables no longer contain.
func TestStaleAuditAcrossVariants(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*arch.Config)
	}{
		{"default", nil},
		{"eager", func(c *arch.Config) { c.Dir.EagerUpdate = true }},
		{"finegrained", func(c *arch.Config) { c.Dir.FineGrained = true }},
		{"noback", func(c *arch.Config) { c.Dir.NoBackInvalidation = true }},
		{"tinydir", func(c *arch.Config) { c.Dir.Entries = 64 }},
		{"cotag1", func(c *arch.Config) { c.TLB.CoTagBytes = 1 }},
		{"cotag3", func(c *arch.Config) { c.TLB.CoTagBytes = 3 }},
	}
	for _, proto := range []string{"sw", "hatric", "hatric-pf", "unitd", "ideal"} {
		for _, v := range variants {
			t.Run(proto+"/"+v.name, func(t *testing.T) {
				cfg := smokeConfig()
				if v.mut != nil {
					v.mut(&cfg)
				}
				sys, err := New(Options{
					Config:     cfg,
					Protocol:   proto,
					Paging:     hv.PagingConfig{Policy: "lru", Daemon: true, Prefetch: 2, DefragEvery: 5000},
					Mode:       hv.ModePaged,
					Workloads:  SingleWorkload(smokeSpec(), 4),
					Seed:       99,
					CheckStale: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Agg.StaleTranslationUses != 0 {
					t.Errorf("%d stale translation uses", res.Agg.StaleTranslationUses)
				}
				if res.Agg.PageEvictions == 0 && res.Agg.DefragRemaps == 0 {
					t.Errorf("test exercised no remaps; it proves nothing")
				}
				checkRemapAccounting(t, res.Agg)
			})
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		sys, err := New(Options{
			Config:     smokeConfig(),
			Protocol:   "hatric",
			Paging:     hv.BestPolicy(),
			Mode:       hv.ModePaged,
			Workloads:  SingleWorkload(smokeSpec(), 4),
			Seed:       5,
			CheckStale: false,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Runtime != b.Runtime {
		t.Errorf("runs diverged: %d vs %d", a.Runtime, b.Runtime)
	}
	if a.Agg != b.Agg {
		t.Errorf("counters diverged")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) arch.Cycles {
		sys, err := New(Options{
			Config:    smokeConfig(),
			Protocol:  "hatric",
			Paging:    hv.BestPolicy(),
			Mode:      hv.ModePaged,
			Workloads: SingleWorkload(smokeSpec(), 4),
			Seed:      seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Runtime
	}
	if run(1) == run(2) {
		t.Errorf("different seeds produced identical runtimes (suspicious)")
	}
}

func TestMultiprogrammedCompletions(t *testing.T) {
	specs := workload.Mix(0)[:4]
	for i := range specs {
		specs[i] = specs[i].WithRefs(5000)
	}
	cfg := smokeConfig()
	cfg.NumCPUs = 4
	sys, err := New(Options{
		Config:     cfg,
		Protocol:   "hatric",
		Paging:     hv.BestPolicy(),
		Mode:       hv.ModePaged,
		Workloads:  Multiprogrammed(specs),
		Seed:       3,
		CheckStale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for cpu, done := range res.Completion {
		if done == 0 {
			t.Errorf("CPU %d never finished", cpu)
		}
		if done > res.Runtime {
			t.Errorf("completion beyond runtime")
		}
	}
	if res.Agg.StaleTranslationUses != 0 {
		t.Errorf("stale uses in multiprogrammed run")
	}
	if res.Agg.MemRefs != 4*5000 {
		t.Errorf("memrefs = %d", res.Agg.MemRefs)
	}
}

func TestVMCPUsImprecision(t *testing.T) {
	// The Machine view reports every CPU that runs the VM, which is what
	// makes software coherence imprecise for multiprogrammed guests.
	specs := workload.Mix(1)[:3]
	for i := range specs {
		specs[i] = specs[i].WithRefs(1000)
	}
	cfg := smokeConfig()
	cfg.NumCPUs = 3
	sys, err := New(Options{
		Config:    cfg,
		Protocol:  "sw",
		Paging:    hv.BestPolicy(),
		Mode:      hv.ModePaged,
		Workloads: Multiprogrammed(specs),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.VMCPUs(0)); got != 3 {
		t.Errorf("VMCPUs = %d, want all 3", got)
	}
}

func TestBadOptionsRejected(t *testing.T) {
	cfg := smokeConfig()
	cases := []Options{
		{Config: cfg, Protocol: "hatric"}, // no workloads
		{Config: cfg, Protocol: "hatric", Workloads: []AssignedWorkload{
			{Spec: smokeSpec(), CPUs: []int{99}}}}, // CPU out of range
		{Config: cfg, Protocol: "hatric", Workloads: []AssignedWorkload{
			{Spec: smokeSpec(), CPUs: []int{0}},
			{Spec: smokeSpec(), CPUs: []int{0}}}}, // CPU double-booked
	}
	for _, pages := range []int{0, -5} { // footprint not positive
		spec := smokeSpec()
		spec.FootprintPages = pages
		cases = append(cases, Options{Config: cfg, Protocol: "hatric",
			Workloads: SingleWorkload(spec, 1)})
	}
	for i, opts := range cases {
		if _, err := New(opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	// A migration must name its destination: the zero tier is no tier,
	// not a silent promotion to die-stacked memory.
	noDest := Options{Config: cfg, Protocol: "hatric", Workloads: SingleWorkload(smokeSpec(), 1),
		Migrations: []hv.MigrationSpec{{VM: 0, At: 1_000}}}
	if _, err := New(noDest); err == nil || !strings.Contains(err.Error(), "hbm or dram") {
		t.Errorf("migration without Dest: accepted or rejected for another reason: %v", err)
	}
	noCPUs, noHBMBandwidth, negDRAMBandwidth, nanCPI := cfg, cfg, cfg, cfg
	noCPUs.NumCPUs = 0
	noHBMBandwidth.Mem.HBMBytesPerCycle = 0
	negDRAMBandwidth.Mem.DRAMBytesPerCycle = -1
	nanCPI.Cost.BaseCPI = math.NaN()
	for i, badCfg := range []arch.Config{noCPUs, noHBMBandwidth, negDRAMBandwidth, nanCPI} {
		if _, err := New(Options{Config: badCfg, Protocol: "hatric",
			Workloads: SingleWorkload(smokeSpec(), 1)}); err == nil {
			t.Errorf("config %d: invalid config accepted", i)
		}
	}

	// The parallel engine logs each VM id, guest page and system physical
	// address in a 48-bit deferred-event payload: VM ids stop at 255, and
	// the frame count at 2^36. New must refuse both before building
	// anything, so the 2^36-frame machine never allocates its free list.
	tiny := smokeSpec()
	tiny.FootprintPages, tiny.Threads = 1, 1
	manyVMs := make([]VMSpec, 257)
	for v := range manyVMs {
		manyVMs[v] = VMSpec{Workloads: []AssignedWorkload{{Spec: tiny, CPUs: []int{v}}}}
	}
	hugeCfg := cfg
	hugeCfg.Mem.DRAMFrames = 1 << 36
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"257 VMs", Options{Config: cfg, Protocol: "hatric", VMs: manyVMs,
			VCPUsPerCPU: (len(manyVMs) + cfg.NumCPUs - 1) / cfg.NumCPUs, ParallelCPUs: 2}},
		{"2^36+ frames", Options{Config: hugeCfg, Protocol: "hatric",
			Workloads: SingleWorkload(smokeSpec(), 1), ParallelCPUs: 1}},
	} {
		if _, err := New(c.opts); err == nil || !strings.Contains(err.Error(), "deferred-event payload") {
			t.Errorf("%s: parallel run accepted or rejected for another reason: %v", c.name, err)
		}
	}
}

// TestUnknownProtocolRejected: a protocol name core does not know, the zero
// value included, fails sim.New with an error naming the valid protocols
// instead of panicking.
func TestUnknownProtocolRejected(t *testing.T) {
	for _, name := range []string{"", "HATRIC"} {
		t.Run(fmt.Sprintf("%q", name), func(t *testing.T) {
			sys, err := New(Options{Config: smokeConfig(), Protocol: name,
				Workloads: SingleWorkload(smokeSpec(), 1)})
			if err == nil || sys != nil {
				t.Fatalf("New accepted protocol %q", name)
			}
			if !strings.Contains(err.Error(), "sw, hatric, hatric-pf, unitd and ideal") {
				t.Errorf("error %q does not list the valid protocols", err)
			}
		})
	}
}

func TestProtocolEventSignatures(t *testing.T) {
	// Each protocol leaves a distinctive event signature.
	results := map[string]*Result{}
	for _, p := range []string{"sw", "hatric", "unitd", "ideal"} {
		results[p] = runSmoke(t, p, hv.ModePaged)
	}
	if results["sw"].Agg.TLBFlushes == 0 {
		t.Errorf("sw must flush TLBs")
	}
	if results["hatric"].Agg.TLBFlushes != 0 {
		t.Errorf("hatric must not flush TLBs")
	}
	if results["hatric"].Agg.CoTagInvalidations == 0 {
		t.Errorf("hatric must invalidate by co-tag")
	}
	if results["unitd"].Agg.CAMInvalidations == 0 {
		t.Errorf("unitd must invalidate through the CAM")
	}
	if results["unitd"].Agg.MMUCacheFlushes == 0 {
		t.Errorf("unitd must flush the structures it cannot keep coherent")
	}
	if results["ideal"].Agg.IPIs != 0 || results["ideal"].Agg.TLBFlushes != 0 {
		t.Errorf("ideal pays for nothing")
	}
	// VM exits: sw has fault exits plus shootdown exits; hardware
	// protocols only fault exits.
	if results["sw"].Agg.VMExits <= results["hatric"].Agg.VMExits {
		t.Errorf("sw should suffer more VM exits: %d vs %d",
			results["sw"].Agg.VMExits, results["hatric"].Agg.VMExits)
	}
}

// TestPrefetchExtensionReducesWalks: hatric-pf (Sec. 4.4 future work)
// turns remap invalidations into in-place updates, so re-touched pages hit
// the TLB instead of walking. Updates apply to present-to-present remaps
// (defragmentation moves); unmaps still invalidate.
func TestPrefetchExtensionReducesWalks(t *testing.T) {
	run := func(protocol string) *Result {
		sys, err := New(Options{
			Config:     smokeConfig(),
			Protocol:   protocol,
			Paging:     hv.PagingConfig{Policy: "lru", Daemon: true, Prefetch: 2, DefragEvery: 2000},
			Mode:       hv.ModePaged,
			Workloads:  SingleWorkload(smokeSpec(), 4),
			Seed:       42,
			CheckStale: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run("hatric")
	pf := run("hatric-pf")
	if pf.Agg.StaleTranslationUses != 0 {
		t.Fatalf("hatric-pf used %d stale translations", pf.Agg.StaleTranslationUses)
	}
	if pf.Agg.PrefetchUpdates == 0 {
		t.Fatalf("no prefetch updates happened")
	}
	if pf.Agg.Walks > base.Agg.Walks {
		t.Errorf("hatric-pf walks (%d) exceed hatric's (%d)", pf.Agg.Walks, base.Agg.Walks)
	}
	if pf.Runtime > base.Runtime+base.Runtime/50 {
		t.Errorf("hatric-pf (%d) notably slower than hatric (%d)", pf.Runtime, base.Runtime)
	}
}

func TestEnergyPopulated(t *testing.T) {
	res := runSmoke(t, "hatric", hv.ModePaged)
	if res.Energy.TotalPJ <= 0 || res.Energy.StaticPJ <= 0 {
		t.Errorf("energy not computed: %+v", res.Energy)
	}
	if res.HBMBytes == 0 || res.DRAMBytes == 0 {
		t.Errorf("device byte totals missing")
	}
}
