// Command hatricsim runs a single simulation configuration and prints a
// detailed event summary: the tool for exploring one workload under one
// translation-coherence protocol.
//
// Example:
//
//	hatricsim -workload data_caching -protocol hatric -threads 16 -mode paged
//
// With -vms N the machine runs N consolidated VMs, each executing the
// workload on its own -threads CPUs, and reports a per-VM breakdown. With
// -vcpus K > 1 the -vms x -threads vCPUs time-share threads*vms/K
// physical CPUs under the round-robin scheduler. With -parallel N the
// epoch-barrier parallel engine shards the physical CPUs across N worker
// goroutines (see README, "Parallel execution").
//
// Everything else a run can vary is a field of sim.Options, set by a JSON
// scenario file overlaid on the options the flags build (see
// sim.DecodeScenario): a field the file names replaces the flag-built
// value, a nested object or an existing VM entry merges into it, enums
// are written by name ("inf-hbm", "dram"), and unknown fields are errors.
// A scenario that lists VMs must list exactly -vms of them. Memory is
// sized for the final options.
//
// Example (a protected VM beside a paging neighbor; the file holds
// {"VMs":[{"QuotaShare":0.5},{}]}):
//
//	hatricsim -vms 2 -threads 4 -protocol sw -scenario cmd/hatricsim/scenarios/quota.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"hatric/internal/arch"
	"hatric/internal/hv"
	"hatric/internal/sim"
	"hatric/internal/stats"
	"hatric/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "canneal", "workload name (see internal/workload presets)")
		protocol = flag.String("protocol", "hatric", "translation coherence: sw, hatric, hatric-pf, unitd, ideal")
		threads  = flag.Int("threads", 16, "vCPU/thread count per VM")
		vms      = flag.Int("vms", 1, "number of VMs, each running the workload on its own CPUs")
		vcpus    = flag.Int("vcpus", 1, "vCPUs per physical CPU (overcommit ratio; >1 time-slices)")
		refs     = flag.Uint64("refs", 0, "override per-thread references")
		seed     = flag.Uint64("seed", 1, "workload seed")
		check    = flag.Bool("check", true, "audit stale translations")
		xen      = flag.Bool("xen", false, "use the Xen cost profile")
		parallel = flag.Int("parallel", 0, "worker goroutines sharding the physical CPUs (0 = serial engine; see README, Parallel execution)")
		scenario = flag.String("scenario", "", "JSON file of sim.Options fields overlaid on the options the flags build")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	var mode hv.PlacementMode
	flag.TextVar(&mode, "mode", hv.ModePaged, "placement: paged, no-hbm, inf-hbm")
	flag.Parse()

	spec, err := workload.ByName(*name)
	if err != nil {
		fatal(err)
	}
	if *refs > 0 {
		spec = spec.WithRefs(*refs)
	}
	if *vms < 1 {
		fatal(fmt.Errorf("need at least one VM, got %d", *vms))
	}
	if *vcpus < 1 {
		fatal(fmt.Errorf("need at least one vCPU per CPU, got %d", *vcpus))
	}
	if (*threads**vms)%*vcpus != 0 {
		fatal(fmt.Errorf("total vCPUs (%d) must divide by -vcpus %d", *threads**vms, *vcpus))
	}
	cfg := arch.DefaultConfig()
	cfg.NumCPUs = *threads * *vms / *vcpus
	if *xen {
		cfg.Cost = arch.XenCostModel()
	}
	opts := sim.Options{
		Config:      cfg,
		Protocol:    *protocol,
		Paging:      hv.BestPolicy(),
		Mode:        mode,
		Seed:        *seed,
		CheckStale:  *check,
		VCPUsPerCPU: *vcpus,
		// Validation (negative counts, oversubscription against the
		// machine's physical CPUs) lives in sim.New; its errors surface
		// through fatal below.
		ParallelCPUs: *parallel,
	}
	// Each VM runs its own instance of the workload on its own slice of
	// physical CPUs — the consolidation setup (one VM is the paper's).
	for v := 0; v < *vms; v++ {
		cpus := make([]int, *threads)
		for i := range cpus {
			cpus[i] = v**threads + i
		}
		opts.VMs = append(opts.VMs, sim.VMSpec{
			Workloads: []sim.AssignedWorkload{{Spec: spec, CPUs: cpus}}})
	}
	if *scenario != "" {
		if err := overlay(&opts, *scenario); err != nil {
			fatal(err)
		}
		// encoding/json sets a slice to the length of its array, so a
		// short VMs array would silently drop VMs.
		if len(opts.VMs) != *vms {
			fatal(fmt.Errorf("scenario %s lists %d VMs; -vms is %d", *scenario, len(opts.VMs), *vms))
		}
	}
	// Size memory for the final VMs. A promotion into die-stacked memory
	// needs room for the whole VM, so it sizes as inf-hbm.
	sizeMode := opts.Mode
	for _, m := range opts.Migrations {
		if m.Dest == arch.TierHBM {
			sizeMode = hv.ModeInfHBM
		}
	}
	sim.SizeConfigVMs(&opts.Config, opts.VMs, sizeMode)

	sys, err := sim.New(opts)
	if err != nil {
		fatal(err)
	}
	// Profile only the simulation itself, not flag parsing and setup, so
	// perf work on the hot path needs no bench-harness detour.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	res, err := sys.Run()
	if err != nil {
		fatal(err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // flush accurate allocation stats
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
	printResult(opts.VMs[0].Workloads[0].Spec.Name, res)
	if opts.VCPUsPerCPU > 1 {
		printScheduler(res)
	}
	if len(opts.VMs) > 1 {
		printPerVM(res)
	}
	for _, vm := range opts.VMs {
		if vm.Mode != nil || vm.Paging != nil || vm.QuotaFrames != 0 || vm.QuotaShare != 0 ||
			vm.QuotaWeight != 0 || vm.Weight != 0 {
			printQoS(res)
			break
		}
	}
	printMigrations(res)
	printStorms(res)
}

// overlay decodes the scenario file at path onto opts.
func overlay(opts *sim.Options, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sim.DecodeScenario(f, opts); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// printStorms summarizes the memory-management storm sources: the KSM
// scanner's end-of-run sharing state and each balloon's reclaim outcome.
func printStorms(res *sim.Result) {
	if res.KSM != nil {
		k := res.KSM
		fmt.Printf("\nksm: %d merges, %d cow breaks; %d shared frames backing %d mappings (%d content classes)\n",
			k.Merges, k.Breaks, k.SharedFrames, k.SharedMappings, k.Classes)
	}
	for _, b := range res.Balloons {
		fmt.Printf("\nballoon: VM %d reclaimed %d of %d frames (shortfall %d), cycles %d..%d\n",
			b.VM, b.Reclaimed, b.Target, b.Shortfall, uint64(b.Started), uint64(b.Finished))
		if b.Returned > 0 {
			fmt.Printf("balloon: deflation returned %d frames to VM %d\n", b.Returned, b.VM)
		}
	}
}

// printQoS summarizes each VM's die-stacked share accounting.
func printQoS(res *sim.Result) {
	t := stats.NewTable("per-VM QoS", "vm", "reserved", "fair share", "resident",
		"evictions", "stolen by others", "frozen steals")
	for v := range res.QoS {
		q := &res.QoS[v]
		t.AddRow(v, q.ReservedFrames, q.ShareFrames, q.ResidentFrames,
			q.Evictions, q.StolenFrames, q.FrozenSteals)
	}
	fmt.Print(t)
}

// printMigrations summarizes each live migration's convergence and cost.
func printMigrations(res *sim.Result) {
	for _, rep := range res.Migrations {
		where := "local"
		if rep.Remote {
			where = "remote link"
		}
		fmt.Printf("\nmigration: VM %d -> %v (%s), cycles %d..%d, downtime %d cycles, %d pages copied (%d re-dirtied, %d in final freeze)\n",
			rep.VM, rep.Dest, where, uint64(rep.Started), uint64(rep.Finished),
			uint64(rep.Downtime), rep.PagesCopied, rep.Redirtied, rep.FinalDirty)
		if rep.LinkRetries > 0 || rep.EarlyStopCopy {
			early := ""
			if rep.EarlyStopCopy {
				early = "; pre-copy stopped converging, degraded to early stop-and-copy"
			}
			fmt.Printf("migration: %d link outages cost %d backoff cycles%s\n",
				rep.LinkRetries, uint64(rep.OutageCycles), early)
		}
		if rep.LastError != "" {
			fmt.Printf("migration: last error: %s\n", rep.LastError)
		}
		t := stats.NewTable("", "round", "pages", "redirtied", "cycles")
		for i, rd := range rep.Rounds {
			name := fmt.Sprintf("%d", i+1)
			if rd.Final {
				name = "stop-and-copy"
			}
			t.AddRow(name, rd.Pages, rd.Redirtied, uint64(rd.Cycles))
		}
		fmt.Print(t)
	}
}

// printScheduler summarizes the overcommit scheduler's activity and what
// descheduled targets cost software shootdowns.
func printScheduler(res *sim.Result) {
	a := &res.Agg
	t := stats.NewTable("scheduler", "event", "count")
	t.AddRow("vcpu switches", a.VCPUSwitches)
	t.AddRow("switch flushes", a.SwitchFlushes)
	t.AddRow("remaps initiated", a.RemapsInitiated)
	t.AddRow("shootdown cycles", a.ShootdownCycles)
	t.AddRow("desched stall cycles", a.DescheduledStallCycles)
	fmt.Print(t)
}

// printPerVM summarizes each VM's runtime and coherence bill.
func printPerVM(res *sim.Result) {
	t := stats.NewTable("per-VM breakdown", "vm", "finish", "faults", "evictions",
		"vm exits", "tlb flushes", "cotag invs", "cross-vm filtered")
	for v := range res.PerVM {
		c := &res.PerVM[v]
		t.AddRow(v, uint64(res.VMFinish(v)), c.PageFaults, c.PageEvictions, c.VMExits,
			c.TLBFlushes, c.CoTagInvalidations, c.CrossVMFiltered)
	}
	fmt.Print(t)
}

func printResult(name string, res *sim.Result) {
	a := &res.Agg
	fmt.Printf("workload=%s protocol=%s\n", name, res.Protocol)
	fmt.Printf("runtime           %d cycles\n", res.Runtime)
	fmt.Printf("cycles/ref        %.2f\n", float64(res.Runtime)/float64(a.MemRefs/uint64(len(res.Completion))))
	t := stats.NewTable("", "event", "count")
	t.AddRow("memrefs", a.MemRefs)
	t.AddRow("walks", a.Walks)
	t.AddRow("walk refs", a.WalkRefs)
	t.AddRow("l1tlb miss", a.L1TLBMisses)
	t.AddRow("l2tlb miss", a.L2TLBMisses)
	t.AddRow("ntlb miss", a.NTLBMisses)
	t.AddRow("mmu$ miss", a.MMUCacheMisses)
	t.AddRow("page faults", a.PageFaults)
	t.AddRow("migrations", a.PageMigrations)
	t.AddRow("evictions", a.PageEvictions)
	t.AddRow("prefetches", a.PagePrefetches)
	t.AddRow("defrag remaps", a.DefragRemaps)
	t.AddRow("ksm merges", a.KSMMerges)
	t.AddRow("cow breaks", a.KSMBreaks)
	t.AddRow("balloon reclaims", a.BalloonReclaims)
	t.AddRow("compaction moves", a.CompactionMoves)
	t.AddRow("vm exits", a.VMExits)
	t.AddRow("ipis", a.IPIs)
	t.AddRow("tlb flushes", a.TLBFlushes)
	t.AddRow("tlb entries lost", a.TLBEntriesLost)
	t.AddRow("mmu/ntlb lost", a.MMUEntriesLost+a.NTLBEntriesLost)
	t.AddRow("cotag invalidations", a.CoTagInvalidations)
	t.AddRow("selective invs", a.SelectiveInvalidations)
	t.AddRow("spurious invs", a.SpuriousInvalidations)
	t.AddRow("dir back-invals", a.DirBackInvalidations)
	t.AddRow("llc misses", a.LLCMisses)
	t.AddRow("hbm bytes", res.HBMBytes)
	t.AddRow("dram bytes", res.DRAMBytes)
	t.AddRow("stale uses", a.StaleTranslationUses)
	// Fault-injection accounting, shown only when the injector fired so the
	// default report stays unchanged.
	if a.IPIsLost+a.ShootdownRetries+a.AcksLost+a.RelayReissues+
		a.MigrationLinkRetries+a.BalloonReturns > 0 {
		t.AddRow("ipis lost", a.IPIsLost)
		t.AddRow("shootdown retries", a.ShootdownRetries)
		t.AddRow("acks lost", a.AcksLost)
		t.AddRow("relay reissues", a.RelayReissues)
		t.AddRow("link retries", a.MigrationLinkRetries)
		t.AddRow("balloon returns", a.BalloonReturns)
	}
	fmt.Print(t)
	fmt.Printf("energy            %.4g pJ (static %.4g, translation %.4g, cotag %.4g, cam %.4g)\n",
		res.Energy.TotalPJ, res.Energy.StaticPJ, res.Energy.TranslationPJ, res.Energy.CoTagPJ, res.Energy.CAMPJ)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hatricsim:", err)
	os.Exit(1)
}
