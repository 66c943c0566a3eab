// Command hatricsim runs a single simulation configuration and prints a
// detailed event summary: the tool for exploring one workload under one
// translation-coherence protocol.
//
// Example:
//
//	hatricsim -workload data_caching -protocol hatric -threads 16 -mode paged
//
// With -vms N the machine runs N consolidated VMs, each executing the
// workload on its own -threads CPUs, and reports a per-VM breakdown.
//
// With -vcpus K > 1 the machine is overcommitted: the -vms x -threads
// vCPUs time-share threads*vms/K physical CPUs under a round-robin
// scheduler with a -quantum cycle time slice. VPID-tagged translation
// structures keep the VMs' entries apart across world switches;
// -flush-on-switch restores the no-VPID flush baseline.
//
// With -parallel N the epoch-barrier parallel engine shards the physical
// CPUs across N worker goroutines (-epoch overrides the epoch length; see
// README, "Parallel execution", for the timing model it implies).
//
// Per-VM QoS tiers: -vm-mode, -vm-quota, and -vm-weight override the
// machine-wide placement, reserve die-stacked frames (absolute, or a
// share like 25%), and weight scheduler quanta per VM — comma-separated,
// entry i configuring VM i, empty entries inheriting the machine-wide
// flags. A per-VM QoS table reports each VM's reservation, fair share,
// residency, and the frames other VMs' pressure stole from it.
//
// Example (a protected VM beside a paging neighbor):
//
//	hatricsim -vms 2 -threads 4 -protocol sw -vm-quota 50%,0
//
// Deterministic fault injection: -fault-ipi-loss, -fault-ack-loss, and
// -fault-link-outage drop shootdown IPIs, invalidation acks, and
// migration-link pump quanta with the given probabilities. Recovery —
// timeouts, bounded retries, exponential backoff — is charged in cycles,
// and every loss decision is a pure function of (seed, site, sequence), so
// fault-injected runs replay bit-identically (see internal/faults).
//
// Example (a migration storm over a lossy fabric):
//
//	hatricsim -protocol sw -migrate 30000 -fault-ipi-loss 0.2 -fault-link-outage 0.1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"hatric/internal/arch"
	"hatric/internal/faults"
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
		modeStr  = flag.String("mode", "paged", "placement: paged, no-hbm, inf-hbm")
		policy   = flag.String("policy", "lru", "eviction policy: lru, fifo")
		daemon   = flag.Bool("daemon", true, "enable migration daemon")
		prefetch = flag.Int("prefetch", 4, "pages prefetched per fault")
		defrag   = flag.Uint64("defrag", 0, "defragmentation remap period (0 = off)")
		refs     = flag.Uint64("refs", 0, "override per-thread references")
		cotag    = flag.Int("cotag", 2, "co-tag bytes (1-3)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		check    = flag.Bool("check", true, "audit stale translations")
		xen      = flag.Bool("xen", false, "use the Xen cost profile")

		parallel = flag.Int("parallel", 0, "worker goroutines sharding the physical CPUs (0 = serial engine; see README, Parallel execution)")
		epochLen = flag.Uint64("epoch", 0, "parallel epoch length in cycles (0 = default)")

		vcpus   = flag.Int("vcpus", 1, "vCPUs per physical CPU (overcommit ratio; >1 time-slices)")
		quantum = flag.Uint64("quantum", 0, "scheduler time slice in cycles (0 = default)")
		flushsw = flag.Bool("flush-on-switch", false, "flush translation structures at cross-VM switches (no-VPID baseline)")

		vmModes  = flag.String("vm-mode", "", "per-VM placement overrides, comma-separated (paged|no-hbm|inf-hbm; empty entry keeps -mode)")
		vmQuotas = flag.String("vm-quota", "", "per-VM die-stacked reservations, comma-separated (frames, or a share like 25%)")
		vmWeight = flag.String("vm-weight", "", "per-VM scheduler quantum weights, comma-separated (empty entry = 1)")

		ksmEvery   = flag.Uint64("ksm", 0, "KSM dedup scan period in refs per CPU (0 = off)")
		ksmShare   = flag.Float64("ksm-share", 0.5, "fraction of pages with duplicated content")
		ksmBreak   = flag.Float64("ksm-break", 0.1, "probability a write to a shared page breaks the sharing")
		ksmClasses = flag.Int("ksm-classes", 0, "distinct duplicated contents (0 = default)")

		balloonSize    = flag.Int("balloon", 0, "inflate a balloon reclaiming this many frames (0 = off)")
		balloonAt      = flag.Uint64("balloon-at", 0, "inflate the balloon at this cycle")
		balloonVM      = flag.Int("balloon-vm", 0, "VM whose balloon inflates")
		balloonDeflate = flag.Uint64("balloon-deflate-at", 0, "actively deflate the balloon at this cycle (0 = implicit deflation via guest re-faults)")

		compactEvery  = flag.Uint64("compact", 0, "compaction window period in refs per CPU (0 = off)")
		compactWindow = flag.Int("compact-window", 0, "pages relocated per compaction window (0 = default)")

		migrateAt    = flag.Uint64("migrate", 0, "live-migrate a VM at this cycle (0 = off)")
		migrateVM    = flag.Int("migrate-vm", 0, "VM to live-migrate")
		migrateDest  = flag.String("migrate-dest", "dram", "migration destination: dram, hbm")
		migrateBurst = flag.Int("migrate-burst", 0, "remaps per migration quantum (0 = default)")
		migrateLink  = flag.Float64("migrate-link-bw", 0, "remote-host link bytes/cycle (0 = local tiers only)")

		faultIPILoss  = flag.Float64("fault-ipi-loss", 0, "probability a shootdown IPI is lost in delivery (0 = off)")
		faultAckLoss  = flag.Float64("fault-ack-loss", 0, "probability an invalidation ack is lost (0 = off)")
		faultLinkLoss = flag.Float64("fault-link-outage", 0, "probability a migration pump quantum finds the link down (0 = off)")
		faultIPITO    = flag.Uint64("fault-ipi-timeout", 0, "cycles before a lost IPI is re-sent (0 = default)")
		faultAckTO    = flag.Uint64("fault-ack-timeout", 0, "cycles before a lost ack's invalidation is reissued (0 = default)")
		faultRetries  = flag.Int("fault-retries", 0, "max re-sends per shootdown IPI (0 = default)")
		faultSeed     = flag.Uint64("fault-seed", 0, "fault-injection seed (0 = the run seed)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	spec, err := workload.ByName(*name)
	if err != nil {
		fatal(err)
	}
	if *refs > 0 {
		spec = spec.WithRefs(*refs)
	}

	mode, err := parseMode(*modeStr)
	if err != nil {
		fatal(err)
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
	cfg.TLB.CoTagBytes = *cotag
	if *xen {
		cfg.Cost = arch.XenCostModel()
	}
	sim.SizeConfig(&cfg, spec.FootprintPages**vms, mode)

	opts := sim.Options{
		Config:   cfg,
		Protocol: *protocol,
		Paging: hv.PagingConfig{
			Policy:      *policy,
			Daemon:      *daemon,
			Prefetch:    *prefetch,
			DefragEvery: *defrag,
		},
		Mode:            mode,
		Seed:            *seed,
		CheckStale:      *check,
		VCPUsPerCPU:     *vcpus,
		SchedQuantum:    arch.Cycles(*quantum),
		FlushOnVMSwitch: *flushsw,
		// Validation (negative counts, oversubscription against the
		// machine's physical CPUs) lives in sim.New; its errors surface
		// through fatal below.
		ParallelCPUs: *parallel,
		EpochCycles:  arch.Cycles(*epochLen),
	}
	if *ksmEvery > 0 {
		opts.KSM = hv.KSMConfig{
			ScanEvery:     *ksmEvery,
			SharingFactor: *ksmShare,
			BreakRate:     *ksmBreak,
			ClassCount:    *ksmClasses,
		}
	}
	if *balloonSize > 0 {
		opts.Balloons = []hv.BalloonSpec{{
			VM: *balloonVM, At: arch.Cycles(*balloonAt), Frames: *balloonSize,
			DeflateAt: arch.Cycles(*balloonDeflate),
		}}
	}
	if *faultIPILoss > 0 || *faultAckLoss > 0 || *faultLinkLoss > 0 {
		opts.Faults = faults.Config{
			Seed:             *faultSeed,
			IPILossRate:      *faultIPILoss,
			AckLossRate:      *faultAckLoss,
			LinkOutageRate:   *faultLinkLoss,
			IPITimeoutCycles: arch.Cycles(*faultIPITO),
			AckTimeoutCycles: arch.Cycles(*faultAckTO),
			MaxRetries:       *faultRetries,
		}
	}
	if *compactEvery > 0 {
		opts.Compaction = hv.CompactionConfig{
			Every:       *compactEvery,
			WindowPages: *compactWindow,
		}
	}
	if *migrateAt > 0 {
		var dest arch.MemTier
		switch *migrateDest {
		case "dram":
			dest = arch.TierDRAM
		case "hbm":
			dest = arch.TierHBM
		default:
			fatal(fmt.Errorf("unknown migration destination %q", *migrateDest))
		}
		opts.Migrations = []hv.MigrationSpec{{
			VM: *migrateVM, At: arch.Cycles(*migrateAt), Dest: dest,
			BurstPages: *migrateBurst, LinkBytesPerCycle: *migrateLink,
		}}
		if dest == arch.TierHBM {
			// A promotion needs die-stacked room for the whole VM.
			sim.SizeConfig(&cfg, spec.FootprintPages**vms, hv.ModeInfHBM)
			opts.Config = cfg
		}
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
	if *vmWeight != "" && *vcpus <= 1 {
		fatal(fmt.Errorf("-vm-weight needs the time-sliced scheduler; pass -vcpus > 1"))
	}
	qosFlags := *vmModes != "" || *vmQuotas != "" || *vmWeight != ""
	if qosFlags {
		if err := applyVMFlags(opts.VMs, *vmModes, *vmQuotas, *vmWeight); err != nil {
			fatal(err)
		}
		// Per-VM pinned (inf-hbm) footprints and absolute reservations
		// change what the die-stacked tier must hold; re-size for them.
		sim.SizeConfigVMs(&cfg, opts.VMs, mode)
		opts.Config = cfg
	}
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
	printResult(spec, *protocol, res)
	if *vcpus > 1 {
		printScheduler(res)
	}
	if *vms > 1 {
		printPerVM(res)
	}
	if qosFlags {
		printQoS(res)
	}
	printMigrations(res)
	printStorms(res)
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

// parseMode maps a placement-mode name to the hv constant.
func parseMode(name string) (hv.PlacementMode, error) {
	switch name {
	case "paged":
		return hv.ModePaged, nil
	case "no-hbm":
		return hv.ModeNoHBM, nil
	case "inf-hbm":
		return hv.ModeInfHBM, nil
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

// splitPerVM splits a comma-separated per-VM flag value, padding missing
// trailing entries with "" (inherit).
func splitPerVM(s, flagName string, n int) ([]string, error) {
	out := make([]string, n)
	if s == "" {
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) > n {
		return nil, fmt.Errorf("%s lists %d entries for %d VMs", flagName, len(parts), n)
	}
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
	}
	return out, nil
}

// applyVMFlags folds the per-VM QoS flags into the machine description:
// entry i configures VM i, empty entries inherit the machine-wide flags.
func applyVMFlags(vms []sim.VMSpec, modes, quotas, weights string) error {
	ms, err := splitPerVM(modes, "-vm-mode", len(vms))
	if err != nil {
		return err
	}
	qs, err := splitPerVM(quotas, "-vm-quota", len(vms))
	if err != nil {
		return err
	}
	ws, err := splitPerVM(weights, "-vm-weight", len(vms))
	if err != nil {
		return err
	}
	for v := range vms {
		if ms[v] != "" {
			m, err := parseMode(ms[v])
			if err != nil {
				return fmt.Errorf("-vm-mode entry %d: %w", v, err)
			}
			vms[v].Mode = &m
		}
		if qs[v] != "" {
			if pct, ok := strings.CutSuffix(qs[v], "%"); ok {
				f, err := strconv.ParseFloat(pct, 64)
				if err != nil {
					return fmt.Errorf("-vm-quota entry %d: bad share %q", v, qs[v])
				}
				vms[v].QuotaShare = f / 100
			} else {
				frames, err := strconv.Atoi(qs[v])
				if err != nil {
					return fmt.Errorf("-vm-quota entry %d: bad frame count %q", v, qs[v])
				}
				vms[v].QuotaFrames = frames
			}
		}
		if ws[v] != "" {
			w, err := strconv.Atoi(ws[v])
			if err != nil {
				return fmt.Errorf("-vm-weight entry %d: bad weight %q", v, ws[v])
			}
			vms[v].Weight = w
		}
	}
	return nil
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

func printResult(spec workload.Spec, protocol string, res *sim.Result) {
	a := &res.Agg
	fmt.Printf("workload=%s protocol=%s\n", spec.Name, protocol)
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
