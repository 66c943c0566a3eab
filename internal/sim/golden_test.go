package sim

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hatric/internal/arch"
	"hatric/internal/hv"
	"hatric/internal/stats"
)

// The golden-counter tests freeze the simulator's observable outputs at
// fixed seeds. The values they hash were first recorded from the
// map-and-scan implementation (before the allocation-free flattening of
// the directory, caches, translation structures, scheduler, and page-table
// caches) and must never drift: a changed fingerprint means the refactored
// hot path is no longer bit-identical to the modeled machine it replaced.
//
// Both sets (goldenWant here, goldenParallelWant in parallel_test.go) were
// regenerated once, for a format change alone, when fpFields replaced %+v
// and its per-struct compatibility formatters. Just before the switch both
// sets still passed under the old formatter, and the switch touched only
// this package's test files, so the new hashes encode the values the old
// ones did.
//
// Regenerate with GOLDEN_UPDATE=1 go test -run TestGoldenCounters -v ./internal/sim
// only when an intentional modeling change lands, and say so in the commit.

// fpFields formats a struct as {Name:value ...} over its nonzero fields in
// declaration order, each value as %+v prints it. A field that is zero
// hashes nothing, so a field added to a struct changes no fingerprint of a
// scenario that leaves it zero.
func fpFields(v any) string {
	rv := reflect.ValueOf(v)
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.IsZero() {
			continue
		}
		if b.Len() > 1 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%+v", rv.Type().Field(i).Name, f)
	}
	b.WriteByte('}')
	return b.String()
}

// goldenFingerprint folds everything observable about a Result into one
// hash: runtime, per-CPU and aggregate counters, per-VM attribution,
// migration reports, QoS accounting, and (when present) balloon and KSM
// reports.
func goldenFingerprint(res *Result) uint64 {
	h := fnv.New64a()
	put := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
	}
	put("runtime=%d\n", uint64(res.Runtime))
	put("agg=%s\n", fpFields(res.Agg))
	for i := range res.PerCPU {
		put("cpu%d=%s done=%d\n", i, fpFields(res.PerCPU[i]), uint64(res.Completion[i]))
	}
	for v := range res.PerVM {
		put("vm%d=%s done=%d\n", v, fpFields(res.PerVM[v]), uint64(res.VMCompletion[v]))
	}
	put("bytes=%d,%d\n", res.HBMBytes, res.DRAMBytes)
	for _, m := range res.Migrations {
		put("mig=%s\n", fpFields(m))
	}
	for _, q := range res.QoS {
		put("qos=%s\n", fpFields(q))
	}
	for _, b := range res.Balloons {
		put("balloon=%s\n", fpFields(b))
	}
	if res.KSM != nil {
		put("ksm=%s\n", fpFields(*res.KSM))
	}
	return h.Sum64()
}

// checkRemapAccounting asserts the hypervisor's one-path accounting:
// every remap source (eviction, balloons included; defrag; KSM merge and
// break; compaction; live-migration copy) initiates exactly one remap,
// and every nested-PTE store is either such a remap or a fault-in. A
// remap site that bypassed the shared store-and-shootdown path would
// break one of the two sums.
func checkRemapAccounting(t *testing.T, a stats.Counters) {
	t.Helper()
	sources := a.PageEvictions + a.DefragRemaps + a.KSMMerges + a.KSMBreaks +
		a.CompactionMoves + a.MigrationPagesCopied
	if a.RemapsInitiated != sources {
		t.Errorf("RemapsInitiated = %d, want %d: evictions %d + defrag %d + KSM merges %d + KSM breaks %d + compaction %d + migration copies %d",
			a.RemapsInitiated, sources, a.PageEvictions, a.DefragRemaps, a.KSMMerges,
			a.KSMBreaks, a.CompactionMoves, a.MigrationPagesCopied)
	}
	if want := a.RemapsInitiated + a.PageMigrations; a.PTEWrites != want {
		t.Errorf("PTEWrites = %d, want remaps %d + fault-ins %d = %d",
			a.PTEWrites, a.RemapsInitiated, a.PageMigrations, want)
	}
}

// TestFingerprintCoversEveryField: every Counters field reaches the
// fingerprint under its own name, and a zero field adds nothing.
func TestFingerprintCoversEveryField(t *testing.T) {
	if got := fpFields(stats.Counters{}); got != "{}" {
		t.Errorf("zero Counters formats to %s, want {}", got)
	}
	typ := reflect.TypeOf(stats.Counters{})
	for i := 0; i < typ.NumField(); i++ {
		var c stats.Counters
		reflect.ValueOf(&c).Elem().Field(i).SetUint(uint64(i + 1))
		want := fmt.Sprintf("{%s:%d}", typ.Field(i).Name, i+1)
		if got := fpFields(c); got != want {
			t.Errorf("field %d formats to %s, want %s", i, got, want)
		}
	}
}

// goldenScenarios are the machine shapes the determinism promise covers:
// pinned single-VM paging, a consolidated multi-VM server, a live
// migration, vCPU overcommit, and per-VM QoS tiers.
func goldenScenarios() map[string]func(protocol string) Options {
	spec := smokeSpec()
	spec.Refs = 8_000
	small := spec
	small.Threads = 2
	return map[string]func(protocol string) Options{
		"pinned": func(protocol string) Options {
			return Options{
				Config:    smokeConfig(),
				Protocol:  protocol,
				Paging:    hv.PagingConfig{Policy: "lru"},
				Mode:      hv.ModePaged,
				Workloads: SingleWorkload(spec, 4),
				Seed:      7,
			}
		},
		"multivm": func(protocol string) Options {
			return Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "fifo"},
				Mode:     hv.ModePaged,
				VMs: []VMSpec{
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{0, 1}}}},
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{2, 3}}}},
				},
				Seed: 11,
			}
		},
		"migration": func(protocol string) Options {
			return migrationOpts(protocol, small, small,
				hv.MigrationSpec{VM: 0, At: 40_000, Dest: arch.TierDRAM, BurstPages: 8})
		},
		"overcommit": func(protocol string) Options {
			cfg := smokeConfig()
			cfg.Mem.HBMFrames = 896
			return Options{
				Config:      cfg,
				Protocol:    protocol,
				Paging:      hv.PagingConfig{Policy: "lru"},
				Mode:        hv.ModePaged,
				VMs:         StripedVMs(small.PerThread(1), cfg.NumCPUs, 2),
				VCPUsPerCPU: 2,
				Seed:        5,
			}
		},
		"qos": func(protocol string) Options {
			vms := []VMSpec{
				{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{0, 1}}},
					QuotaFrames: 200},
				{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{2, 3}}},
					QuotaWeight: 2},
			}
			return Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "lru"},
				Mode:     hv.ModePaged,
				VMs:      vms,
				Seed:     9,
			}
		},
		// The three scenarios below pin the batch-boundary edge cases of the
		// batched reference pipeline: a one-cycle scheduler quantum (every
		// reference is a scheduling decision, so batches degenerate to single
		// references), per-thread reference counts that are not a multiple of
		// any power-of-two slab size (the final refill is a partial batch),
		// and a live migration firing mid-run under the vCPU scheduler (remap
		// bursts and dirty tracking interleave with partially consumed
		// slabs). Their values were first recorded from the per-reference
		// Stream.Next pipeline before batching existed.
		"quantum1": func(protocol string) Options {
			cfg := smokeConfig()
			cfg.Mem.HBMFrames = 896
			return Options{
				Config:       cfg,
				Protocol:     protocol,
				Paging:       hv.PagingConfig{Policy: "lru"},
				Mode:         hv.ModePaged,
				VMs:          StripedVMs(small.PerThread(1), cfg.NumCPUs, 2),
				VCPUsPerCPU:  2,
				SchedQuantum: 1,
				Seed:         13,
			}
		},
		"oddrefs": func(protocol string) Options {
			odd := spec
			odd.Refs = 7_919 // prime: never divisible by any slab size
			uneven := small
			uneven.Refs = 4_001 // staggered completion mid-batch
			return Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "lru"},
				Mode:     hv.ModePaged,
				VMs: []VMSpec{
					{Workloads: []AssignedWorkload{{Spec: odd, CPUs: []int{0, 1}}}},
					{Workloads: []AssignedWorkload{{Spec: uneven, CPUs: []int{2, 3}}}},
				},
				Seed: 17,
			}
		},
		// Memory-management storm scenarios: KSM dedup (merge + break
		// remaps), a balloon inflation (targeted eviction burst), and the
		// compaction daemon (sliding-window relocation remaps; the paging
		// daemon keeps the free pool compaction moves through).
		"dedup": func(protocol string) Options {
			return Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "lru"},
				Mode:     hv.ModePaged,
				VMs: []VMSpec{
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{0, 1}}}},
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{2, 3}}}},
				},
				KSM: hv.KSMConfig{ScanEvery: 400, PagesPerScan: 16,
					SharingFactor: 0.5, BreakRate: 0.3, ClassCount: 24},
				Seed: 29,
			}
		},
		"balloon": func(protocol string) Options {
			return Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "lru"},
				Mode:     hv.ModePaged,
				VMs: []VMSpec{
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{0, 1}}}},
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{2, 3}}}},
				},
				Balloons: []hv.BalloonSpec{{VM: 1, At: 30_000, Frames: 64}},
				Seed:     31,
			}
		},
		"compact": func(protocol string) Options {
			return Options{
				Config:     smokeConfig(),
				Protocol:   protocol,
				Paging:     hv.PagingConfig{Policy: "lru", Daemon: true},
				Mode:       hv.ModePaged,
				Workloads:  SingleWorkload(spec, 4),
				Compaction: hv.CompactionConfig{Every: 300, WindowPages: 4},
				Seed:       37,
			}
		},
		"migsched": func(protocol string) Options {
			cfg := smokeConfig()
			cfg.Mem.HBMFrames = 896
			return Options{
				Config:      cfg,
				Protocol:    protocol,
				Paging:      hv.PagingConfig{Policy: "lru"},
				Mode:        hv.ModePaged,
				VMs:         StripedVMs(small.PerThread(1), cfg.NumCPUs, 2),
				VCPUsPerCPU: 2,
				Migrations: []hv.MigrationSpec{
					{VM: 0, At: 30_000, Dest: arch.TierDRAM, BurstPages: 8},
				},
				Seed: 19,
			}
		},
	}
}

// goldenWant maps scenario/protocol to its serial-engine fingerprint.
var goldenWant = map[string]uint64{
	"balloon/sw":        0x1f2287f1a8a8296a,
	"balloon/hatric":    0x8c009ac4abf18864,
	"balloon/unitd":     0x8fad8cd2b84be6b5,
	"balloon/ideal":     0xf566bbf33317338e,
	"compact/sw":        0xaee06067f8ec6982,
	"compact/hatric":    0xa9d004d46325bdea,
	"compact/unitd":     0x93bf8464cb8ccb43,
	"compact/ideal":     0xd80bffbd13b53e32,
	"dedup/sw":          0xa2a61b74263a4a4a,
	"dedup/hatric":      0x6224f6d14e0d27e4,
	"dedup/unitd":       0xea51d77599a7b36f,
	"dedup/ideal":       0xc60b88642432df4f,
	"migration/sw":      0x5508fd27e5715b58,
	"migration/hatric":  0x8f7a9f4bf6603742,
	"migration/unitd":   0x47a35c6434b7baab,
	"migration/ideal":   0xbfdbab6ac9eccd34,
	"migsched/sw":       0xe68814f7565d69ae,
	"migsched/hatric":   0x5140cfe76688d594,
	"migsched/unitd":    0x6f501e64f57a4600,
	"migsched/ideal":    0xf85584dd6697b74a,
	"multivm/sw":        0xf00be0a542a0e9fc,
	"multivm/hatric":    0xb39bd359996cf218,
	"multivm/unitd":     0x991266eef96bc1ac,
	"multivm/ideal":     0xef4f2485325a861e,
	"oddrefs/sw":        0x34c7e04b93eb3cff,
	"oddrefs/hatric":    0xedc0d50ef72c8b6a,
	"oddrefs/unitd":     0x493e7c6d628f64fc,
	"oddrefs/ideal":     0x42535522c4d8d021,
	"overcommit/sw":     0x7b097b50443247a1,
	"overcommit/hatric": 0x300723d23638daf9,
	"overcommit/unitd":  0x478c4fae8c562f40,
	"overcommit/ideal":  0xc4c55e5b42dc95d3,
	"pinned/sw":         0xf70305248f366c96,
	"pinned/hatric":     0x359dc6b5bfbcfa84,
	"pinned/unitd":      0x6fb679495b30b729,
	"pinned/ideal":      0x92ae6d974fd026c4,
	"qos/sw":            0x2de08f9fec6dcaec,
	"qos/hatric":        0xbc816b226a6c71c0,
	"qos/unitd":         0xb6da1243b3916674,
	"qos/ideal":         0x15fcf7cf7933fc8f,
	"quantum1/sw":       0xd234ad5a8fe9bf98,
	"quantum1/hatric":   0x82eea8dd43219834,
	"quantum1/unitd":    0x27c0a5ad958e0832,
	"quantum1/ideal":    0x6ae7ac5341379193,
}

func TestGoldenCounters(t *testing.T) {
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
				sys, err := New(build(proto))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				checkRemapAccounting(t, res.Agg)
				got := goldenFingerprint(res)
				if update {
					lines = append(lines, fmt.Sprintf("\t%q: %#016x,", key, got))
					return
				}
				want, ok := goldenWant[key]
				if !ok {
					t.Fatalf("no golden fingerprint for %s; run with GOLDEN_UPDATE=1 to record", key)
				}
				if got != want {
					t.Errorf("fingerprint drifted: got %#016x want %#016x\nagg: %+v",
						got, want, res.Agg)
				}
			})
		}
	}
	if update {
		fmt.Println("var goldenWant = map[string]uint64{")
		for _, l := range lines {
			fmt.Println(l)
		}
		fmt.Println("}")
	}
}
