package sim

import (
	"fmt"
	"math/bits"
	"reflect"

	"hatric/internal/arch"
	"hatric/internal/cache"
	"hatric/internal/coherence"
	"hatric/internal/core"
	"hatric/internal/energy"
	"hatric/internal/faults"
	"hatric/internal/hv"
	"hatric/internal/memdev"
	"hatric/internal/pagetable"
	"hatric/internal/stats"
	"hatric/internal/tstruct"
	"hatric/internal/walker"
	"hatric/internal/workload"
)

// DefaultSchedQuantum is the scheduler's time slice when
// Options.SchedQuantum is zero.
const DefaultSchedQuantum = arch.Cycles(50_000)

// DefaultEpochCycles is the parallel engine's epoch length when
// Options.EpochCycles is zero: one scheduler quantum, so a time-sliced
// machine's world switches keep landing inside a single epoch.
const DefaultEpochCycles = arch.Cycles(50_000)

// AssignedWorkload pins one process's threads to physical CPUs (or, under
// vCPU overcommit, to vCPU slots — see Options.VCPUsPerCPU).
type AssignedWorkload struct {
	Spec workload.Spec
	CPUs []int
}

// VMSpec describes one virtual machine of the consolidated server: its
// processes, the physical CPUs (or vCPU slots) they are pinned to, and
// the VM's QoS tier. CPU sets of different VMs must be disjoint.
//
// The QoS fields all default to "inherit the machine-wide Options value":
// a VMSpec with only Workloads set behaves exactly as before the per-VM
// tiers existed, and a machine whose VMs set no overrides is bit-identical
// to the pre-QoS simulator at the same seeds.
type VMSpec struct {
	// Workloads lists the VM's processes; element i is process i.
	Workloads []AssignedWorkload

	// Mode overrides the machine-wide Options.Mode placement for this VM
	// (nil inherits). One VM can run inf-hbm (fully die-stacked, pinned)
	// while its neighbors page — the SLA-tiering setup.
	Mode *hv.PlacementMode
	// Paging overrides the machine-wide Options.Paging for this VM's
	// faults: eviction policy, migration daemon, prefetch depth, and
	// defragmentation period (nil inherits).
	Paging *hv.PagingConfig
	// QuotaFrames reserves this many die-stacked frames for the VM: while
	// it holds at most that many, no other VM's pressure can evict its
	// pages. Mutually exclusive with QuotaShare; reservations across VMs
	// must fit in die-stacked capacity.
	QuotaFrames int
	// QuotaShare reserves this fraction (0..1] of die-stacked capacity
	// instead of an absolute frame count.
	QuotaShare float64
	// QuotaWeight is the VM's proportional weight over the unreserved
	// remainder of the die-stacked tier (0 means 1): under pressure the
	// eviction selector prefers VMs over their weighted share.
	QuotaWeight int
	// Weight is the VM's scheduler quantum weight (0 means 1): under vCPU
	// overcommit (Options.VCPUsPerCPU > 1) each of the VM's vCPUs runs
	// Weight x SchedQuantum cycles per slice. Ignored on pinned machines.
	Weight int
}

// reservedFrames resolves the VM's die-stacked reservation against the
// configured capacity (validation has rejected conflicting settings).
func (v *VMSpec) reservedFrames(hbmFrames int) int {
	if v.QuotaFrames > 0 {
		return v.QuotaFrames
	}
	return int(v.QuotaShare * float64(hbmFrames))
}

// OneVM wraps a process list into a single-VM machine description.
func OneVM(workloads []AssignedWorkload) []VMSpec {
	return []VMSpec{{Workloads: workloads}}
}

// StripedVMs builds the canonical overcommit machine description: ratio
// identical VMs each running spec as one process with one vCPU per
// physical CPU, VM v occupying the consecutive slot block
// [v*pcpus, (v+1)*pcpus). Combined with the slot%NumCPUs placement rule,
// every physical CPU round-robins one vCPU of every VM. Used by the
// overcommit experiment, example, and tests so the striping stays in one
// place.
func StripedVMs(spec workload.Spec, pcpus, ratio int) []VMSpec {
	vms := make([]VMSpec, 0, ratio)
	for v := 0; v < ratio; v++ {
		slots := make([]int, pcpus)
		for i := range slots {
			slots[i] = v*pcpus + i
		}
		vms = append(vms, VMSpec{Workloads: []AssignedWorkload{{Spec: spec, CPUs: slots}}})
	}
	return vms
}

// Options configures one simulation run.
type Options struct {
	Config   arch.Config
	Protocol string // "sw", "hatric", "hatric-pf", "unitd", "ideal"
	// Paging and Mode are the machine-wide paging configuration and data
	// placement. They are the defaults every VM inherits; individual VMs
	// override them (and add die-stacked quotas and scheduler weights)
	// through the VMSpec QoS fields.
	Paging hv.PagingConfig
	Mode   hv.PlacementMode
	// Workloads lists a single VM's processes; element i is process i.
	// It is the one-VM convenience form of VMs — exactly one of the two
	// may be set.
	Workloads []AssignedWorkload
	// VMs lists the machine's virtual machines; element v becomes VM v.
	// Leave empty to run the single VM described by Workloads.
	VMs []VMSpec
	// Migrations schedules live migrations (which VM, at what cycle, to
	// which tier — see hv.MigrationSpec). Each turns the chosen VM's
	// entire resident set into a remap burst driven from the VM's first
	// CPU, interleaved with normal execution.
	Migrations []hv.MigrationSpec
	// KSM enables the content-dedup scanner (hv.KSMConfig): periodic
	// scans merge identical pages across VMs into shared copy-on-write
	// frames, and guest writes break the sharing — each merge and break a
	// coherent remap. The zero value (ScanEvery == 0) disables KSM and
	// keeps the run bit-identical to the pre-dedup machine.
	KSM hv.KSMConfig
	// Balloons schedules balloon inflations (which VM, at what cycle, how
	// many frames — see hv.BalloonSpec). Each reclaims the VM's own
	// die-stacked frames through the quota-aware eviction path in bursts
	// driven from the VM's first CPU.
	Balloons []hv.BalloonSpec
	// Compaction enables the THP-style compaction daemon
	// (hv.CompactionConfig): sliding-window relocations of live
	// die-stacked pages through the coherent-PTE-store path. The zero
	// value (Every == 0) disables it.
	Compaction hv.CompactionConfig
	Seed       uint64
	// CheckStale verifies every translation against the page tables and
	// counts mismatches (must stay zero under a correct protocol).
	CheckStale bool

	// Faults configures deterministic fault injection (lost shootdown
	// IPIs, dropped invalidation acks, migration-link outages — see
	// internal/faults). The zero value injects nothing and keeps the run
	// bit-identical to the fault-free machine; decisions are a pure
	// function of (seed, site, sequence), so fault-injected runs replay
	// bit-identically too.
	Faults faults.Config

	// VCPUsPerCPU is the overcommit ratio: it time-slices this many vCPUs
	// onto every physical CPU. 0 or 1 pins vCPUs 1:1 onto physical CPUs —
	// the default, bit-identical to the pre-scheduler machine. When >1,
	// the CPU lists of VMSpec/Workloads name vCPU slots in
	// [0, NumCPUs*VCPUsPerCPU); slot v runs on physical CPU v%NumCPUs, so
	// a VM's consecutive slot block stripes across the machine and every
	// physical CPU round-robins between vCPUs of different VMs.
	VCPUsPerCPU int
	// SchedQuantum is the scheduler's round-robin time slice in cycles
	// (default DefaultSchedQuantum). Ignored without VCPUsPerCPU > 1.
	SchedQuantum arch.Cycles
	// FlushOnVMSwitch flushes a physical CPU's translation structures
	// wholesale at every cross-VM context switch — the software baseline
	// for hardware without VPID-tagged structures. Off, the VM tags keep
	// every VM's entries resident (and correct) across switches.
	FlushOnVMSwitch bool

	// ParallelCPUs > 0 enables the epoch-barrier parallel engine: physical
	// CPUs are sharded across that many worker goroutines that advance in
	// fixed-length cycle epochs, with cross-shard effects (shared-cache
	// fills, invalidation waves, faults, storm daemons) logged per CPU and
	// replayed serially in deterministic merge order at each barrier. The
	// results are bit-identical for any worker count at a given
	// configuration (a pure throughput knob), but the deferral shifts
	// shared-state timing relative to the serial engine, so parallel runs
	// carry their own golden set — see README.md, "Parallel execution".
	// Both engines execute references through the same step; 0 (the
	// default) runs the serial engine.
	ParallelCPUs int
	// EpochCycles is the parallel engine's epoch length in cycles
	// (default DefaultEpochCycles). Ignored unless ParallelCPUs > 0.
	// Shorter epochs tighten cross-CPU timing fidelity; longer epochs
	// amortize barrier overhead. The value changes simulated results (it
	// sets how long cross-shard effects stay deferred), so it is part of
	// the configuration a golden fingerprint covers.
	EpochCycles arch.Cycles
}

// SingleWorkload assigns one multithreaded process across the first
// `threads` CPUs.
func SingleWorkload(spec workload.Spec, threads int) []AssignedWorkload {
	cpus := make([]int, threads)
	for i := range cpus {
		cpus[i] = i
	}
	return []AssignedWorkload{{Spec: spec, CPUs: cpus}}
}

// Multiprogrammed assigns each spec as a single-threaded process on its own
// CPU (process i on CPU i).
func Multiprogrammed(specs []workload.Spec) []AssignedWorkload {
	out := make([]AssignedWorkload, len(specs))
	for i, s := range specs {
		out[i] = AssignedWorkload{Spec: s, CPUs: []int{i}}
	}
	return out
}

// validateVMSpecs checks the machine description up front, before any
// state is built: every process has a positive footprint and is pinned to
// in-range, non-overlapping vCPU slots, and QoS settings are
// self-consistent and fit the configured die-stacked capacity — counting
// pinned (inf-hbm) footprints against it, since those frames are
// permanently unreclaimable and a reservation that only fits without them
// could not be honored.
func validateVMSpecs(vmSpecs []VMSpec, cfg *arch.Config, ratio int, defaultMode hv.PlacementMode) error {
	numSlots := cfg.NumCPUs * ratio
	// owner[slot] names who pinned the slot. A slice, not a map, so the
	// conflict diagnostics below are deterministic: the first pinner in
	// VM/workload declaration order always wins the "pinned by both"
	// message, regardless of map iteration order.
	owner := make([]string, numSlots)
	reservedTotal, pinnedTotal, claimTotal := 0, 0, 0
	for v := range vmSpecs {
		spec := &vmSpecs[v]
		if len(spec.Workloads) == 0 {
			return fmt.Errorf("sim: VM %d has no workloads", v)
		}
		for _, w := range spec.Workloads {
			if len(w.CPUs) == 0 {
				return fmt.Errorf("sim: process %s of VM %d has no CPUs", w.Spec.Name, v)
			}
			who := fmt.Sprintf("process %q of VM %d", w.Spec.Name, v)
			if w.Spec.FootprintPages <= 0 {
				return fmt.Errorf("sim: %s has FootprintPages %d; it must be positive", who, w.Spec.FootprintPages)
			}
			for _, c := range w.CPUs {
				if c < 0 || c >= numSlots {
					return fmt.Errorf("sim: %s pins slot %d outside [0, %d) (%d CPUs x %d vCPUs/CPU)",
						who, c, numSlots, cfg.NumCPUs, ratio)
				}
				if prev := owner[c]; prev != "" {
					return fmt.Errorf("sim: slot %d pinned by both %s and %s", c, prev, who)
				}
				owner[c] = who
			}
		}
		switch {
		case spec.QuotaFrames < 0:
			return fmt.Errorf("sim: VM %d has negative QuotaFrames %d", v, spec.QuotaFrames)
		case spec.QuotaShare < 0 || spec.QuotaShare > 1:
			return fmt.Errorf("sim: VM %d has QuotaShare %.3f outside [0, 1]", v, spec.QuotaShare)
		case spec.QuotaFrames > 0 && spec.QuotaShare > 0:
			return fmt.Errorf("sim: VM %d sets both QuotaFrames (%d) and QuotaShare (%.3f); choose one",
				v, spec.QuotaFrames, spec.QuotaShare)
		case spec.QuotaWeight < 0:
			return fmt.Errorf("sim: VM %d has negative QuotaWeight %d", v, spec.QuotaWeight)
		case spec.Weight < 0:
			return fmt.Errorf("sim: VM %d has negative scheduler Weight %d", v, spec.Weight)
		}
		// A VM's die-stacked claim is the larger of its reservation and
		// its pinned (inf-hbm) footprint — pinned frames satisfy the
		// VM's own reservation rather than double-counting.
		claim := spec.reservedFrames(cfg.Mem.HBMFrames)
		reservedTotal += claim
		mode := defaultMode
		if spec.Mode != nil {
			mode = *spec.Mode
		}
		if mode == hv.ModeInfHBM {
			pinnedTotal += FootprintPages(spec.Workloads)
			claim = max(claim, FootprintPages(spec.Workloads))
		}
		claimTotal += claim
	}
	if claimTotal > cfg.Mem.HBMFrames {
		return fmt.Errorf("sim: die-stacked quotas reserve %d frames and inf-hbm VMs pin %d, claiming %d of the tier's %d; shrink the quotas or grow Config.Mem.HBMFrames (see SizeConfigVMs)",
			reservedTotal, pinnedTotal, claimTotal, cfg.Mem.HBMFrames)
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	Protocol string
	// Runtime is the cycle the last CPU finished at.
	Runtime arch.Cycles
	// Completion holds each physical CPU's finish cycle (multiprogrammed
	// fairness; under overcommit, the cycle its last vCPU finished).
	Completion []arch.Cycles
	// VMCompletion holds each VM's finish cycle (the last completion among
	// its vCPUs).
	VMCompletion []arch.Cycles
	// Agg is the system-wide event aggregate.
	Agg stats.Counters
	// PerCPU are the per-CPU counters.
	PerCPU []stats.Counters
	// PerVM aggregates per-VM counters (element v is VM v). Pinned, each
	// physical CPU's counters belong wholly to its VM; under the
	// time-sliced scheduler the attribution is per quantum — whatever a
	// physical CPU counts during a vCPU's slice is attributed to that
	// vCPU's VM, so target-side events another VM inflicts mid-slice land
	// on the VM occupying the CPU.
	PerVM []stats.Counters
	// VMOf maps each CPU to its VM, or -1 for idle CPUs. Under the
	// scheduler it is the VM each physical CPU was last running.
	VMOf []int
	// Energy is the modeled energy.
	Energy energy.Breakdown
	// Device byte totals (line fills plus page copies).
	HBMBytes, DRAMBytes uint64
	// Migrations reports each scheduled live migration's outcome (rounds,
	// pages, re-dirties, downtime), in Options.Migrations order.
	Migrations []hv.MigrationReport
	// QoS is each VM's die-stacked share accounting at the end of the
	// run: configured reservation and weight, final residency, and the
	// eviction pressure it absorbed (including frames stolen by other
	// VMs and steals from it while frozen mid-migration).
	QoS []hv.VMQoSReport
	// Balloons reports each scheduled balloon inflation's outcome, in
	// Options.Balloons order (nil when none were scheduled).
	Balloons []hv.BalloonReport
	// KSM summarizes the dedup scanner's activity (nil unless
	// Options.KSM enabled it).
	KSM *hv.KSMReport
}

// VMFinish returns the last completion cycle among VM vm's vCPUs.
func (r *Result) VMFinish(vm int) arch.Cycles {
	if vm >= 0 && vm < len(r.VMCompletion) {
		return r.VMCompletion[vm]
	}
	return 0
}

// vcpuState is one virtual CPU: the VM and process it belongs to, its
// reference stream, and its completion cycle. Pinned machines have one per
// physical CPU (slot == CPU); overcommitted machines have
// NumCPUs*VCPUsPerCPU slots.
type vcpuState struct {
	vm, pid int
	stream  *workload.Stream
	// buf is the vCPU's reference slab: NextBatch fills it wholesale and
	// step consumes it one reference at a time, so generation amortizes
	// across refBatch references while the execution interleaving across
	// CPUs stays exactly per-reference (see doc.go, "Batching").
	buf      []workload.Access
	bufPos   int
	bufLen   int
	done     arch.Cycles
	finished bool
}

// refBatch is the reference slab size. Each stream draws from its own RNG,
// so pre-generating a slab cannot observe or affect any other vCPU; the
// size is a pure throughput knob, invisible in simulated results.
const refBatch = 256

// System is a fully wired simulated machine.
type System struct {
	opts Options
	cfg  arch.Config

	mem     *memdev.Memory
	store   *pagetable.Store
	hier    *coherence.Hierarchy
	ts      []*tstruct.CPUSet
	walkers []*walker.Walker
	vms     []*hv.VM
	hyp     *hv.Hypervisor
	proto   core.Protocol
	faults  *faults.Injector

	cnt   []*stats.Counters
	clock []arch.Cycles

	vcpus []vcpuState
	// running is the vCPU slot each physical CPU currently executes (-1
	// idle); pid and vmOf mirror the running vCPU for the hot path and the
	// core.Machine views.
	running []int
	pid     []int
	vmOf    []int
	guestFn []walker.GuestPTResolver
	active  int
	done    []arch.Cycles

	// Scheduler state (sched is false for pinned machines, whose hot path
	// is exactly the pre-scheduler one).
	sched   bool
	quantum arch.Cycles
	// vmQuantum is each VM's weighted time slice (quantum x VMSpec.Weight).
	vmQuantum []arch.Cycles
	runq      [][]int       // per physical CPU: its vCPU slots, round-robin order
	rrpos     []int         // per physical CPU: index of running in runq
	qstart    []arch.Cycles // per physical CPU: clock at last switch-in
	vmsOn     [][]bool      // per physical CPU: which VMs have vCPUs here
	perVM     [][]stats.Counters
	snap      []stats.Counters // per physical CPU: counters at last attribution

	// migrating gates the live-migration hooks in the per-reference hot
	// path; it is false for every run without Options.Migrations.
	migrating bool

	// ksmOn/ksmEvery gate the dedup hooks (write-break check and periodic
	// scan), ballooning the balloon pump, and compactEvery the compaction
	// daemon. All stay zero/false — and the hot path untouched — for runs
	// that configure none of the storm sources.
	ksmOn        bool
	ksmEvery     uint64
	ballooning   bool
	compactEvery uint64

	// defragEvery caches each VM's (static) defragmentation period so the
	// per-reference check stays a slice load instead of a hypervisor call.
	defragEvery []uint64

	// heap/hpos form the indexed min-clock heap over runnable CPUs (see
	// clockheap.go); hpos[cpu] == -1 means cpu is out of the heap.
	// heapDirty records that a mid-step Charge advanced another CPU's
	// clock, so the whole heap must be re-heapified after the step.
	heap      []uint64
	keyShift  uint
	keyMask   uint64
	hpos      []int32
	heapDirty bool

	// par is the epoch-barrier parallel engine's state (parallel.go), nil
	// on the serial path.
	par *parState
}

// New builds a system from the options. It rejects options that hold a
// NaN or infinite float anywhere, so every Options it accepts encodes
// with encoding/json.
func New(opts Options) (*System, error) {
	if path, bad := nonFinite(reflect.ValueOf(&opts).Elem()); bad {
		return nil, fmt.Errorf("sim: Options%s is not finite", path)
	}
	cfg := opts.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ratio := opts.VCPUsPerCPU
	if ratio < 0 {
		return nil, fmt.Errorf("sim: VCPUsPerCPU must be >= 0")
	}
	if ratio == 0 {
		ratio = 1
	}
	vmSpecs := opts.VMs
	switch {
	case len(vmSpecs) == 0 && len(opts.Workloads) == 0:
		return nil, fmt.Errorf("sim: no workloads assigned")
	case len(vmSpecs) > 0 && len(opts.Workloads) > 0:
		return nil, fmt.Errorf("sim: set either Workloads (one VM) or VMs, not both")
	case len(vmSpecs) == 0:
		vmSpecs = OneVM(opts.Workloads)
	}
	if err := validateVMSpecs(vmSpecs, &cfg, ratio, opts.Mode); err != nil {
		return nil, err
	}
	switch {
	case opts.ParallelCPUs < 0:
		return nil, fmt.Errorf("sim: ParallelCPUs must be >= 0, got %d", opts.ParallelCPUs)
	case opts.ParallelCPUs > cfg.NumCPUs:
		return nil, fmt.Errorf("sim: ParallelCPUs %d exceeds the machine's %d physical CPUs; workers shard pCPUs, so extra workers would sit idle — use at most NumCPUs",
			opts.ParallelCPUs, cfg.NumCPUs)
	case opts.ParallelCPUs > 0:
		if err := checkPayloads(cfg.Mem, len(vmSpecs)); err != nil {
			return nil, err
		}
	}

	s := &System{opts: opts, cfg: cfg, sched: ratio > 1}
	// The injector must exist before the protocol and hypervisor are
	// built: both cache Machine.FaultInjector() at construction.
	s.faults = faults.NewInjector(opts.Faults, opts.Seed)
	s.mem = memdev.New(cfg.Mem)
	s.store = pagetable.NewStore(cfg.Mem.PTFrames)

	s.cnt = make([]*stats.Counters, cfg.NumCPUs)
	for i := range s.cnt {
		s.cnt[i] = &stats.Counters{}
	}
	s.hier = coherence.NewHierarchy(&cfg, s.mem, s.cnt)

	// Translation structures and per-CPU state.
	numSlots := cfg.NumCPUs * ratio
	s.ts = make([]*tstruct.CPUSet, cfg.NumCPUs)
	s.clock = make([]arch.Cycles, cfg.NumCPUs)
	s.done = make([]arch.Cycles, cfg.NumCPUs)
	s.running = make([]int, cfg.NumCPUs)
	s.pid = make([]int, cfg.NumCPUs)
	s.vmOf = make([]int, cfg.NumCPUs)
	for i := 0; i < cfg.NumCPUs; i++ {
		s.ts[i] = tstruct.NewCPUSet(cfg.TLB)
		s.running[i] = -1
		s.pid[i] = -1
		s.vmOf[i] = -1
	}
	s.vcpus = make([]vcpuState, numSlots)
	for i := range s.vcpus {
		s.vcpus[i] = vcpuState{vm: -1, pid: -1}
	}

	// Protocol, then, for a hardware protocol, its relay hook into the
	// hierarchy.
	proto, err := core.New(opts.Protocol, s, cfg.TLB.CoTagBytes)
	if err != nil {
		return nil, err
	}
	s.proto = proto
	if hook, ok := proto.(coherence.TranslationHook); ok {
		s.hier.SetTranslationHook(hook)
	}

	// The VMs and their processes (slot pinnings were validated disjoint
	// and in-range up front; pinned, a slot is a physical CPU). Stream
	// seeds advance with a machine-wide process index so no two processes
	// anywhere share a reference stream.
	globalPID := 0
	for v, spec := range vmSpecs {
		// A per-CPU bitmap (not a map) keeps the vmCPUs ordering — and
		// therefore every downstream structure built from it —
		// trivially deterministic: ascending physical-CPU order.
		vmCPUSet := make([]bool, cfg.NumCPUs)
		for _, w := range spec.Workloads {
			for _, c := range w.CPUs {
				vmCPUSet[c%cfg.NumCPUs] = true
			}
		}
		vmCPUs := make([]int, 0, cfg.NumCPUs)
		for c := 0; c < cfg.NumCPUs; c++ {
			if vmCPUSet[c] {
				vmCPUs = append(vmCPUs, c)
			}
		}
		vm, err := hv.NewVM(v, s.store, s.mem, len(spec.Workloads), vmCPUs)
		if err != nil {
			return nil, fmt.Errorf("sim: building VM %d: %w", v, err)
		}
		s.vms = append(s.vms, vm)
		mode := opts.Mode
		if spec.Mode != nil {
			mode = *spec.Mode
		}
		for pidx, w := range spec.Workloads {
			if _, err := vm.MapProcess(pidx, 0, w.Spec.FootprintPages, mode); err != nil {
				return nil, fmt.Errorf("sim: mapping %s (VM %d): %w", w.Spec.Name, v, err)
			}
			threadSpec := w.Spec.PerThread(len(w.CPUs))
			for ti, slot := range w.CPUs {
				s.vcpus[slot] = vcpuState{
					vm: v, pid: pidx,
					stream: workload.NewStream(threadSpec, opts.Seed+uint64(globalPID)*101, ti),
					buf:    make([]workload.Access, refBatch),
				}
				s.active++
			}
			globalPID++
		}
	}

	// Schedulable state: pinned machines run slot i on CPU i; overcommitted
	// machines round-robin each CPU's slot list (ascending slot order, so a
	// CPU's queue interleaves the VMs' striped blocks).
	if s.sched {
		s.quantum = opts.SchedQuantum
		if s.quantum <= 0 {
			s.quantum = DefaultSchedQuantum
		}
		// Proportional-share slices: a VM with Weight w runs w base quanta
		// per turn. Weight 1 (the default) everywhere reproduces the
		// unweighted round-robin exactly.
		s.vmQuantum = make([]arch.Cycles, len(s.vms))
		for v := range s.vmQuantum {
			w := arch.Cycles(1)
			if vmSpecs[v].Weight > 0 {
				w = arch.Cycles(vmSpecs[v].Weight)
			}
			s.vmQuantum[v] = s.quantum * w
		}
		s.runq = make([][]int, cfg.NumCPUs)
		s.rrpos = make([]int, cfg.NumCPUs)
		s.qstart = make([]arch.Cycles, cfg.NumCPUs)
		s.vmsOn = make([][]bool, cfg.NumCPUs)
		s.perVM = make([][]stats.Counters, cfg.NumCPUs)
		for p := range s.perVM {
			s.perVM[p] = make([]stats.Counters, len(s.vms))
		}
		s.snap = make([]stats.Counters, cfg.NumCPUs)
		for slot := range s.vcpus {
			if s.vcpus[slot].stream == nil {
				continue
			}
			p := slot % cfg.NumCPUs
			s.runq[p] = append(s.runq[p], slot)
		}
		for p := range s.runq {
			s.vmsOn[p] = make([]bool, len(s.vms))
			for _, slot := range s.runq[p] {
				s.vmsOn[p][s.vcpus[slot].vm] = true
			}
			if len(s.runq[p]) > 0 {
				// Stagger each CPU's starting rotation. Hypervisor
				// runqueues are per-CPU and independent; starting every
				// queue at slot 0 would gang-schedule the VMs in lockstep
				// and hide exactly the descheduled-target stalls
				// consolidation causes.
				s.rrpos[p] = p % len(s.runq[p])
				s.running[p] = s.runq[p][s.rrpos[p]]
			}
		}
	} else {
		for p := 0; p < cfg.NumCPUs; p++ {
			if s.vcpus[p].stream != nil {
				s.running[p] = p
			}
		}
	}
	for p, r := range s.running {
		if r >= 0 {
			s.pid[p] = s.vcpus[r].pid
			s.vmOf[p] = s.vcpus[r].vm
		}
	}

	// One guest-PT resolver per VM, built once so the per-translation VM
	// resolution below stays allocation-free on the hot path.
	s.guestFn = make([]walker.GuestPTResolver, len(s.vms))
	for v, vm := range s.vms {
		s.guestFn[v] = func(pid int) *pagetable.GuestPT { return vm.Guests[pid] }
	}
	s.walkers = make([]*walker.Walker, cfg.NumCPUs)
	for i := 0; i < cfg.NumCPUs; i++ {
		s.walkers[i] = &walker.Walker{
			CPU:  i,
			Cost: cfg.Cost,
			Hier: s.hier,
			TS:   s.ts[i],
			Cnt:  s.cnt[i],
		}
		// Install the starting VM context. A CPU's context changes only at
		// cross-VM world switches, where schedule() reinstalls it — the
		// walker no longer resolves it per translation. Idle CPUs (no
		// stream) borrow VM 0's tables; they never walk.
		v := s.vmOf[i]
		if v < 0 {
			v = 0
		}
		s.walkers[i].SetVM(v, s.vms[v].Nested, s.guestFn[v])
	}

	// Per-VM paging and die-stacked shares for the hypervisor (zero
	// values everywhere inherit the machine-wide configuration).
	vmcfgs := make([]hv.VMConfig, len(vmSpecs))
	for v := range vmSpecs {
		vmcfgs[v] = hv.VMConfig{
			Paging:         vmSpecs[v].Paging,
			ReservedFrames: vmSpecs[v].reservedFrames(cfg.Mem.HBMFrames),
			ShareWeight:    vmSpecs[v].QuotaWeight,
		}
	}
	hyp, err := hv.New(opts.Paging, vmcfgs, cfg.Cost, s.mem, s.hier, s, s.proto, s.vms, opts.Seed)
	if err != nil {
		return nil, err
	}
	s.hyp = hyp
	for i, ms := range opts.Migrations {
		if _, err := hyp.ScheduleMigration(ms); err != nil {
			return nil, fmt.Errorf("sim: migration %d: %w", i, err)
		}
	}
	s.migrating = hyp.HasMigrations()
	if opts.KSM.ScanEvery > 0 {
		if err := hyp.EnableKSM(opts.KSM); err != nil {
			return nil, err
		}
		s.ksmOn = true
		s.ksmEvery = opts.KSM.ScanEvery
	}
	for i, bs := range opts.Balloons {
		if _, err := hyp.ScheduleBalloon(bs); err != nil {
			return nil, fmt.Errorf("sim: balloon %d: %w", i, err)
		}
	}
	s.ballooning = hyp.HasBalloons()
	if opts.Compaction.Every > 0 {
		if err := hyp.EnableCompaction(opts.Compaction); err != nil {
			return nil, err
		}
		s.compactEvery = opts.Compaction.Every
	}
	s.defragEvery = make([]uint64, len(s.vms))
	for v := range s.vms {
		s.defragEvery[v] = hyp.DefragEvery(v)
	}

	// Seed the min-clock heap with every runnable CPU (clocks all zero, so
	// the id tie-break leaves the heap in lowest-index order, matching the
	// old scan's first pick). Keys pack (clock, cpu) into one word; the
	// cpu field is just wide enough for the machine.
	s.keyShift = uint(bits.Len(uint(cfg.NumCPUs - 1)))
	s.keyMask = 1<<s.keyShift - 1
	s.hpos = make([]int32, cfg.NumCPUs)
	for p := range s.hpos {
		s.hpos[p] = -1
	}
	for p := 0; p < cfg.NumCPUs; p++ {
		if s.cpuRunnable(p) {
			s.heapPush(p)
		}
	}
	return s, nil
}

// --- core.Machine implementation ---

// VMCPUs implements core.Machine: every physical CPU that runs any of VM
// vm's vCPUs (software coherence's imprecise target set). Pinned, the
// sets of different VMs are disjoint; under the time-sliced scheduler
// they overlap, and isolation comes from the VM-qualified structures, not
// from the target sets.
func (s *System) VMCPUs(vm int) []int { return s.vms[vm].CPUs }

// VMMayCache implements core.Machine: pinned, a CPU holds only its own
// VM's entries; time-sliced, it may hold entries of every VM with a vCPU
// slot assigned to it.
func (s *System) VMMayCache(cpu, vm int) bool {
	if !s.sched {
		return vm == s.vmOf[cpu]
	}
	return vm >= 0 && vm < len(s.vmsOn[cpu]) && s.vmsOn[cpu][vm]
}

// DeschedWait implements core.Machine: the cycles until a vCPU of vm next
// occupies cpu — zero when one runs now (or the machine is pinned),
// otherwise the current quantum's remainder plus a full quantum per live
// vCPU ahead of vm's next one in the round-robin. A VM whose vCPUs on this
// CPU have all finished waits for nothing (its halted vCPUs have no state
// to flush and nothing to acknowledge).
func (s *System) DeschedWait(cpu, vm int) arch.Cycles {
	if !s.sched || s.vmOf[cpu] == vm {
		return 0
	}
	q := s.runq[cpu]
	if len(q) == 0 {
		return 0
	}
	// Remaining (weighted) quantum of the vCPU occupying the target now.
	// Charges from other CPUs (earlier shootdown targets) may already have
	// pushed the target's clock past its quantum end; Cycles is unsigned,
	// so compare before subtracting.
	cur := s.quantum
	if v := s.vmOf[cpu]; v >= 0 {
		cur = s.vmQuantum[v]
	}
	var wait arch.Cycles
	if end := s.qstart[cpu] + cur; end > s.clock[cpu] {
		wait = end - s.clock[cpu]
	}
	for i := 1; i <= len(q); i++ {
		v := q[(s.rrpos[cpu]+i)%len(q)]
		if s.vcpus[v].finished {
			continue
		}
		if s.vcpus[v].vm == vm {
			return wait
		}
		wait += s.vmQuantum[s.vcpus[v].vm]
	}
	return 0
}

// OwnerVM implements core.Machine: the VM whose page tables contain the
// page-table page at spa.
func (s *System) OwnerVM(spa arch.SPA) int {
	if len(s.vms) == 1 {
		return 0
	}
	spp := spa.Page()
	for _, vm := range s.vms {
		if vm.OwnsPTPage(spp) {
			return vm.ID
		}
	}
	return -1
}

// TS implements core.Machine.
func (s *System) TS(cpu int) *tstruct.CPUSet { return s.ts[cpu] }

// Charge implements core.Machine. Charges land mid-step from other
// subsystems (shootdown targets, migration freezes) while the stepped
// CPU's own clock is still accumulating, so the heap cannot be repaired
// element-by-element here — several keys are stale at once. The charge
// only marks the heap dirty; stepOnce rebuilds it after the step, when
// every clock is final.
func (s *System) Charge(cpu int, c arch.Cycles) {
	s.clock[cpu] += c
	if s.hpos[cpu] >= 0 {
		s.heapDirty = true
	}
}

// Counters implements core.Machine.
func (s *System) Counters(cpu int) *stats.Counters { return s.cnt[cpu] }

// Cost implements core.Machine.
func (s *System) Cost() arch.CostModel { return s.cfg.Cost }

// ReadPTE implements core.Machine.
func (s *System) ReadPTE(spa arch.SPA) (uint64, bool) {
	pte := s.store.ReadPTE(spa)
	return pte.Frame(), pte.Valid() && pte.Present()
}

// FaultInjector implements core.Machine: the run's fault injector, nil
// on fault-free machines.
func (s *System) FaultInjector() *faults.Injector { return s.faults }

// --- accessors used by tests and the experiment harness ---

// VM returns the first virtual machine (the whole machine in single-VM
// runs).
func (s *System) VM() *hv.VM { return s.vms[0] }

// VMs returns every virtual machine on the simulated server.
func (s *System) VMs() []*hv.VM { return s.vms }

// Run executes every stream to completion and returns the result.
func (s *System) Run() (*Result, error) {
	if s.opts.ParallelCPUs > 0 {
		if err := s.runParallel(); err != nil {
			return nil, err
		}
	} else {
		for s.active > 0 {
			ok, err := s.stepOnce()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if err := s.drainMigrations(); err != nil {
		return nil, err
	}
	if err := s.drainBalloons(); err != nil {
		return nil, err
	}
	return s.collect(), nil
}

// stepOnce executes one memory reference on the CPU with the smallest
// local clock and restores the heap afterwards. It reports false when no
// runnable CPU remains.
//
// This is the root of the simulator's per-reference hot path: hatriclint
// propagates the annotation below through every same-package callee
// (step, schedule, attribute, the min-clock heap), and the runtime gate
// sim.TestSteadyStateZeroAllocs asserts the same contract dynamically.
//
//hatric:hotpath
func (s *System) stepOnce() (bool, error) {
	cpu := s.minClockCPU()
	if cpu < 0 {
		return false, nil
	}
	if err := s.step(cpu); err != nil {
		return false, err
	}
	if s.heapDirty {
		// Cross-CPU charges landed (a shootdown or migration freeze):
		// several keys changed, so rebuild wholesale. Such steps are the
		// rare case; the old implementation paid the O(NumCPUs) scan on
		// every step.
		s.heapify()
		s.heapDirty = false
		if !s.cpuRunnable(cpu) {
			s.heapRemove(cpu)
		}
	} else if s.cpuRunnable(cpu) {
		// No cross-charges: the stepped CPU still sits at the root and
		// its clock only grew, so re-keying it and one sift-down restores
		// order.
		s.heapFix(cpu)
	} else {
		s.heapRemove(cpu)
	}
	return true, nil
}

// drainMigrations completes migrations still in flight after the last
// stream finished (the workload ended mid-migration, or the trigger cycle
// lies beyond the run): the driver vCPU keeps pumping on its own clock.
// Progress is judged by the migration's own progress counter, not by
// latency alone — a pump quantum that only skips already-handled pages
// consumes none of the driver's cycles yet advances the queue.
func (s *System) drainMigrations() error {
	if !s.migrating {
		return nil
	}
	for _, m := range s.hyp.Migrations() {
		cpu := m.DriverCPU()
		for !m.Done() {
			if !m.Started() && s.clock[cpu] < m.Spec().At {
				s.clock[cpu] = m.Spec().At
			}
			before := m.Progress()
			lat := s.hyp.PumpMigrations(cpu, s.clock[cpu])
			s.clock[cpu] += lat
			if lat == 0 && m.Progress() == before && !m.Done() {
				err := fmt.Errorf("sim: migration of VM %d stalled (no progress at cycle %d)",
					m.Spec().VM, uint64(s.clock[cpu]))
				if last := m.LastError(); last != nil {
					err = fmt.Errorf("%w: %w", err, last)
				}
				return err
			}
		}
	}
	return nil
}

// drainBalloons completes balloon inflations (and scheduled deflations)
// still pending after the last stream finished (a trigger cycle lay
// beyond the run, or the target was not reached in time): the driver vCPU
// keeps pumping on its own clock, fast-forwarded to whichever trigger the
// balloon waits for next. Progress is judged by the balloon's own
// progress counter — a deflation quantum that only skips already-resident
// pages consumes no driver cycles yet advances through the evicted list.
func (s *System) drainBalloons() error {
	if !s.ballooning {
		return nil
	}
	for _, b := range s.hyp.Balloons() {
		cpu := b.DriverCPU()
		for !b.Done() {
			if t := b.NextTrigger(); t > 0 && s.clock[cpu] < t {
				s.clock[cpu] = t
			}
			before := b.Progress()
			s.clock[cpu] += s.hyp.PumpBalloons(cpu, s.clock[cpu])
			if b.Progress() == before && !b.Done() {
				return fmt.Errorf("sim: balloon on VM %d stalled (no progress at cycle %d)",
					b.Spec().VM, uint64(s.clock[cpu]))
			}
		}
	}
	return nil
}

// minClockCPU picks the unfinished CPU with the smallest local clock: the
// root of the indexed heap, whose (clock, cpu-id) key reproduces the old
// linear scan's lowest-index tie-break.
func (s *System) minClockCPU() int {
	if len(s.heap) == 0 {
		return -1
	}
	return s.heapCPU(s.heap[0])
}

// cpuRunnable reports whether any vCPU assigned to cpu still has work.
func (s *System) cpuRunnable(cpu int) bool {
	if !s.sched {
		r := s.running[cpu]
		return r >= 0 && !s.vcpus[r].finished
	}
	for _, v := range s.runq[cpu] {
		if !s.vcpus[v].finished {
			return true
		}
	}
	return false
}

// schedule runs cpu's round-robin: when the running vCPU's quantum has
// expired (or it finished), switch to the next unfinished vCPU in the
// queue, charging the world switch (a timer exit plus the next vCPU's
// entry) and — under the flush-on-switch baseline — the full
// translation-structure flush a VPID-less machine performs at every
// cross-VM switch.
func (s *System) schedule(cpu int) {
	r := s.running[cpu]
	if r >= 0 && !s.vcpus[r].finished && s.clock[cpu]-s.qstart[cpu] < s.vmQuantum[s.vcpus[r].vm] {
		return
	}
	q := s.runq[cpu]
	next, nextPos := -1, 0
	for i := 1; i <= len(q); i++ {
		pos := (s.rrpos[cpu] + i) % len(q)
		if v := q[pos]; !s.vcpus[v].finished {
			next, nextPos = v, pos
			break
		}
	}
	if next < 0 {
		return // caller guarded: never stepped without a runnable vCPU
	}
	if next == r {
		// Lone runnable vCPU: a fresh slice, no switch, no cost.
		s.qstart[cpu] = s.clock[cpu]
		return
	}
	c := s.cnt[cpu]
	c.VCPUSwitches++
	s.clock[cpu] += s.cfg.Cost.VMExit + s.cfg.Cost.VMEntry
	prevVM := -1
	if r >= 0 {
		prevVM = s.vcpus[r].vm
	}
	newVM := s.vcpus[next].vm
	if prevVM != newVM {
		s.attribute(cpu, prevVM)
		s.walkers[cpu].SetVM(newVM, s.vms[newVM].Nested, s.guestFn[newVM])
		if s.opts.FlushOnVMSwitch {
			tlb, mmu, ntlb := s.ts[cpu].FlushAll()
			c.SwitchFlushes++
			c.TLBFlushes++
			c.MMUCacheFlushes++
			c.NTLBFlushes++
			c.TLBEntriesLost += uint64(tlb)
			c.MMUEntriesLost += uint64(mmu)
			c.NTLBEntriesLost += uint64(ntlb)
			s.clock[cpu] += s.cfg.Cost.FlushOp
		}
	}
	s.running[cpu] = next
	s.rrpos[cpu] = nextPos
	s.pid[cpu] = s.vcpus[next].pid
	s.vmOf[cpu] = newVM
	s.qstart[cpu] = s.clock[cpu]
}

// attribute adds cpu's counter delta since the last attribution to
// s.perVM[cpu][vm] (quantum-granular attribution; see Result.PerVM). Each
// parallel worker writes only its own CPUs' rows, and collect folds the
// rows in CPU order. The structure-local compare counters are folded in
// first, so compare energy is credited to the quantum that ran it rather
// than dumped on whichever VM happens to run last.
func (s *System) attribute(cpu, vm int) {
	c := s.cnt[cpu]
	for _, t := range s.ts[cpu].All() {
		c.CoTagCompares += t.CoTagCompares
		t.CoTagCompares = 0
	}
	if vm < 0 {
		return
	}
	d := *c
	d.Sub(&s.snap[cpu])
	s.perVM[cpu][vm].Add(&d)
	s.snap[cpu] = *c
}

// step executes one memory reference on cpu, for both engines: the serial
// run loop calls it on the min-clock CPU, parallel workers on their
// shard's CPUs (runShard). The engines differ at six effect sites, each
// one branch: hypervisor work runs now or is logged for the barrier
// (hvWork); balloon and migration pumps run here on the serial engine
// only; a nested fault retries inline or parks the CPU; a write to a
// KSM-shared page breaks the sharing inline or logs the break; the nested
// accessed bit is set or logged; and only the serial engine counts a
// retiring vCPU out of s.active (retire).
func (s *System) step(cpu int) error {
	// pc is cpu's parallel-engine state, nil on the serial engine.
	var pc *parCPU
	if s.par != nil {
		pc = &s.par.cpus[cpu]
		// Every call, parked resumes and zero-reference retirements
		// included, counts toward the barrier's pump budget.
		pc.steps++
	}
	// A resumed reference parked on a fault already ran the scheduler, the
	// slab position, gap charge, and daemon triggers when it parked.
	resume := pc != nil && pc.pendValid
	if s.sched && !resume {
		s.schedule(cpu)
	}
	vc := &s.vcpus[s.running[cpu]]
	c := s.cnt[cpu]
	pid, vm := vc.pid, vc.vm
	var acc workload.Access
	if resume {
		acc = pc.pendAcc
	} else {
		if vc.bufPos == vc.bufLen {
			vc.bufLen = vc.stream.NextBatch(vc.buf)
			vc.bufPos = 0
			if vc.bufLen == 0 {
				// A stream exhausted before yielding anything (zero-reference
				// specs): retire the vCPU here, or the run loop would spin on
				// a CPU whose clock never advances.
				s.retire(cpu, vc)
				return nil
			}
		}
		acc = vc.buf[vc.bufPos]
		vc.bufPos++

		// Non-memory instructions.
		c.Instructions += uint64(acc.Gap) + 1
		s.clock[cpu] += arch.Cycles(float64(acc.Gap) * s.cfg.Cost.BaseCPI)
		c.MemRefs++

		// Periodic defragmentation remaps (superpage compaction) in the
		// CPU's own VM.
		if de := s.defragEvery[vm]; de > 0 && c.MemRefs%de == 0 {
			s.hvWork(cpu, opDefrag, uint64(vm))
		}

		// Memory-management storm daemons: the KSM dedup scan and the
		// compaction window steal cycles from whichever vCPU crossed the
		// period, like the defrag daemon above.
		if s.ksmEvery > 0 && c.MemRefs%s.ksmEvery == 0 {
			s.hvWork(cpu, opKSMScan, 0)
		}
		if s.compactEvery > 0 && c.MemRefs%s.compactEvery == 0 {
			s.hvWork(cpu, opCompact, 0)
		}

		// Balloon inflations: if this CPU drives one, reclaim the next frame
		// burst. The flag drops once every balloon completes. This pump and
		// the migration pump below run per reference on the serial engine
		// only; the parallel engine pumps at the barrier (pumpAtBarrier).
		if pc == nil && s.ballooning {
			s.clock[cpu] += s.hyp.PumpBalloons(cpu, s.clock[cpu])
			if s.hyp.UnfinishedBalloons() == 0 {
				s.ballooning = false
			}
		}

		// Live migration: if this CPU drives a migration, perform the next
		// remap burst — the coherence storm interleaves with guest execution
		// at the BurstPages granularity. Once every migration has completed
		// the flag drops and the hot path is exactly the no-migration one.
		if pc == nil && s.migrating {
			s.clock[cpu] += s.hyp.PumpMigrations(cpu, s.clock[cpu])
			if s.hyp.UnfinishedMigrations() == 0 {
				s.migrating = false
			}
		}
	}

	// Translate, servicing nested faults through the hypervisor.
	gvp := acc.VA.Page()
	var spp arch.SPP
	var gpp arch.GPP
	for attempt := 0; ; attempt++ {
		var lat arch.Cycles
		var fault *walker.Fault
		spp, gpp, lat, fault = s.walkers[cpu].Translate(pid, gvp, s.clock[cpu])
		s.clock[cpu] += lat
		if fault == nil {
			// Copy-on-write check: a guest write to a KSM-shared page may
			// break the sharing, which remaps the page to a private frame
			// before the write completes — so the translation just
			// obtained is stale and the walk retries, exactly the
			// post-shootdown re-walk real hardware performs. On the
			// parallel engine the sharing bitmaps are frozen mid-epoch, so
			// the check is a pure read; the break itself is barrier work
			// and the epoch's write lands on the pre-break frame (see
			// opKSMBreak).
			if s.ksmOn && acc.Write {
				if pc != nil {
					if s.hyp.KSMShared(vm, gpp) {
						s.par.log.Append(cpu, opKSMBreak, packVMGPP(vm, gpp), cache.KindData, s.clock[cpu])
					}
				} else if blat, broke := s.hyp.KSMWriteBreak(cpu, vm, gpp, s.clock[cpu]); broke {
					s.clock[cpu] += blat
					continue
				}
			}
			break
		}
		if pc != nil {
			// The parallel engine parks the CPU instead of retrying: the
			// barrier runs HandleFault in merged order and unparks it, and
			// the reference resumes at this stage next epoch.
			pc.faultStreak++
			if pc.faultStreak > 64 {
				//hatric:alloc-ok cold error exit; a livelock aborts the whole run
				return fmt.Errorf("sim: CPU %d livelocked faulting on gvp %#x (parallel engine)", cpu, uint64(gvp))
			}
			pc.pendValid = true
			pc.pendAcc = acc
			pc.parked = true
			s.par.log.Append(cpu, opFault, packVMGPP(vm, fault.GPP), cache.KindData, s.clock[cpu])
			return nil
		}
		if attempt >= 4 {
			//hatric:alloc-ok cold error exit; a livelock aborts the whole run
			return fmt.Errorf("sim: CPU %d livelocked faulting on gvp %#x", cpu, uint64(gvp))
		}
		hlat, err := s.hyp.HandleFault(cpu, vm, fault.GPP, s.clock[cpu])
		if err != nil {
			return err
		}
		s.clock[cpu] += hlat
	}
	if pc != nil {
		pc.faultStreak = 0
		pc.pendValid = false
	}

	// Maintain the nested accessed bit on every reference. This is the
	// only place it is set; the walker sets none (the paper's trace-driven
	// setup gives its LRU policy precise access information; walk-time-only
	// updates would starve CLOCK of signal for exactly the protocols that
	// avoid TLB flushes). The parallel engine marks it (deduped) on the
	// CPU's lane instead of writing the shared page tables; the barrier
	// ORs the bits in before any eviction policy can read them.
	if pc != nil {
		packed := packVMGPP(vm, gpp)
		slot := (packed * 0x9E3779B97F4A7C15) >> (64 - accFilterBits)
		if pc.accFilter[slot] != packed+1 {
			pc.accFilter[slot] = packed + 1
			s.par.log.Mark(cpu, packed)
		}
	} else {
		s.vms[vm].Nested.SetAccessed(gpp, true)
	}

	// Dirty-track guest writes for an in-flight migration of this VM.
	if s.migrating && acc.Write {
		s.hvWork(cpu, opMigWrite, packVMGPP(vm, gpp))
	}

	// Stale-translation audit: the paper's correctness property is that
	// translation coherence never lets a CPU use a stale mapping. Page
	// tables are frozen mid-epoch and every remap replays at a barrier, so
	// the invariant carries over to the parallel engine unchanged.
	if s.opts.CheckStale {
		want, ok := s.vms[vm].Translate(pid, gvp)
		if !ok || want != spp {
			c.StaleTranslationUses++
			if ok {
				spp = want
			}
		}
	}

	// The data access itself. On the parallel engine, misses past the L2
	// defer (hierarchy deferredRead/deferredWrite).
	spa := spp.Addr() + arch.SPA(acc.VA.Offset())
	if acc.Write {
		s.clock[cpu] += s.hier.Write(cpu, spa, cache.KindData, s.clock[cpu])
	} else {
		s.clock[cpu] += s.hier.Read(cpu, spa, cache.KindData, s.clock[cpu])
	}

	// The vCPU retires exactly when it consumes its stream's last
	// reference: the slab is drained and the generator has nothing more to
	// fill it with. Identical timing to the unbatched stream.Done() check.
	if vc.bufPos == vc.bufLen && vc.stream.Done() {
		s.retire(cpu, vc)
	}
	return nil
}

// retire finishes vc on cpu at the CPU's current clock. Only the serial
// engine counts it out of s.active here: parallel workers must not write
// shared scalars mid-epoch, so the barrier recounts s.active instead.
func (s *System) retire(cpu int, vc *vcpuState) {
	vc.finished = true
	vc.done = s.clock[cpu]
	s.done[cpu] = s.clock[cpu]
	if s.par == nil {
		s.active--
	}
}

// hvWork performs hypervisor work op for cpu: now on the serial engine,
// or logged at the CPU's clock on the parallel one, whose barrier replays
// it through runHV at that cycle (applyEvent). The work mutates shared
// page tables and issues coherent remaps, so workers must not run it
// mid-epoch; its triggers still fire on the same per-CPU reference counts
// on both engines.
func (s *System) hvWork(cpu int, op coherence.DeferredOp, arg uint64) {
	if s.par != nil {
		s.par.log.Append(cpu, op, arg, cache.KindData, s.clock[cpu])
		return
	}
	s.runHV(cpu, op, arg, s.clock[cpu])
}

// runHV executes hypervisor work op for cpu at cycle now, charging its
// latency to cpu.
func (s *System) runHV(cpu int, op coherence.DeferredOp, arg uint64, now arch.Cycles) {
	switch op {
	case opDefrag:
		s.clock[cpu] += s.hyp.Defrag(cpu, int(arg), now)
	case opKSMScan:
		s.clock[cpu] += s.hyp.KSMScan(cpu, now)
	case opCompact:
		s.clock[cpu] += s.hyp.Compact(cpu, now)
	case opMigWrite:
		vm, gpp := unpackVMGPP(arg)
		s.hyp.NoteMigrationWrite(cpu, vm, gpp)
	}
}

// collect aggregates counters, merges translation-structure statistics, and
// evaluates the energy model.
func (s *System) collect() *Result {
	r := &Result{
		Protocol:   s.opts.Protocol,
		Completion: append([]arch.Cycles(nil), s.done...),
		VMOf:       append([]int(nil), s.vmOf...),
	}
	r.PerCPU = make([]stats.Counters, s.cfg.NumCPUs)
	r.PerVM = make([]stats.Counters, len(s.vms))
	// Merge structure-level counters the hot paths keep locally, then (for
	// scheduled machines) flush the final per-VM attribution deltas.
	for i, c := range s.cnt {
		for _, t := range s.ts[i].All() {
			c.CoTagCompares += t.CoTagCompares
			t.CoTagCompares = 0
		}
	}
	if s.sched {
		for cpu := range s.cnt {
			s.attribute(cpu, s.vmOf[cpu])
			for v := range s.perVM[cpu] {
				r.PerVM[v].Add(&s.perVM[cpu][v])
			}
		}
	}
	for i, c := range s.cnt {
		r.PerCPU[i] = *c
		r.Agg.Add(c)
		if !s.sched {
			if v := s.vmOf[i]; v >= 0 {
				r.PerVM[v].Add(c)
			}
		}
		if s.done[i] > r.Runtime {
			r.Runtime = s.done[i]
		}
		if s.clock[i] > r.Runtime {
			r.Runtime = s.clock[i]
		}
	}
	r.VMCompletion = make([]arch.Cycles, len(s.vms))
	for i := range s.vcpus {
		vc := &s.vcpus[i]
		if vc.stream == nil {
			continue
		}
		if vc.done > r.VMCompletion[vc.vm] {
			r.VMCompletion[vc.vm] = vc.done
		}
	}
	r.HBMBytes = s.mem.HBM.Bytes
	r.DRAMBytes = s.mem.DRAM.Bytes
	r.QoS = s.hyp.QoSReport()
	if s.hyp.HasMigrations() {
		r.Migrations = s.hyp.MigrationReports()
	}
	if s.hyp.HasBalloons() {
		r.Balloons = s.hyp.BalloonReports()
	}
	if s.hyp.KSMEnabled() {
		ksm := s.hyp.KSMReport()
		r.KSM = &ksm
	}
	r.Energy = energy.Compute(energy.Input{
		Cfg:        s.cfg,
		Protocol:   s.opts.Protocol,
		CoTagBytes: s.cfg.TLB.CoTagBytes,
		Agg:        r.Agg,
		Runtime:    r.Runtime,
		HBMBytes:   r.HBMBytes,
		DRAMBytes:  r.DRAMBytes,
	})
	return r
}
