package sim

// The epoch-barrier parallel engine (Options.ParallelCPUs > 0).
//
// Physical CPUs are sharded round-robin across ParallelCPUs persistent
// worker goroutines. The machine advances in fixed-length cycle epochs:
// within an epoch each worker runs step — the same per-reference function
// the serial engine runs — on its own pCPUs against worker-local state
// only: private caches, translation structures, per-CPU counters and
// clocks, the vCPU runqueue of each pCPU. At step's effect sites every
// cross-shard effect (shared-LLC fills, invalidation waves, directory
// updates, faults, storm daemons, copy-on-write breaks, migration dirty
// tracking) is appended to the deferred-event log (coherence.DeferredLog)
// instead of being performed: one lane per worker, in which each of the
// worker's CPUs, stepped one after another, fills one contiguous segment.
// The nested accessed bits go to the same lanes. At the epoch barrier the
// CPUs' segments are merged in (cycle, cpu) order and replayed serially
// through the serial engine's code paths. Because each CPU's epoch
// execution is a pure function of its own state plus the frozen shared
// state, and the merge order is a pure function of the per-CPU event
// streams, the results are bit-identical for every worker count —
// ParallelCPUs is a throughput knob, not a model parameter. They are
// NOT bit-identical to the serial engine: deferring shared-cache fills
// and invalidation waves to the barrier shifts LLC/directory timing, so
// parallel runs carry their own golden set (TestGoldenCountersParallel).
// See README.md, "Parallel execution", for the full argument.

import (
	"fmt"
	"sync"

	"hatric/internal/arch"
	"hatric/internal/coherence"
	"hatric/internal/workload"
)

// Simulator-defined deferred-op codes (coherence owns the codes below
// OpSimBase). All name hypervisor work, which the parallel engine
// serializes at the barrier; the serial engine runs opDefrag, opKSMScan,
// opCompact and opMigWrite inline through the same runHV.
const (
	// opFault parks the CPU on a nested page fault; the barrier runs
	// HandleFault in merged order and unparks it. Arg packs (vm, gpp).
	opFault = coherence.OpSimBase + iota
	// opDefrag runs the periodic defragmentation daemon. Arg is the VM.
	opDefrag
	// opKSMScan runs the periodic dedup scan.
	opKSMScan
	// opCompact runs the compaction daemon's window.
	opCompact
	// opKSMBreak breaks copy-on-write sharing after a guest write to a
	// KSM-shared page. Arg packs (vm, gpp). Unlike the serial engine,
	// which breaks inline and re-walks before the write completes, the
	// epoch's write lands on the pre-break frame and the break (with its
	// coherent remap) applies at the barrier — part of the parallel
	// mode's documented timing deviation.
	opKSMBreak
	// opMigWrite dirty-tracks a guest write for an in-flight migration
	// of the CPU's VM. Arg packs (vm, gpp).
	opMigWrite
)

// vmGPPShift packs (vm, gpp) into one deferred-event payload: the VM id
// takes the payload's top 8 bits, the guest physical page the 40 below
// them. checkPayloads keeps a parallel run inside both bounds.
const vmGPPShift = 40

func packVMGPP(vm int, gpp arch.GPP) uint64 {
	return uint64(vm)<<vmGPPShift | uint64(gpp)
}

func unpackVMGPP(v uint64) (int, arch.GPP) {
	return int(v >> vmGPPShift), arch.GPP(v & (1<<vmGPPShift - 1))
}

// checkPayloads rejects a parallel machine whose deferred events could not
// hold their payloads: the SPAs the hierarchy logs and the (vm, gpp)
// pairs packVMGPP builds. A VM numbers its guest physical pages densely
// from 1 and backs each with a frame of its own, so a frame count whose
// every SPA fits also keeps every guest physical page below 2^40.
func checkPayloads(mem arch.MemConfig, vms int) error {
	const maxVMs = 1 << (coherence.PayloadBits - vmGPPShift)
	if vms > maxVMs {
		return fmt.Errorf("sim: the parallel engine packs VM ids into %d bits of a deferred-event payload, so it runs at most %d VMs, not %d",
			coherence.PayloadBits-vmGPPShift, maxVMs, vms)
	}
	const maxFrames = (coherence.MaxPayload + 1) >> arch.PageShift
	frames := 0
	for _, n := range []int{mem.PTFrames, mem.HBMFrames, mem.DRAMFrames} {
		if n > maxFrames-frames {
			return fmt.Errorf("sim: the parallel engine logs system physical addresses in a %d-bit deferred-event payload, so the machine may have at most %d frames",
				coherence.PayloadBits, maxFrames)
		}
		frames += n
	}
	return nil
}

// accFilterBits sizes each CPU's direct-mapped accessed-bit dedup filter.
// The filter only suppresses duplicate log entries (the accessed-bit OR
// is idempotent), so collisions cost log space, never correctness.
const accFilterBits = 8

// parCPU is one physical CPU's worker-local epoch state.
type parCPU struct {
	// pendValid/pendAcc park an in-flight reference across a fault: the
	// barrier handles the fault, and the CPU resumes at the translate
	// stage next epoch without re-consuming the slab or re-running the
	// gap charge and daemon triggers.
	pendValid bool
	// parked stops the CPU's shard loop until the barrier unparks it.
	parked      bool
	pendAcc     workload.Access
	faultStreak int
	// steps counts references executed this epoch; the barrier uses it
	// as the balloon/migration pump budget (the serial engine pumps once
	// per reference).
	steps uint64
	// accFilter dedups the (vm, gpp) pairs the CPU marks on its lane this
	// epoch; the barrier ORs the marked nested accessed bits in.
	accFilter [1 << accFilterBits]uint64
}

// parState is the engine's run-wide state, nil on the serial path.
type parState struct {
	workers int
	epoch   arch.Cycles
	cpus    []parCPU
	log     *coherence.DeferredLog
	// start[w] carries worker w's epoch-end cycle; closing it shuts the
	// worker down. wg is the epoch barrier.
	start  []chan arch.Cycles
	wg     sync.WaitGroup
	errCPU []error
	// streams is the k-way merge's scratch: each CPU's unreplayed events.
	streams [][]coherence.DeferredEvent
}

// parInit builds the engine state and spawns the persistent workers.
// Deliberately outside the hot path: the goroutine spawns and slice
// builds here run once per System.
func (s *System) parInit() {
	if s.par != nil {
		return
	}
	epoch := s.opts.EpochCycles
	if epoch == 0 {
		epoch = DefaultEpochCycles
	}
	p := &parState{
		workers: s.opts.ParallelCPUs,
		epoch:   epoch,
		cpus:    make([]parCPU, s.cfg.NumCPUs),
		log:     coherence.NewDeferredLog(s.cfg.NumCPUs, s.opts.ParallelCPUs),
		start:   make([]chan arch.Cycles, s.opts.ParallelCPUs),
		errCPU:  make([]error, s.cfg.NumCPUs),
		streams: make([][]coherence.DeferredEvent, s.cfg.NumCPUs),
	}
	// The device queueing model assumes request times arrive near-sorted
	// (the serial min-clock schedule); barrier replay mixes per-epoch event
	// stamps with fault handling at current clocks, so the shared busy
	// horizon would turn that skew into runaway queue delays. Parallel
	// mode uses the queue-free device timing instead (part of the
	// documented timing deviation; byte and access accounting is exact).
	s.mem.SetUnordered(true)
	// The min-clock heap serves only the serial scheduler; neutralize it
	// so cross-CPU Charges during barrier replay stay plain clock adds.
	s.heap = s.heap[:0]
	for i := range s.hpos {
		s.hpos[i] = -1
	}
	s.par = p
	for w := 0; w < p.workers; w++ {
		p.start[w] = make(chan arch.Cycles, 1)
		go s.parWorker(w)
	}
}

// parStop shuts the persistent workers down after the run.
func (s *System) parStop() {
	for _, ch := range s.par.start {
		close(ch)
	}
}

// runParallel is the parallel counterpart of Run's serial loop: epochs
// until every vCPU retires. The caller's drains and collect run after,
// shared with the serial path.
func (s *System) runParallel() error {
	s.parInit()
	defer s.parStop()
	for s.active > 0 {
		if err := s.parEpoch(); err != nil {
			return err
		}
	}
	return nil
}

// parWorker is one worker goroutine: it runs its pCPU shard once per
// epoch-end received, then hits the barrier.
func (s *System) parWorker(w int) {
	for end := range s.par.start[w] {
		s.runShard(w, end)
		s.par.wg.Done()
	}
}

// runShard advances every pCPU of worker w's shard — the CPUs of lane w
// of the deferred log — to the epoch end (or until it parks on a fault or
// retires its last vCPU). Each CPU's epoch is bracketed on the lane, so
// its events form one contiguous segment there.
//
// Everything below is the parallel per-reference hot path: the gate
// sim.TestSteadyStateZeroAllocsParallel asserts steady-state epochs
// allocate nothing.
//
//hatric:hotpath
func (s *System) runShard(w int, end arch.Cycles) {
	log := s.par.log
	for cpu := range s.par.cpus {
		if log.Lane(cpu) != w {
			continue
		}
		pc := &s.par.cpus[cpu]
		log.Begin(cpu)
		for !pc.parked && s.clock[cpu] < end && s.cpuRunnable(cpu) {
			if err := s.step(cpu); err != nil {
				s.par.errCPU[cpu] = err
				break
			}
		}
		log.End(cpu)
	}
}

// parEpoch runs one epoch: fan the workers out to the next epoch-end
// boundary, then serially apply the barrier work — accessed bits, the
// merged event log, the pump budgets — and refresh the shared flags the
// workers read but must not write.
//
//hatric:hotpath
func (s *System) parEpoch() error {
	p := s.par

	// The epoch ends at the next epoch-length boundary strictly above
	// the minimum runnable clock, so the slowest CPU always advances.
	minClock, found := arch.Cycles(0), false
	for cpu := 0; cpu < s.cfg.NumCPUs; cpu++ {
		if !s.cpuRunnable(cpu) {
			continue
		}
		if !found || s.clock[cpu] < minClock {
			minClock, found = s.clock[cpu], true
		}
	}
	if !found {
		//hatric:alloc-ok cold error exit
		return fmt.Errorf("sim: parallel engine has %d active vCPUs but no runnable CPU", s.active)
	}
	end := (minClock/p.epoch + 1) * p.epoch

	// Fan out. The deferred log arms the hierarchy's deferring paths for
	// exactly the span the workers run; barrier replay below uses the
	// serial paths.
	s.hier.SetDeferredLog(p.log)
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.start[w] <- end
	}
	p.wg.Wait()
	s.hier.SetDeferredLog(nil)

	// Surface worker errors in CPU order so the reported one is
	// deterministic regardless of sharding.
	for cpu := range p.errCPU {
		if err := p.errCPU[cpu]; err != nil {
			return err
		}
	}

	// Barrier, phase 1: accessed bits first — they are idempotent ORs,
	// so any order does, and the replayed work below (evictions, scans)
	// reads them.
	for lane := 0; lane < p.log.Lanes(); lane++ {
		for _, packed := range p.log.Marks(lane) {
			vm, gpp := unpackVMGPP(packed)
			s.vms[vm].Nested.SetAccessed(gpp, true)
		}
	}
	for cpu := range p.cpus {
		clear(p.cpus[cpu].accFilter[:])
	}

	// Phase 2: replay the merged event log.
	if err := s.dispatchEvents(); err != nil {
		return err
	}

	// Phase 3: balloon and migration pumps, budgeted by each CPU's step
	// count this epoch (the serial engine pumps once per reference).
	if s.ballooning || s.migrating {
		s.pumpAtBarrier()
	}
	if s.ballooning && s.hyp.UnfinishedBalloons() == 0 {
		s.ballooning = false
	}
	if s.migrating && s.hyp.UnfinishedMigrations() == 0 {
		s.migrating = false
	}

	// Phase 4: recompute the shared progress scalar the workers could
	// not decrement, then reset the epoch logs (keeping capacity).
	active := 0
	for i := range s.vcpus {
		if s.vcpus[i].stream != nil && !s.vcpus[i].finished {
			active++
		}
	}
	s.active = active
	s.cnt[0].ParallelEpochs++
	for cpu := 0; cpu < s.cfg.NumCPUs; cpu++ {
		s.cnt[cpu].ParallelDeferred += uint64(len(p.log.CPU(cpu)))
		p.cpus[cpu].steps = 0
	}
	p.log.Reset()
	return nil
}

// dispatchEvents replays the epoch's deferred events in (cycle, cpu)
// order — a k-way merge over the per-CPU streams, each already
// cycle-sorted because a CPU's clock is monotonic. The order is a pure
// function of the streams, so every replayed directory transition and
// relay is independent of the worker count.
func (s *System) dispatchEvents() error {
	p := s.par
	for cpu := range p.streams {
		p.streams[cpu] = p.log.CPU(cpu)
	}
	for {
		best := -1
		var bestCycle arch.Cycles
		for cpu, ev := range p.streams {
			if len(ev) > 0 && (best < 0 || ev[0].Cycle < bestCycle) {
				best, bestCycle = cpu, ev[0].Cycle
			}
		}
		if best < 0 {
			return nil
		}
		ev := p.streams[best][0]
		p.streams[best] = p.streams[best][1:]
		if err := s.applyEvent(best, ev); err != nil {
			return err
		}
	}
}

// applyEvent replays one deferred event through the serial engine's
// paths. Replay latency lands on the issuing CPU's clock; `now` is the
// cycle the event was logged at, so directory and shootdown timing sees
// the same instant the serial engine would have.
func (s *System) applyEvent(cpu int, ev coherence.DeferredEvent) error {
	arg := ev.Payload()
	switch op := ev.Op(); op {
	case coherence.OpRead:
		s.clock[cpu] += s.hier.Read(cpu, arch.SPA(arg), ev.Kind(), ev.Cycle)
	case coherence.OpWrite:
		s.clock[cpu] += s.hier.Write(cpu, arch.SPA(arg), ev.Kind(), ev.Cycle)
	case coherence.OpTSFill:
		s.hier.NoteTranslationFill(cpu, arch.SPA(arg), ev.Kind())
	case coherence.OpTSEvict:
		s.hier.NoteTranslationEviction(cpu, arch.SPA(arg), ev.Kind())
	case opFault:
		vm, gpp := unpackVMGPP(arg)
		lat, err := s.hyp.HandleFault(cpu, vm, gpp, s.clock[cpu])
		if err != nil {
			return err
		}
		s.clock[cpu] += lat
		s.par.cpus[cpu].parked = false
	case opKSMBreak:
		// A later same-page event this epoch may find the sharing
		// already broken; KSMWriteBreak then reports no break, cost-free.
		vm, gpp := unpackVMGPP(arg)
		lat, _ := s.hyp.KSMWriteBreak(cpu, vm, gpp, ev.Cycle)
		s.clock[cpu] += lat
	case opDefrag, opKSMScan, opCompact, opMigWrite:
		s.runHV(cpu, op, arg, ev.Cycle)
	}
	return nil
}

// pumpAtBarrier drives balloon and migration bursts the serial engine
// interleaves per reference: up to one pump per reference the CPU
// executed this epoch, stopping early once a pump makes no progress
// (not yet triggered, or this CPU drives nothing). drainMigrations and
// drainBalloons still complete any work outlasting the last stream.
func (s *System) pumpAtBarrier() {
	for cpu := 0; cpu < s.cfg.NumCPUs; cpu++ {
		budget := s.par.cpus[cpu].steps
		if s.ballooning {
			for i := uint64(0); i < budget; i++ {
				lat := s.hyp.PumpBalloons(cpu, s.clock[cpu])
				if lat == 0 {
					break
				}
				s.clock[cpu] += lat
			}
		}
		if s.migrating {
			for i := uint64(0); i < budget; i++ {
				lat := s.hyp.PumpMigrations(cpu, s.clock[cpu])
				if lat == 0 {
					break
				}
				s.clock[cpu] += lat
			}
		}
	}
}
