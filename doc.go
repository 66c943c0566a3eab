// Package hatric is a from-scratch reproduction of "Hardware Translation
// Coherence for Virtualized Systems" (Yan, Cox, Veselý, Bhattacharjee;
// 2017): a simulated virtualized machine running N consolidated VMs with
// two-dimensional page tables, TLB/MMU-cache/nTLB translation structures,
// a directory-based MESI cache hierarchy, a two-tier (die-stacked +
// off-chip) memory system, a paging hypervisor, and four VM-scoped
// translation-coherence protocols — today's software shootdowns, HATRIC's
// co-tag piggybacking, an upgraded UNITD, and an ideal zero-overhead
// bound.
//
// # Live migration
//
// Beyond the paper, the hypervisor can live-migrate a whole VM between
// memory tiers (or over a bandwidth-limited remote link): the pre-copy
// engine in internal/hv iterates the VM's nested page table and remaps
// every resident page through the regular Protocol.OnRemap path in
// configurable bursts, racing a write-tracked dirty set round by round
// until a final stop-and-copy whose duration is the measured downtime —
// the harshest translation-coherence storm the machine can produce. Drive
// it with sim.Options.Migrations (a `hatricsim -scenario` file's
// "Migrations"), the examples/migration walkthrough, or
// `paperfigs -fig migration`.
//
// # vCPU overcommit
//
// The machine can run more vCPUs than physical CPUs: a round-robin
// quantum scheduler (sim.Options.VCPUsPerCPU, SchedQuantum) time-slices
// vCPU slots onto physical CPUs, made safe by VPID tags on every
// translation-structure entry — lookups, fills, invalidations, and
// flushes are VM-qualified, so VMs sharing a CPU never see each other's
// translations and a world switch needs no flush (Options.FlushOnVMSwitch
// restores the VPID-less flush baseline). Software shootdowns then pay
// the paper's headline consolidation cost: an IPI to a descheduled vCPU
// stalls the initiator until that vCPU's next quantum
// (DescheduledStallCycles), while HATRIC's invalidations need no vCPU to
// execute. Drive it with `hatricsim -vcpus` (a scenario file sets
// "SchedQuantum"), the examples/overcommit walkthrough, or
// `paperfigs -fig overcommit`.
//
// # Per-VM QoS tiers
//
// Every QoS knob lives per VM on sim.VMSpec, with the machine-wide
// Options values as the inherited defaults: placement mode (one VM can
// be pinned fully die-stacked while neighbors page), paging
// configuration (policy, daemon, prefetch, defrag), a die-stacked quota
// (absolute frames, a capacity share, or a proportional weight), and a
// scheduler quantum weight. Capacity pressure flows through a
// quota-aware victim selector: a VM over its fair share is the
// preferred eviction victim and a VM at-or-under its reserved share is
// never stolen from, so a noisy neighbor's paging can no longer force
// shootdowns onto a protected, latency-sensitive VM. Result.QoS reports
// each VM's reservation, residency, and stolen frames. Drive it with
// the VMSpec fields (a `hatricsim -scenario` file's "VMs"), the
// examples/qos walkthrough, or `paperfigs -fig qos`.
//
// # Performance and determinism
//
// The per-reference hot path is allocation-free in steady state: the
// coherence directory is an open-addressed table of inline entries with
// an insertion-order eviction ring where capacity eviction is reachable,
// cache and translation-structure metadata are flat packed arrays with
// exact rank-based LRU, the run loop's min-clock scheduling uses an
// indexed heap, and the page-table leaf caches are dense paged slices.
// These flattened structures are guaranteed to be bit-identical in
// behavior to the map-and-scan implementations they replaced — eviction
// order, LRU victims, and tie-breaks included — so identical seeds keep
// producing identical Result counters; internal/sim's golden-counter
// fingerprints and steady-state zero-allocation test enforce both
// properties in CI.
//
// # Parallel execution
//
// An opt-in engine (sim.Options.ParallelCPUs, `hatricsim -parallel`)
// shards the physical CPUs across worker goroutines and advances the
// machine in fixed-length cycle epochs. Within an epoch each worker runs
// the serial engine's per-reference function on its own CPUs, touching
// only per-CPU state — private caches, translation structures, clocks,
// counters — against a frozen view of the shared machine; every
// cross-shard effect (shared-cache fills, invalidation relays, directory
// updates, page faults, storm daemons) is appended to a deferred log,
// one lane per worker in which each of its CPUs fills one contiguous
// segment. At the epoch barrier the CPUs' segments are merged in (cycle,
// cpu) order and replayed serially through the serial code paths.
//
// Why this preserves determinism: each CPU's epoch execution is a pure
// function of its own state plus the frozen shared state, and the merge
// order is a pure function of the per-CPU event streams — neither
// depends on how CPUs are assigned to workers or on goroutine
// scheduling, so every worker count produces bit-identical results
// (ParallelCPUs is a throughput knob, not a model parameter). What the
// deferral does change is *when* shared-state transitions happen
// relative to the serial engine — a fill that would have landed
// mid-epoch lands at the barrier in cycle order instead — so parallel
// runs are a documented statistical variant of the serial machine with
// their own golden set, approximating the serial interleaving to within
// one epoch of timing skew. Counters the deferral provably cannot shift
// (instruction and reference counts; the whole translation-structure
// block on remap-free machines) are asserted equal to the serial engine
// in internal/sim's parallel tests. See README.md, "Parallel execution",
// for the epoch-length tradeoff and the enumerated timing deviations.
//
// See README.md for a package tour and how to run the examples,
// benchmarks, and figure regeneration. The benchmarks in bench_test.go
// regenerate every figure of the paper's evaluation.
package hatric
