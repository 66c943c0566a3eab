package main

import (
	"fmt"

	"hatric/internal/arch"
	"hatric/internal/hv"
	"hatric/internal/sim"
	"hatric/internal/workload"
)

// protocols are the two cells of every workload: the software shootdown
// baseline and HATRIC, run on identical options.
var protocols = [2]string{"sw", "hatric"}

// benchWorkload is one cell pair. options builds the machine for a seed
// and a per-vCPU reference count; the protocol is filled in per cell.
type benchWorkload struct {
	name    string
	refs    uint64
	options func(seed, refs uint64) (sim.Options, error)
}

// workloads are chosen so each remap source has a workload that exercises
// it and one that bypasses it: resident is the no-remap control,
// paging_storm is demand paging, vm_churn is every other remap source
// (KSM, balloon, compaction, migration, vCPU scheduling), and parallel_2w
// is the only one on the epoch-barrier engine.
var workloads = []benchWorkload{
	{
		name: "resident",
		refs: 200_000,
		options: func(seed, refs uint64) (sim.Options, error) {
			spec, err := preset("fluidanimate", refs)
			if err != nil {
				return sim.Options{}, err
			}
			cfg := arch.DefaultConfig()
			sim.SizeConfig(&cfg, spec.FootprintPages, hv.ModePaged)
			return sim.Options{
				Config:    cfg,
				Paging:    hv.BestPolicy(),
				Mode:      hv.ModePaged,
				Workloads: sim.SingleWorkload(spec, cfg.NumCPUs),
				Seed:      seed,
			}, nil
		},
	},
	{
		name: "paging_storm",
		refs: 250_000,
		options: func(seed, refs uint64) (sim.Options, error) {
			spec, err := workload.ByName("tunkrank")
			if err != nil {
				return sim.Options{}, err
			}
			// Refs is set directly, not through WithRefs, to keep the
			// preset drift rate per reference.
			spec.Refs = refs
			cfg := arch.DefaultConfig()
			sim.SizeConfig(&cfg, spec.FootprintPages, hv.ModePaged)
			return sim.Options{
				Config:    cfg,
				Paging:    hv.BestPolicy(),
				Mode:      hv.ModePaged,
				Workloads: sim.SingleWorkload(spec, cfg.NumCPUs),
				Seed:      seed,
			}, nil
		},
	},
	{
		name: "vm_churn",
		refs: 55_000,
		options: func(seed, refs uint64) (sim.Options, error) {
			spec, err := preset("canneal", refs)
			if err != nil {
				return sim.Options{}, err
			}
			const pcpus, ratio = 8, 2
			vms := sim.StripedVMs(spec, pcpus, ratio)
			cfg := arch.DefaultConfig()
			cfg.NumCPUs = pcpus
			sim.SizeConfigVMs(&cfg, vms, hv.ModePaged)
			cfg.Mem.HBMFrames = 1536
			return sim.Options{
				Config:      cfg,
				Paging:      hv.PagingConfig{Policy: "lru", Daemon: true},
				Mode:        hv.ModePaged,
				VMs:         vms,
				VCPUsPerCPU: ratio,
				KSM:         hv.KSMConfig{ScanEvery: 300, PagesPerScan: 16, SharingFactor: 0.6, BreakRate: 0.1},
				Balloons:    []hv.BalloonSpec{{VM: 1, At: 20_000_000, Frames: 64}},
				Compaction:  hv.CompactionConfig{Every: 400, WindowPages: 4},
				Migrations:  []hv.MigrationSpec{{VM: 0, At: 40_000_000, Dest: arch.TierDRAM, BurstPages: 8}},
				Seed:        seed,
			}, nil
		},
	},
	{
		name: "parallel_2w",
		refs: 250_000,
		options: func(seed, refs uint64) (sim.Options, error) {
			spec, err := preset("data_caching", refs)
			if err != nil {
				return sim.Options{}, err
			}
			vms := []sim.VMSpec{
				{Workloads: []sim.AssignedWorkload{{Spec: spec, CPUs: []int{0, 1, 2, 3}}}},
				{Workloads: []sim.AssignedWorkload{{Spec: spec, CPUs: []int{4, 5, 6, 7}}}},
			}
			cfg := arch.DefaultConfig()
			cfg.NumCPUs = 8
			sim.SizeConfigVMs(&cfg, vms, hv.ModePaged)
			cfg.Mem.HBMFrames = 1536
			return sim.Options{
				Config:       cfg,
				Paging:       hv.BestPolicy(),
				Mode:         hv.ModePaged,
				VMs:          vms,
				Seed:         seed,
				ParallelCPUs: 2,
			}, nil
		},
	},
}

// preset returns a named workload scaled to refs references per vCPU.
func preset(name string, refs uint64) (workload.Spec, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return workload.Spec{}, err
	}
	return spec.WithRefs(refs), nil
}

func workloadByName(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pair is one workload's cell pair at a fixed seed and length: the same
// options under each protocol.
type pair struct {
	name  string
	cells [2]sim.Options
	// vcpuRefs is the reference count every cell must retire: vCPUs x refs.
	vcpuRefs uint64
}

func (w *benchWorkload) pair(seed, refs uint64) (pair, error) {
	opts, err := w.options(seed, refs)
	if err != nil {
		return pair{}, fmt.Errorf("%s: %w", w.name, err)
	}
	p := pair{name: w.name}
	for i, proto := range protocols {
		p.cells[i] = opts
		p.cells[i].Protocol = proto
	}
	vms := opts.VMs
	if len(vms) == 0 {
		vms = sim.OneVM(opts.Workloads)
	}
	for _, vm := range vms {
		for _, aw := range vm.Workloads {
			p.vcpuRefs += uint64(len(aw.CPUs)) * refs
		}
	}
	return p, nil
}
