package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hatric/internal/arch"
	"hatric/internal/hv"
)

// roundTrip encodes opts with json.Marshal and decodes the result onto a
// zero Options with DecodeScenario.
func roundTrip(t *testing.T, opts Options) Options {
	t.Helper()
	data, err := json.Marshal(opts)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Options
	if err := DecodeScenario(strings.NewReader(string(data)), &back); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
	return back
}

// validEnums gives each enum type of Options a valid nonzero value.
var validEnums = map[reflect.Type]any{
	reflect.TypeOf(hv.ModeInfHBM): hv.ModeInfHBM,
	reflect.TypeOf(arch.TierDRAM): arch.TierDRAM,
}

// populate sets every leaf under v to a distinct nonzero value: each slice
// gets two elements, each pointer a target, each enum a valid nonzero
// name. A leaf kind it cannot fill fails the test, so a field added to
// Options either round-trips here or fails here.
func populate(t *testing.T, v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(t, v.Field(i), n)
		}
		return
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			populate(t, v.Index(i), n)
		}
		return
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		populate(t, v.Elem(), n)
		return
	}
	*n++
	if e, ok := validEnums[v.Type()]; ok {
		v.Set(reflect.ValueOf(e))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	default:
		t.Fatalf("populate: no value for a %s leaf", v.Type())
	}
}

func populatedOptions(t *testing.T) Options {
	var opts Options
	n := 0
	populate(t, reflect.ValueOf(&opts).Elem(), &n)
	return opts
}

// TestScenarioRoundTrip: decoding the JSON encoding of an Options gives
// back equal options, for all 88 golden scenarios and for one Options
// whose every leaf is set.
func TestScenarioRoundTrip(t *testing.T) {
	scenarios := goldenScenarios()
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, proto := range []string{"sw", "hatric", "unitd", "ideal"} {
			for _, workers := range []int{0, 4} {
				opts := scenarios[name](proto)
				opts.ParallelCPUs = workers
				if back := roundTrip(t, opts); !reflect.DeepEqual(back, opts) {
					t.Errorf("%s/%s at %d workers: round trip changed the options:\n got %+v\nwant %+v",
						name, proto, workers, back, opts)
				}
			}
		}
	}
	full := populatedOptions(t)
	if back := roundTrip(t, full); !reflect.DeepEqual(back, full) {
		t.Errorf("fully populated options changed in the round trip:\n got %+v\nwant %+v", back, full)
	}
}

// TestScenarioOverlay pins the merge behaviour hatricsim's -scenario
// relies on: fields a scenario leaves out keep their values, inside
// nested objects and existing slice elements too.
func TestScenarioOverlay(t *testing.T) {
	base := func() Options {
		spec := smokeSpec()
		return Options{
			Config:   smokeConfig(),
			Protocol: "sw",
			Paging:   hv.BestPolicy(),
			VMs: []VMSpec{
				{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{0, 1}}}},
				{Workloads: []AssignedWorkload{{Spec: spec, CPUs: []int{2, 3}}}},
			},
			Seed: 3,
		}
	}
	inf, noHBM := hv.ModeInfHBM, hv.ModeNoHBM
	for _, c := range []struct {
		scenario string
		edit     func(*Options)
	}{
		{`{"VMs":[{"QuotaShare":0.5},{}]}`, func(o *Options) { o.VMs[0].QuotaShare = 0.5 }},
		{`{"Config":{"TLB":{"CoTagBytes":3}}}`, func(o *Options) { o.Config.TLB.CoTagBytes = 3 }},
		{`{"Mode":"inf-hbm","VMs":[{},{"Mode":"no-hbm","Weight":2}]}`, func(o *Options) {
			o.Mode = inf
			o.VMs[1].Mode, o.VMs[1].Weight = &noHBM, 2
		}},
		{`{"Migrations":[{"VM":1,"At":30000,"Dest":"hbm"}]}`, func(o *Options) {
			o.Migrations = []hv.MigrationSpec{{VM: 1, At: 30_000, Dest: arch.TierHBM}}
		}},
		{`{"VMs":[{}]}`, func(o *Options) { o.VMs = o.VMs[:1] }},
	} {
		got, want := base(), base()
		if err := DecodeScenario(strings.NewReader(c.scenario), &got); err != nil {
			t.Errorf("%s: %v", c.scenario, err)
			continue
		}
		c.edit(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s overlays to\n%+v\nwant\n%+v", c.scenario, got, want)
		}
	}
}

// TestScenarioErrors: unknown fields, misspelled or numeric enums and
// trailing data are rejected.
func TestScenarioErrors(t *testing.T) {
	for _, bad := range []string{
		`{"Sed":1}`,
		`{"Config":{"TLB":{"CoTags":3}}}`,
		`{"Mode":"inf_hbm"}`,
		`{"Mode":2}`,
		`{"Migrations":[{"Dest":"ram"}]}`,
		`{"Seed":1} {}`,
		`{"Seed":1} x`,
		`{"Seed":1`,
		``,
	} {
		var opts Options
		if err := DecodeScenario(strings.NewReader(bad), &opts); err == nil {
			t.Errorf("scenario %q accepted", bad)
		}
	}
	var opts Options
	if err := DecodeScenario(strings.NewReader("{\"Seed\":1}\n\t "), &opts); err != nil || opts.Seed != 1 {
		t.Errorf("trailing whitespace rejected: %v (seed %d)", err, opts.Seed)
	}
}

// TestNonFiniteRejected: New rejects a NaN or infinite value in any
// float64 of its options, and the error names the field.
func TestNonFiniteRejected(t *testing.T) {
	opts := populatedOptions(t)
	if path, bad := nonFinite(reflect.ValueOf(&opts).Elem()); bad {
		t.Fatalf("finite options rejected at Options%s", path)
	}
	type leaf struct {
		path string
		v    reflect.Value
	}
	var leaves []leaf
	var collect func(v reflect.Value, path string)
	collect = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Float64:
			leaves = append(leaves, leaf{path, v})
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				collect(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				collect(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Pointer:
			collect(v.Elem(), path)
		}
	}
	collect(reflect.ValueOf(&opts).Elem(), "Options")
	if len(leaves) == 0 {
		t.Fatal("no float64 leaves found")
	}
	for _, l := range leaves {
		keep := l.v.Float()
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			l.v.SetFloat(bad)
			want := fmt.Sprintf("sim: %s = %v is not finite", l.path, bad)
			if _, err := New(opts); err == nil || err.Error() != want {
				t.Errorf("New returned %v, want %q", err, want)
			}
		}
		l.v.SetFloat(keep)
	}
	t.Logf("%d float64 leaves checked", len(leaves))
}
