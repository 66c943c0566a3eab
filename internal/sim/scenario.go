package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
)

// DecodeScenario decodes the JSON object read from r onto *opts. The
// object is the Options encoding itself: json.Marshal(opts) writes one,
// with enums (hv.PlacementMode, arch.MemTier) by name. A field the object
// names replaces the value in *opts, and a nested object or an array
// element that already exists in *opts is decoded into, so fields the
// object leaves out keep their values: {"VMs":[{"QuotaShare":0.5},{}]}
// reserves half the die-stacked tier for VM 0 and keeps both VMs'
// workloads. An array sets its slice's length, so it must list every
// element the caller wants to keep. Unknown fields, misspelled enum names
// and data after the object are errors.
func DecodeScenario(r io.Reader, opts *Options) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(opts); err != nil {
		return fmt.Errorf("sim: scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("sim: scenario: data after the options object")
	}
	return nil
}

// nonFinite reports whether v holds a NaN or infinite float64 leaf, and
// the Go path from v to the first one. New rejects such options, and
// encoding/json refuses exactly those values, so every Options that New
// accepts encodes. The path is built only on the way out of a failure,
// so a finite walk formats nothing.
func nonFinite(v reflect.Value) (string, bool) {
	switch v.Kind() {
	case reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Sprintf(" = %v", f), true
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if path, ok := nonFinite(v.Field(i)); ok {
				return "." + v.Type().Field(i).Name + path, true
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if path, ok := nonFinite(v.Index(i)); ok {
				return fmt.Sprintf("[%d]%s", i, path), true
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			return nonFinite(v.Elem())
		}
	}
	return "", false
}
