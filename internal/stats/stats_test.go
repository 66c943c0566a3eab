package stats

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAddAccumulatesEveryField(t *testing.T) {
	// Fill a counter with distinct values per field via reflection, add it
	// twice, and verify every field doubled — this catches fields added to
	// the struct but forgotten in Add.
	var src Counters
	v := reflect.ValueOf(&src).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var dst Counters
	dst.Add(&src)
	dst.Add(&src)
	d := reflect.ValueOf(dst)
	for i := 0; i < d.NumField(); i++ {
		want := uint64(2 * (i + 1))
		if got := d.Field(i).Uint(); got != want {
			t.Errorf("field %s: got %d, want %d (missing from Add?)",
				d.Type().Field(i).Name, got, want)
		}
	}
}

func TestAddCommutative(t *testing.T) {
	f := func(a, b uint64) bool {
		x := Counters{MemRefs: a % 1000, Walks: b % 1000}
		y := Counters{MemRefs: b % 1000, VMExits: a % 1000}
		var ab, ba Counters
		ab.Add(&x)
		ab.Add(&y)
		ba.Add(&y)
		ba.Add(&x)
		return ab == ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubInvertsAdd(t *testing.T) {
	var a, b Counters
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(100 * (i + 1)))
		bv.Field(i).SetUint(uint64(i + 1))
	}
	sum := a
	sum.Add(&b)
	sum.Sub(&b)
	if sum != a {
		t.Errorf("Sub did not invert Add:\n%+v\nvs\n%+v", sum, a)
	}
	sum.Sub(&a)
	if sum != (Counters{}) {
		t.Errorf("Sub from self left state: %+v", sum)
	}
}

// TestCountersAreWords pins the layout Add and Sub rely on: every field
// is a uint64 and the struct holds nothing else, so it is exactly one
// word per field.
func TestCountersAreWords(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Uint64 {
			t.Errorf("field %s is %s; every counter must be a uint64", f.Name, f.Type)
		}
	}
	if got, want := unsafe.Sizeof(Counters{}), uintptr(8*typ.NumField()); got != want {
		t.Errorf("Counters is %d bytes for %d fields; want %d", got, typ.NumField(), want)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta-long-name", 42)
	out := tb.String()
	if !strings.Contains(out, "My Title") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "1.500") {
		t.Errorf("floats should render with three decimals:\n%s", out)
	}
	if !strings.Contains(out, "beta-long-name") || !strings.Contains(out, "42") {
		t.Errorf("missing row data:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("too few lines:\n%s", out)
	}
	if len(lines[0]) == 0 {
		t.Errorf("header empty")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Errorf("Ratio by zero should be 0")
	}
	if Ratio(3, 2) != 1.5 {
		t.Errorf("Ratio(3,2) = %v", Ratio(3, 2))
	}
}
