package service

import (
	"encoding/json"
	"testing"

	"cnb/internal/instance"
)

// namesJSON is ValueJSON's record case as it read fields by name: the
// first field of each name, looked up by Field.
func namesJSON(v instance.Value) any {
	t, ok := v.(*instance.Struct)
	if !ok {
		return ValueJSON(v)
	}
	m := make(map[string]any, t.NumFields())
	for i := range t.NumFields() {
		n, _ := t.FieldAt(i)
		f, _ := t.Field(n)
		m[n] = namesJSON(f)
	}
	return m
}

// TestValueJSONRecordsByIndex: reading a record's fields by index
// encodes the same JSON bytes as reading them by name, nested records
// and a repeated field name included, and allocates nothing to read
// them.
func TestValueJSONRecordsByIndex(t *testing.T) {
	inner := instance.StructOf("DOID", instance.OID{TypeName: "Doid", Serial: 3}, "X", instance.Float(0.5))
	rows := []instance.Value{
		instance.StructOf("PN", instance.Str("P000001"), "PB", instance.Int(7), "DN", instance.Str("D00001")),
		instance.StructOf("A", instance.Int(1), "In", inner, "B", instance.NewSet(inner, instance.Str("x"))),
		instance.NewStruct([]string{"A", "B", "A"}, []instance.Value{instance.Int(1), instance.Int(2), instance.Int(3)}),
		instance.NewStruct(nil, nil),
	}
	for _, r := range rows {
		got, err := json.Marshal(ValueJSON(r))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(namesJSON(r))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: %s, want %s", r, got, want)
		}
	}
	r := rows[0].(*instance.Struct)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range r.NumFields() {
			if n, v := r.FieldAt(i); n == "" || v == nil {
				t.Fatal("empty field")
			}
		}
	}); allocs != 0 {
		t.Errorf("FieldAt: %v allocs, want 0", allocs)
	}
}
