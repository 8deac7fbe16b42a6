package types

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBaseTypeSingletons(t *testing.T) {
	if Int() != Int() {
		t.Error("Int() should return a singleton")
	}
	if Float() != Float() {
		t.Error("Float() should return a singleton")
	}
	if StringT() != StringT() {
		t.Error("StringT() should return a singleton")
	}
	if Bool() != Bool() {
		t.Error("Bool() should return a singleton")
	}
}

func TestOIDEquality(t *testing.T) {
	if !OID("Doid").Equal(OID("Doid")) {
		t.Error("same-named OID types must be equal")
	}
	if OID("Doid").Equal(OID("Eoid")) {
		t.Error("differently-named OID types must differ")
	}
	if OID("Doid").Equal(Int()) {
		t.Error("oid must not equal int")
	}
}

func TestStructEquality(t *testing.T) {
	a := StructOf(F("A", Int()), F("B", StringT()))
	b := StructOf(F("A", Int()), F("B", StringT()))
	c := StructOf(F("B", StringT()), F("A", Int()))
	if !a.Equal(b) {
		t.Error("identical structs must be equal")
	}
	if a.Equal(c) {
		t.Error("field order is significant")
	}
	d := StructOf(F("A", Int()))
	if a.Equal(d) {
		t.Error("different arity structs must differ")
	}
}

func TestSetAndDictEquality(t *testing.T) {
	s1 := SetOf(Int())
	s2 := SetOf(Int())
	if !s1.Equal(s2) {
		t.Error("set<int> == set<int>")
	}
	if s1.Equal(SetOf(StringT())) {
		t.Error("set<int> != set<string>")
	}
	d1 := DictOf(StringT(), SetOf(Int()))
	d2 := DictOf(StringT(), SetOf(Int()))
	if !d1.Equal(d2) {
		t.Error("identical dicts must be equal")
	}
	if d1.Equal(DictOf(Int(), SetOf(Int()))) {
		t.Error("dict key type is significant")
	}
	if d1.Equal(s1) {
		t.Error("dict != set")
	}
}

func TestNilEquality(t *testing.T) {
	var n *Type
	if n.Equal(Int()) {
		t.Error("nil must not equal int")
	}
	if Int().Equal(nil) {
		t.Error("int must not equal nil")
	}
}

func TestFieldType(t *testing.T) {
	s := StructOf(F("PName", StringT()), F("Budg", Int()))
	if got := s.FieldType("PName"); !got.Equal(StringT()) {
		t.Errorf("FieldType(PName) = %v, want string", got)
	}
	if got := s.FieldType("Budg"); !got.Equal(Int()) {
		t.Errorf("FieldType(Budg) = %v, want int", got)
	}
	if got := s.FieldType("Nope"); got != nil {
		t.Errorf("FieldType(Nope) = %v, want nil", got)
	}
	if got := Int().FieldType("A"); got != nil {
		t.Errorf("FieldType on int = %v, want nil", got)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		t    *Type
		want string
	}{
		{Int(), "int"},
		{StringT(), "string"},
		{Bool(), "bool"},
		{Float(), "float"},
		{OID("Doid"), "Doid"},
		{SetOf(Int()), "set<int>"},
		{DictOf(StringT(), Int()), "dict<string, int>"},
		{StructOf(F("A", Int()), F("B", SetOf(StringT()))), "{A: int, B: set<string>}"},
		{DictOf(OID("Doid"), StructOf(F("DName", StringT()))), "dict<Doid, {DName: string}>"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := []*Type{
		Int(),
		SetOf(StructOf(F("A", Int()))),
		DictOf(StringT(), SetOf(Int())),
		DictOf(StructOf(F("K", Int()), F("L", StringT())), Int()),
		OID("X"),
	}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", g, err)
		}
	}
	bad := []*Type{
		DictOf(SetOf(Int()), Int()),                      // set-typed key
		DictOf(StructOf(F("K", SetOf(Int()))), Int()),    // nested collection in key
		DictOf(DictOf(StringT(), Int()), Int()),          // dict-typed key
		{Kind: KindOID},                                  // nameless oid
		{Kind: KindStruct, Fields: []Field{{"", Int()}}}, // empty field name
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("Validate(%s) = nil, want error", b)
		}
	}
}

func TestValidateDuplicateField(t *testing.T) {
	tt := &Type{Kind: KindStruct, Fields: []Field{{"A", Int()}, {"A", Int()}}}
	if err := tt.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Validate dup field = %v, want duplicate error", err)
	}
}

func TestStructOfPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("StructOf with duplicate fields should panic")
		}
	}()
	StructOf(F("A", Int()), F("A", StringT()))
}

func TestContainsCollection(t *testing.T) {
	if Int().ContainsCollection() {
		t.Error("int contains no collection")
	}
	if !SetOf(Int()).ContainsCollection() {
		t.Error("set<int> contains a collection")
	}
	if !StructOf(F("A", StructOf(F("B", DictOf(StringT(), Int()))))).ContainsCollection() {
		t.Error("nested dict must be detected")
	}
	if StructOf(F("A", Int()), F("B", OID("X"))).ContainsCollection() {
		t.Error("flat struct of base types contains no collection")
	}
}

func TestIsBase(t *testing.T) {
	for _, b := range []*Type{Int(), Float(), StringT(), Bool(), OID("Z")} {
		if !b.IsBase() {
			t.Errorf("%s should be base", b)
		}
	}
	for _, nb := range []*Type{SetOf(Int()), DictOf(Int(), Int()), StructOf()} {
		if nb.IsBase() {
			t.Errorf("%s should not be base", nb)
		}
	}
}

// TestEqualReflexiveSymmetric exercises Equal with quick-generated shapes
// built from a small constructor alphabet.
func TestEqualReflexiveSymmetric(t *testing.T) {
	gen := func(seed int64) *Type {
		// Deterministic small type from a seed.
		if seed < 0 {
			seed = -(seed + 1) // avoid MinInt64 overflow
		}
		bases := []*Type{Int(), Float(), StringT(), Bool(), OID("A"), OID("B")}
		b := bases[seed%int64(len(bases))]
		switch (seed / 7) % 4 {
		case 0:
			return b
		case 1:
			return SetOf(b)
		case 2:
			return DictOf(StringT(), b)
		default:
			return StructOf(F("X", b), F("Y", Int()))
		}
	}
	f := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		if !a.Equal(a) || !b.Equal(b) {
			return false
		}
		return a.Equal(b) == b.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
