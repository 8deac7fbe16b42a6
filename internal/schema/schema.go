// Package schema defines catalogs: named, typed schema elements plus the
// constraints (EPCDs) that hold on them. The optimizer works with two
// catalogs — a logical schema Λ and a physical schema Φ — related by
// constraints that capture the implementation mapping (Figure 1 of
// Deutsch, Popa, Tannen, VLDB 1999). The two need not be disjoint: in the
// running example the relation Proj belongs to both.
package schema

import (
	"fmt"
	"sort"

	"cnb/internal/core"
	"cnb/internal/types"
)

// Element is a named schema member: a relation (set type), a dictionary,
// or any other named value.
type Element struct {
	Name string
	Type *types.Type
	// Doc is an optional human-readable description.
	Doc string
}

// Schema is a catalog of elements and the constraints over them.
type Schema struct {
	Name     string
	elements map[string]*Element
	order    []string
	deps     []*core.Dependency
}

// New creates an empty schema with the given name.
func New(name string) *Schema {
	return &Schema{Name: name, elements: map[string]*Element{}}
}

// AddElement declares a named element. It returns an error on duplicate
// names or ill-formed types.
func (s *Schema) AddElement(name string, t *types.Type, doc string) error {
	if name == "" {
		return fmt.Errorf("schema %s: empty element name", s.Name)
	}
	if _, dup := s.elements[name]; dup {
		return fmt.Errorf("schema %s: duplicate element %q", s.Name, name)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("schema %s: element %q: %w", s.Name, name, err)
	}
	s.elements[name] = &Element{Name: name, Type: t, Doc: doc}
	s.order = append(s.order, name)
	return nil
}

// MustAddElement is AddElement that panics on error; intended for
// programmatic catalog construction in tests and examples.
func (s *Schema) MustAddElement(name string, t *types.Type, doc string) {
	if err := s.AddElement(name, t, doc); err != nil {
		panic(err)
	}
}

// Element returns the named element, or nil.
func (s *Schema) Element(name string) *Element { return s.elements[name] }

// Has reports whether the schema declares the name.
func (s *Schema) Has(name string) bool { return s.elements[name] != nil }

// Elements returns all elements in declaration order.
func (s *Schema) Elements() []*Element {
	out := make([]*Element, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.elements[n])
	}
	return out
}

// Names returns the declared names in declaration order.
func (s *Schema) Names() []string {
	return append([]string(nil), s.order...)
}

// NameSet returns the declared names as a set.
func (s *Schema) NameSet() map[string]bool {
	m := make(map[string]bool, len(s.order))
	for _, n := range s.order {
		m[n] = true
	}
	return m
}

// AddDependency attaches a constraint to the schema after validating it
// and checking that every schema name it mentions is declared.
func (s *Schema) AddDependency(d *core.Dependency) error {
	if err := d.Validate(); err != nil {
		return err
	}
	for n := range d.Names() {
		if !s.Has(n) {
			return fmt.Errorf("schema %s: dependency %s mentions undeclared name %q", s.Name, d.Name, n)
		}
	}
	s.deps = append(s.deps, d)
	return nil
}

// Dependencies returns the schema's constraints in declaration order.
func (s *Schema) Dependencies() []*core.Dependency {
	return append([]*core.Dependency(nil), s.deps...)
}

// TypeOfTerm infers the type of a ground-rooted term under the schema and
// an environment assigning types to variables. It returns an error for
// untypable terms — the static check the parser and validators rely on.
func (s *Schema) TypeOfTerm(t *core.Term, env map[string]*types.Type) (*types.Type, error) {
	switch t.Kind {
	case core.KVar:
		if ty, ok := env[t.Name]; ok {
			return ty, nil
		}
		return nil, fmt.Errorf("schema %s: unbound variable %q", s.Name, t.Name)
	case core.KConst:
		switch t.Val.(type) {
		case int64:
			return types.Int(), nil
		case float64:
			return types.Float(), nil
		case string:
			return types.StringT(), nil
		case bool:
			return types.Bool(), nil
		}
		return nil, fmt.Errorf("schema %s: unknown constant type %T", s.Name, t.Val)
	case core.KName:
		e := s.Element(t.Name)
		if e == nil {
			return nil, fmt.Errorf("schema %s: undeclared name %q", s.Name, t.Name)
		}
		return e.Type, nil
	case core.KProj:
		bt, err := s.TypeOfTerm(t.Base, env)
		if err != nil {
			return nil, err
		}
		ft := bt.FieldType(t.Name)
		if ft == nil {
			return nil, fmt.Errorf("schema %s: type %s has no field %q", s.Name, bt, t.Name)
		}
		return ft, nil
	case core.KDom:
		bt, err := s.TypeOfTerm(t.Base, env)
		if err != nil {
			return nil, err
		}
		if bt.Kind != types.KindDict {
			return nil, fmt.Errorf("schema %s: dom of non-dictionary type %s", s.Name, bt)
		}
		return types.SetOf(bt.Key), nil
	case core.KLookup:
		bt, err := s.TypeOfTerm(t.Base, env)
		if err != nil {
			return nil, err
		}
		if bt.Kind != types.KindDict {
			return nil, fmt.Errorf("schema %s: lookup into non-dictionary type %s", s.Name, bt)
		}
		kt, err := s.TypeOfTerm(t.Key, env)
		if err != nil {
			return nil, err
		}
		if !kt.Equal(bt.Key) {
			return nil, fmt.Errorf("schema %s: lookup key type %s, dictionary expects %s", s.Name, kt, bt.Key)
		}
		if t.NonFailing {
			if bt.Elem.Kind != types.KindSet {
				return nil, fmt.Errorf("schema %s: non-failing lookup needs set-valued entries, got %s", s.Name, bt.Elem)
			}
		}
		return bt.Elem, nil
	case core.KStruct:
		fs := make([]types.Field, len(t.Fields))
		seen := map[string]bool{}
		for i, f := range t.Fields {
			if seen[f.Name] {
				return nil, fmt.Errorf("schema %s: duplicate struct field %q in %s", s.Name, f.Name, t)
			}
			seen[f.Name] = true
			ft, err := s.TypeOfTerm(f.Term, env)
			if err != nil {
				return nil, err
			}
			fs[i] = types.F(f.Name, ft)
		}
		return types.StructOf(fs...), nil
	}
	return nil, fmt.Errorf("schema %s: cannot type term %s", s.Name, t)
}

// elemType returns the element type when iterating over a range of the
// given type: sets iterate their elements.
func elemType(t *types.Type) (*types.Type, error) {
	if t.Kind == types.KindSet {
		return t.Elem, nil
	}
	return nil, fmt.Errorf("schema: range of non-set type %s", t)
}

// CheckQuery type-checks a PC query against the schema: every range must
// be set-typed (dictionaries are iterated via dom), conditions must
// compare equal base (or flat-record) types, and the output must be
// typable. It returns the output type.
func (s *Schema) CheckQuery(q *core.Query) (*types.Type, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	env := map[string]*types.Type{}
	for _, b := range q.Bindings {
		rt, err := s.TypeOfTerm(b.Range, env)
		if err != nil {
			return nil, err
		}
		et, err := elemType(rt)
		if err != nil {
			return nil, fmt.Errorf("binding %s: %w", b.Var, err)
		}
		env[b.Var] = et
	}
	for _, c := range q.Conds {
		lt, err := s.TypeOfTerm(c.L, env)
		if err != nil {
			return nil, err
		}
		rt, err := s.TypeOfTerm(c.R, env)
		if err != nil {
			return nil, err
		}
		if !lt.Equal(rt) {
			return nil, fmt.Errorf("condition %s compares %s with %s", c, lt, rt)
		}
		if lt.ContainsCollection() {
			return nil, fmt.Errorf("condition %s compares collection-typed values (violates PC restriction)", c)
		}
	}
	ot, err := s.TypeOfTerm(q.Out, env)
	if err != nil {
		return nil, err
	}
	if ot.ContainsCollection() {
		return nil, fmt.Errorf("output type %s contains a collection (violates PC restriction)", ot)
	}
	return ot, nil
}

// CheckDependency type-checks an EPCD against the schema.
func (s *Schema) CheckDependency(d *core.Dependency) error {
	if err := d.Validate(); err != nil {
		return err
	}
	env := map[string]*types.Type{}
	bindSeq := func(bs []core.Binding) error {
		for _, b := range bs {
			rt, err := s.TypeOfTerm(b.Range, env)
			if err != nil {
				return err
			}
			et, err := elemType(rt)
			if err != nil {
				return fmt.Errorf("dependency %s, binding %s: %w", d.Name, b.Var, err)
			}
			env[b.Var] = et
		}
		return nil
	}
	condSeq := func(cs []core.Cond) error {
		for _, c := range cs {
			lt, err := s.TypeOfTerm(c.L, env)
			if err != nil {
				return err
			}
			rt, err := s.TypeOfTerm(c.R, env)
			if err != nil {
				return err
			}
			if !lt.Equal(rt) {
				return fmt.Errorf("dependency %s: condition %s compares %s with %s", d.Name, c, lt, rt)
			}
		}
		return nil
	}
	if err := bindSeq(d.Premise); err != nil {
		return err
	}
	if err := condSeq(d.PremiseConds); err != nil {
		return err
	}
	if err := bindSeq(d.Conclusion); err != nil {
		return err
	}
	return condSeq(d.ConclusionConds)
}

// Merge returns a new schema containing the elements and dependencies of
// both schemas. Shared element names must agree on their types (the
// logical and physical schema overlap on directly-stored relations).
func Merge(name string, a, b *Schema) (*Schema, error) {
	m := New(name)
	for _, e := range a.Elements() {
		m.MustAddElement(e.Name, e.Type, e.Doc)
	}
	for _, e := range b.Elements() {
		if prev := m.Element(e.Name); prev != nil {
			if !prev.Type.Equal(e.Type) {
				return nil, fmt.Errorf("schema merge: %q has type %s in %s but %s in %s",
					e.Name, prev.Type, a.Name, e.Type, b.Name)
			}
			continue
		}
		m.MustAddElement(e.Name, e.Type, e.Doc)
	}
	seen := map[string]bool{}
	for _, d := range append(a.Dependencies(), b.Dependencies()...) {
		key := d.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		if err := m.AddDependency(d); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// String lists the schema's elements and constraints.
func (s *Schema) String() string {
	out := fmt.Sprintf("schema %s {\n", s.Name)
	for _, e := range s.Elements() {
		out += fmt.Sprintf("  %s : %s\n", e.Name, e.Type)
	}
	names := make([]string, 0, len(s.deps))
	for _, d := range s.deps {
		names = append(names, "  constraint "+d.String())
	}
	sort.Strings(names)
	for _, n := range names {
		out += n + "\n"
	}
	return out + "}"
}
