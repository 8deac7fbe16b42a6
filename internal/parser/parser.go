package parser

import (
	"fmt"
	"sort"

	"cnb/internal/core"
	"cnb/internal/physical"
	"cnb/internal/schema"
	"cnb/internal/types"
)

// Document is the result of parsing a source file: named schemas, physical
// designs and queries.
type Document struct {
	// Schemas maps schema names to catalogs (elements + constraints).
	Schemas map[string]*schema.Schema
	// Designs maps design names to built physical designs.
	Designs map[string]*DesignResult
	// Queries maps query names to type-checked queries. Each query is
	// checked against the union of all schemas declared before it.
	Queries map[string]*core.Query
	// Order preserves declaration order of queries.
	QueryOrder []string

	// env is the shared design environment the document's queries were
	// parsed against when it came from a DesignCache, nil otherwise.
	env *designEnv
}

// DesignResult is a compiled "design ... over ..." block.
type DesignResult struct {
	// Name is the design's name.
	Name string
	// Base is the logical schema the design is over.
	Base *schema.Schema
	// Physical declares the design's physical structures.
	Physical *schema.Schema
	// Combined is Base ∪ Physical, used for typing queries and plans.
	Combined *schema.Schema
	// Deps is D′: the implementation-mapping dependencies.
	Deps []*core.Dependency
}

// Target is what a document's queries are optimized against.
type Target struct {
	// Design is the picked design, nil when the queries are optimized
	// against the logical constraints only.
	Design *DesignResult
	// Deps is D ∪ D′: the design's dependencies, then every schema's in
	// schema-name order.
	Deps []*core.Dependency
	// PhysicalNames are the design's physical schema names (nil without
	// a design).
	PhysicalNames map[string]bool
}

// Target picks the design named by design and assembles the dependency
// set. An explicit name must exist; with exactly one design it is
// implied; with none (or several and no name) the queries are optimized
// against the logical constraints only. The dependency order is a
// function of the document alone, so identical documents give identical
// dependency lists — and hence identical plan-cache keys.
//
// For a document from a DesignCache the target of each design name is
// built once per cached design and shared by every document parsed
// against it, so its Deps and PhysicalNames must be treated as
// read-only.
func (d *Document) Target(design string) (*Target, error) {
	if d.env != nil {
		return d.env.target(design)
	}
	return d.target(design)
}

// target builds the document's target afresh (see Target).
func (d *Document) target(design string) (*Target, error) {
	t := &Target{}
	if design != "" {
		t.Design = d.Designs[design]
		if t.Design == nil {
			return nil, fmt.Errorf("unknown design %q", design)
		}
	} else if len(d.Designs) == 1 {
		for _, dr := range d.Designs {
			t.Design = dr
		}
	}
	if t.Design != nil {
		t.Deps = append(t.Deps, t.Design.Deps...)
		t.PhysicalNames = t.Design.Physical.NameSet()
	}
	names := make([]string, 0, len(d.Schemas))
	for name := range d.Schemas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Deps = append(t.Deps, d.Schemas[name].Dependencies()...)
	}
	return t, nil
}

type parser struct {
	toks []token
	pos  int

	doc *Document
	// all is the running union of declared schemas and designs, used to
	// type-check top-level queries.
	all *schema.Schema
	// known holds every declared name, including physical structures of
	// the design block currently being parsed (whose types are only
	// computed when the block is built). Used to resolve identifiers.
	known map[string]bool

	// cut is the token index of the first top-level query, -1 before
	// one is seen. decls records a schema or design statement before
	// the cut, declAfterCut one after it: the statements before the cut
	// can be cached (DesignCache) only when there is one and nothing
	// after the cut declares more.
	cut                 int
	decls, declAfterCut bool
	// shared marks a parser that continues from a cached design
	// environment: all, known and the document's schemas and designs
	// belong to the cache, so a schema or design statement stops the
	// parse with errSharedEnv instead of modifying them.
	shared bool
}

// Parse parses a source file.
func Parse(src string) (*Document, error) {
	p, err := parseAll(src)
	if err != nil {
		return nil, err
	}
	return p.doc, nil
}

// parseAll lexes and parses the whole of src and returns the parser,
// whose final state a DesignCache may keep.
func parseAll(src string) (*parser, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks: toks,
		doc: &Document{
			Schemas: map[string]*schema.Schema{},
			Designs: map[string]*DesignResult{},
			Queries: map[string]*core.Query{},
		},
		all:   schema.New("document"),
		known: map[string]bool{},
		cut:   -1,
	}
	if err := p.parseDocument(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) at(text string) bool {
	t := p.cur()
	return (t.kind == tokPunct || t.kind == tokIdent) && t.text == text
}

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if p.accept(text) {
		return nil
	}
	t := p.cur()
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf("expected %q, found %s", text, t)}
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf("expected identifier, found %s", t)}
	}
	p.advance()
	return t.text, nil
}

func (p *parser) errHere(format string, args ...any) error {
	t := p.cur()
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) parseDocument() error {
	for {
		t := p.cur()
		if t.kind == tokEOF {
			return nil
		}
		switch {
		case p.at("schema"), p.at("design"):
			if p.shared {
				return errSharedEnv
			}
			if p.cut < 0 {
				p.decls = true
			} else {
				p.declAfterCut = true
			}
			parse := p.parseSchema
			if p.at("design") {
				parse = p.parseDesign
			}
			if err := parse(); err != nil {
				return err
			}
		case p.at("query"):
			if p.cut < 0 {
				p.cut = p.pos
			}
			if err := p.parseQuery(); err != nil {
				return err
			}
		default:
			return p.errHere("expected schema, design or query, found %s", t)
		}
	}
}

// --- schemas ------------------------------------------------------------

func (p *parser) parseSchema() error {
	p.advance() // schema
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, dup := p.doc.Schemas[name]; dup {
		return p.errHere("duplicate schema %q", name)
	}
	s := schema.New(name)
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.accept("}") {
		if p.at("constraint") {
			if err := p.parseConstraint(s); err != nil {
				return err
			}
			continue
		}
		// element: IDENT ':' type ';'
		ename, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expect(":"); err != nil {
			return err
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		if err := p.expect(";"); err != nil {
			return err
		}
		if err := s.AddElement(ename, ty, ""); err != nil {
			return p.errHere("%v", err)
		}
		if err := p.all.AddElement(ename, ty, ""); err != nil {
			return p.errHere("%v", err)
		}
		p.known[ename] = true
	}
	p.doc.Schemas[name] = s
	return nil
}

func (p *parser) parseType() (*types.Type, error) {
	t := p.cur()
	switch {
	case p.accept("int"):
		return types.Int(), nil
	case p.accept("float"):
		return types.Float(), nil
	case p.accept("string"):
		return types.StringT(), nil
	case p.accept("bool"):
		return types.Bool(), nil
	case p.accept("set"):
		if err := p.expect("<"); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(">"); err != nil {
			return nil, err
		}
		return types.SetOf(elem), nil
	case p.accept("dict"):
		if err := p.expect("<"); err != nil {
			return nil, err
		}
		key, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		val, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(">"); err != nil {
			return nil, err
		}
		return types.DictOf(key, val), nil
	case p.accept("{"):
		var fields []types.Field
		seen := map[string]bool{}
		for !p.accept("}") {
			if len(fields) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			fname, err := p.ident()
			if err != nil {
				return nil, err
			}
			if seen[fname] {
				return nil, p.errHere("duplicate field %q", fname)
			}
			seen[fname] = true
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			fty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			fields = append(fields, types.F(fname, fty))
		}
		return types.StructOf(fields...), nil
	case t.kind == tokIdent:
		// Named oid type.
		p.advance()
		return types.OID(t.text), nil
	default:
		return nil, p.errHere("expected type, found %s", t)
	}
}

// --- constraints ----------------------------------------------------------

// parseConstraint parses:
//
//	constraint NAME: forall (x in P, ...) [B ->] [exists (y in P', ...)] B' ;
func (p *parser) parseConstraint(s *schema.Schema) error {
	p.advance() // constraint
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	if err := p.expect("forall"); err != nil {
		return err
	}
	scope := map[string]bool{}
	prem, err := p.parseBindingList(scope)
	if err != nil {
		return err
	}
	d := &core.Dependency{Name: name, Premise: prem}

	// Optional premise conditions followed by ->, or directly exists/conds.
	if !p.at("exists") && !p.at("->") {
		conds, err := p.parseCondList(scope)
		if err != nil {
			return err
		}
		if p.accept("->") {
			d.PremiseConds = conds
		} else {
			// No arrow: the conditions are the conclusion of an
			// unconditional EGD-style constraint.
			d.ConclusionConds = conds
			if err := p.expect(";"); err != nil {
				return err
			}
			return p.finishConstraint(s, d)
		}
	} else {
		p.accept("->")
	}

	if p.accept("exists") {
		conc, err := p.parseBindingList(scope)
		if err != nil {
			return err
		}
		d.Conclusion = conc
	}
	if !p.at(";") {
		conds, err := p.parseCondList(scope)
		if err != nil {
			return err
		}
		d.ConclusionConds = conds
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	return p.finishConstraint(s, d)
}

func (p *parser) finishConstraint(s *schema.Schema, d *core.Dependency) error {
	if err := s.AddDependency(d); err != nil {
		return p.errHere("%v", err)
	}
	return nil
}

// parseBindingList parses "(x in P, y in Q, ...)", adding variables to
// scope as they are introduced.
func (p *parser) parseBindingList(scope map[string]bool) ([]core.Binding, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var out []core.Binding
	for {
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("in"); err != nil {
			return nil, err
		}
		rng, err := p.parseTerm(scope)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Binding{Var: v, Range: rng})
		scope[v] = true
		if p.accept(")") {
			return out, nil
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
	}
}

// parseCondList parses "t1 = t2 and t3 = t4 and ...".
func (p *parser) parseCondList(scope map[string]bool) ([]core.Cond, error) {
	var out []core.Cond
	for {
		l, err := p.parseTerm(scope)
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		r, err := p.parseTerm(scope)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Cond{L: l, R: r})
		if !p.accept("and") {
			return out, nil
		}
	}
}

// --- terms -----------------------------------------------------------------

// parseTerm parses a path: primary followed by .field, [key] and {key}
// suffixes. Identifiers in scope become variables; known schema names
// become name terms; anything else is an error.
func (p *parser) parseTerm(scope map[string]bool) (*core.Term, error) {
	t, err := p.parsePrimary(scope)
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("."):
			f, err := p.ident()
			if err != nil {
				return nil, err
			}
			t = core.Prj(t, f)
		case p.accept("["):
			k, err := p.parseTerm(scope)
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			t = core.Lk(t, k)
		case p.at("{"):
			// Only a lookup when it follows a term directly; struct
			// types/constructors never appear in suffix position.
			p.advance()
			k, err := p.parseTerm(scope)
			if err != nil {
				return nil, err
			}
			if err := p.expect("}"); err != nil {
				return nil, err
			}
			t = core.LkNF(t, k)
		default:
			return t, nil
		}
	}
}

func (p *parser) parsePrimary(scope map[string]bool) (*core.Term, error) {
	t := p.cur()
	switch {
	case p.accept("dom"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		inner, err := p.parseTerm(scope)
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return core.Dom(inner), nil
	case p.accept("struct"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var fields []core.StructField
		seen := map[string]bool{}
		for !p.accept(")") {
			if len(fields) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			fname, err := p.ident()
			if err != nil {
				return nil, err
			}
			if seen[fname] {
				return nil, p.errHere("duplicate field %q", fname)
			}
			seen[fname] = true
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			ft, err := p.parseTerm(scope)
			if err != nil {
				return nil, err
			}
			fields = append(fields, core.SF(fname, ft))
		}
		return core.Struct(fields...), nil
	case p.accept("true"):
		return core.C(true), nil
	case p.accept("false"):
		return core.C(false), nil
	case t.kind == tokInt:
		p.advance()
		return core.C(t.i), nil
	case t.kind == tokFloat:
		p.advance()
		return core.C(t.f), nil
	case t.kind == tokString:
		p.advance()
		return core.C(t.text), nil
	case p.accept("("):
		inner, err := p.parseTerm(scope)
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case t.kind == tokIdent:
		p.advance()
		if scope[t.text] {
			return core.V(t.text), nil
		}
		if p.known[t.text] {
			return core.Name(t.text), nil
		}
		return nil, &Error{Line: t.line, Col: t.col,
			Msg: fmt.Sprintf("unknown identifier %q (neither a bound variable nor a declared schema name)", t.text)}
	default:
		return nil, p.errHere("expected a path, found %s", t)
	}
}

// --- queries ----------------------------------------------------------------

// parseQuery parses "query NAME: select ... from ... [where ...];".
func (p *parser) parseQuery() error {
	p.advance() // query
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, dup := p.doc.Queries[name]; dup {
		return p.errHere("duplicate query %q", name)
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	q, err := p.parseSelect()
	if err != nil {
		return err
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	if _, err := p.all.CheckQuery(q); err != nil {
		return p.errHere("query %s: %v", name, err)
	}
	p.doc.Queries[name] = q
	p.doc.QueryOrder = append(p.doc.QueryOrder, name)
	return nil
}

// parseSelect parses "select OUT from BINDINGS [where CONDS]". The from
// clause introduces variables left to right, so output terms are parsed
// after the bindings and re-ordered here.
func (p *parser) parseSelect() (*core.Query, error) {
	if err := p.expect("select"); err != nil {
		return nil, err
	}
	// The output may reference from-clause variables, so remember the
	// token position, skip ahead to parse bindings first, then come back.
	outStart := p.pos
	if err := p.skipToKeyword("from"); err != nil {
		return nil, err
	}
	if err := p.expect("from"); err != nil {
		return nil, err
	}
	scope := map[string]bool{}
	var bindings []core.Binding
	for {
		rng, err := p.parseTerm(scope)
		if err != nil {
			return nil, err
		}
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		bindings = append(bindings, core.Binding{Var: v, Range: rng})
		scope[v] = true
		if !p.accept(",") {
			break
		}
	}
	var conds []core.Cond
	if p.accept("where") {
		var err error
		conds, err = p.parseCondList(scope)
		if err != nil {
			return nil, err
		}
	}
	endPos := p.pos

	// Re-parse the output with the scope in place.
	p.pos = outStart
	out, err := p.parseTerm(scope)
	if err != nil {
		return nil, err
	}
	if !p.at("from") {
		return nil, p.errHere("expected \"from\" after select output")
	}
	p.pos = endPos
	return &core.Query{Out: out, Bindings: bindings, Conds: conds}, nil
}

// skipToKeyword advances until the given keyword at nesting depth zero.
func (p *parser) skipToKeyword(kw string) error {
	depth := 0
	for {
		t := p.cur()
		if t.kind == tokEOF {
			return p.errHere("expected %q before end of input", kw)
		}
		if t.kind == tokPunct {
			switch t.text {
			case "(", "[", "{":
				depth++
			case ")", "]", "}":
				depth--
			}
		}
		if depth == 0 && t.kind == tokIdent && t.text == kw {
			return nil
		}
		p.advance()
	}
}

// --- designs -----------------------------------------------------------------

// parseDesign parses:
//
//	design NAME over SCHEMA {
//	  store R;
//	  classdict D for extent oid OidName;
//	  primary index I on R(attr);
//	  secondary index SI on R(attr);
//	  hashtable H on R(attr);
//	  view V: select ...;
//	  gmap G from (x in P, ...) [where B] key T entry T';
//	}
func (p *parser) parseDesign() error {
	p.advance() // design
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, dup := p.doc.Designs[name]; dup {
		return p.errHere("duplicate design %q", name)
	}
	if err := p.expect("over"); err != nil {
		return err
	}
	baseName, err := p.ident()
	if err != nil {
		return err
	}
	base, ok := p.doc.Schemas[baseName]
	if !ok {
		return p.errHere("unknown base schema %q", baseName)
	}
	design := physical.NewDesign(base)
	if err := p.expect("{"); err != nil {
		return err
	}
	for !p.accept("}") {
		switch {
		case p.accept("store"):
			n, err := p.ident()
			if err != nil {
				return err
			}
			design.Add(physical.DirectStorage{Name: n})
			p.known[n] = true
			if err := p.expect(";"); err != nil {
				return err
			}
		case p.accept("classdict"):
			n, err := p.ident()
			if err != nil {
				return err
			}
			if err := p.expect("for"); err != nil {
				return err
			}
			extent, err := p.ident()
			if err != nil {
				return err
			}
			if err := p.expect("oid"); err != nil {
				return err
			}
			oid, err := p.ident()
			if err != nil {
				return err
			}
			design.Add(physical.ClassDict{Name: n, Extent: extent, OIDType: oid})
			p.known[n] = true
			if err := p.expect(";"); err != nil {
				return err
			}
		case p.accept("primary"):
			st, err := p.parseIndexDecl()
			if err != nil {
				return err
			}
			design.Add(physical.PrimaryIndex{Name: st.name, Relation: st.rel, Key: st.attr})
			p.known[st.name] = true
		case p.accept("secondary"):
			st, err := p.parseIndexDecl()
			if err != nil {
				return err
			}
			design.Add(physical.SecondaryIndex{Name: st.name, Relation: st.rel, Attribute: st.attr})
			p.known[st.name] = true
		case p.accept("hashtable"):
			n, err := p.ident()
			if err != nil {
				return err
			}
			if err := p.expect("on"); err != nil {
				return err
			}
			rel, attr, err := p.parseRelAttr()
			if err != nil {
				return err
			}
			design.Add(physical.HashTable{Name: n, Relation: rel, Attribute: attr})
			p.known[n] = true
			if err := p.expect(";"); err != nil {
				return err
			}
		case p.accept("view"):
			n, err := p.ident()
			if err != nil {
				return err
			}
			if err := p.expect(":"); err != nil {
				return err
			}
			def, err := p.parseSelect()
			if err != nil {
				return err
			}
			if err := p.expect(";"); err != nil {
				return err
			}
			design.Add(physical.View{Name: n, Def: def})
			p.known[n] = true
		default:
			return p.errHere("expected a design declaration, found %s", p.cur())
		}
	}

	phys, deps, combined, err := design.Build()
	if err != nil {
		return p.errHere("design %s: %v", name, err)
	}
	// Make the physical elements visible to subsequent queries.
	for _, e := range phys.Elements() {
		if !p.all.Has(e.Name) {
			if err := p.all.AddElement(e.Name, e.Type, e.Doc); err != nil {
				return p.errHere("%v", err)
			}
		}
	}
	p.doc.Designs[name] = &DesignResult{
		Name: name, Base: base, Physical: phys, Combined: combined, Deps: deps,
	}
	return nil
}

type indexDecl struct {
	name, rel, attr string
}

func (p *parser) parseIndexDecl() (indexDecl, error) {
	var d indexDecl
	if err := p.expect("index"); err != nil {
		return d, err
	}
	n, err := p.ident()
	if err != nil {
		return d, err
	}
	if err := p.expect("on"); err != nil {
		return d, err
	}
	rel, attr, err := p.parseRelAttr()
	if err != nil {
		return d, err
	}
	if err := p.expect(";"); err != nil {
		return d, err
	}
	d.name, d.rel, d.attr = n, rel, attr
	return d, nil
}

func (p *parser) parseRelAttr() (string, string, error) {
	rel, err := p.ident()
	if err != nil {
		return "", "", err
	}
	if err := p.expect("("); err != nil {
		return "", "", err
	}
	attr, err := p.ident()
	if err != nil {
		return "", "", err
	}
	if err := p.expect(")"); err != nil {
		return "", "", err
	}
	return rel, attr, nil
}
