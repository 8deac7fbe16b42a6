package parser

import (
	"errors"
	"maps"
	"strings"
	"sync"

	"cnb/internal/core"
	"cnb/internal/schema"
)

// designCacheSize bounds a DesignCache: the number of design prefixes it
// keeps, the least recently used evicted first.
const designCacheSize = 16

// errSharedEnv stops a parse that continues from a cached design
// environment when the rest of the document declares a schema or a
// design: the shared environment must not change, so the document is
// parsed again from the start.
var errSharedEnv = errors.New("parser: declaration after a cached design")

// DesignCache parses documents that start with a schema and design
// prefix it has seen before without parsing that prefix again. It is
// safe for concurrent use.
//
// A successful parse splits the document at its first top-level query
// statement (the cut). The statements before the cut — at least one
// schema or design, and nothing else — make up the design; when the
// byte before the cut is whitespace and no statement after the cut
// declares a schema or design, the parser's state at the cut is kept,
// keyed by the source bytes before the cut. The whitespace rule makes
// the prefix's tokens independent of whatever follows it. A later
// document that starts with those bytes is lexed and parsed from the
// cut only, against the kept state: its schemas, designs, the running
// union the queries type-check against, and the target of each design
// name. The result is what Parse returns for the whole document,
// positions in errors included; a document whose rest declares a
// schema or design is parsed again in full.
//
// The cache holds designCacheSize prefixes; a lookup compares the
// document with each of them and takes the longest that it starts with.
type DesignCache struct {
	mu sync.Mutex
	// envs holds the cached environments, most recently used first.
	envs []*designEnv
}

// designEnv is the parser state at a document's cut: everything its
// queries are parsed and type-checked against. It is shared by every
// document parsed from it and never modified after it is built.
type designEnv struct {
	// prefix is the source before the cut; the cut's first character
	// lies at line:col.
	prefix    string
	line, col int

	schemas map[string]*schema.Schema
	designs map[string]*DesignResult
	all     *schema.Schema
	known   map[string]bool

	// targets memoizes Document.Target per design name; only names that
	// resolve are stored, so it holds at most one entry per design plus
	// the default.
	targets sync.Map // string -> *Target
}

// NewDesignCache returns an empty cache.
func NewDesignCache() *DesignCache {
	return &DesignCache{}
}

// Parse parses src as Parse does, reusing a cached design when src
// starts with one and caching src's design otherwise (see DesignCache).
// The returned document's Schemas and Designs maps are its own; the
// schemas, designs and dependencies in them are shared with the cache
// and other documents and must not be modified.
func (c *DesignCache) Parse(src string) (*Document, error) {
	if env := c.lookup(src); env != nil {
		doc, err := env.parse(src)
		if !errors.Is(err, errSharedEnv) {
			return doc, err
		}
	}
	p, err := parseAll(src)
	if err != nil {
		return nil, err
	}
	if env := p.designEnv(src); env != nil {
		p.doc.env = c.add(env)
	}
	return p.doc, nil
}

// lookup returns the environment of the longest cached prefix src starts
// with, marking it most recently used, or nil.
func (c *DesignCache) lookup(src string) *designEnv {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := -1
	for i, e := range c.envs {
		if strings.HasPrefix(src, e.prefix) && (best < 0 || len(e.prefix) > len(c.envs[best].prefix)) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	e := c.envs[best]
	copy(c.envs[1:best+1], c.envs[:best])
	c.envs[0] = e
	return e
}

// add caches env, evicting the least recently used environment when the
// cache is full, and returns the environment now cached for env's
// prefix: an equal one another parse added first is kept.
func (c *DesignCache) add(env *designEnv) *designEnv {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.envs {
		if e.prefix == env.prefix {
			return e
		}
	}
	if len(c.envs) < designCacheSize {
		c.envs = append(c.envs, nil)
	}
	copy(c.envs[1:], c.envs)
	c.envs[0] = env
	return env
}

// designEnv returns the state of a finished parse of src at its cut, or
// nil when src's prefix cannot be cached: no query, no schema or design
// before the first one, a schema or design after it, or a cut not
// preceded by whitespace.
func (p *parser) designEnv(src string) *designEnv {
	if p.cut < 0 || !p.decls || p.declAfterCut {
		return nil
	}
	t := p.toks[p.cut]
	if !isSpace(src[t.off-1]) {
		return nil
	}
	// A query statement changes neither all nor known, so the final
	// state is the state at the cut.
	return &designEnv{
		prefix:  strings.Clone(src[:t.off]),
		line:    t.line,
		col:     t.col,
		schemas: maps.Clone(p.doc.Schemas),
		designs: maps.Clone(p.doc.Designs),
		all:     p.all,
		known:   p.known,
	}
}

// parse parses src, which starts with e.prefix, from the cut on. It
// returns errSharedEnv when the rest declares a schema or design.
func (e *designEnv) parse(src string) (*Document, error) {
	toks, err := lexFrom(src, len(e.prefix), e.line, e.col)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks: toks,
		doc: &Document{
			Schemas: maps.Clone(e.schemas),
			Designs: maps.Clone(e.designs),
			Queries: map[string]*core.Query{},
			env:     e,
		},
		all:    e.all,
		known:  e.known,
		shared: true,
	}
	if err := p.parseDocument(); err != nil {
		return nil, err
	}
	return p.doc, nil
}

// target returns the memoized target for design, building it on first
// use from the environment's schemas and designs.
func (e *designEnv) target(design string) (*Target, error) {
	if t, ok := e.targets.Load(design); ok {
		return t.(*Target), nil
	}
	d := &Document{Schemas: e.schemas, Designs: e.designs}
	t, err := d.target(design)
	if err != nil {
		return nil, err
	}
	actual, _ := e.targets.LoadOrStore(design, t)
	return actual.(*Target), nil
}
