package main

import (
	"fmt"
	"math/rand"
	"strings"

	"cnb/internal/workload"
)

// projDeptHeader is the paper's ProjDept document without its query:
// the logical schema with its constraints and the physical design of
// Figure 3, as in examples/cnbdclient.
const projDeptHeader = `schema Logical {
  Proj  : set<{PName: string, CustName: string, PDept: string, Budg: int}>;
  depts : set<{DName: string, DProjs: set<string>, MgrName: string}>;

  constraint RIC1:
    forall (d in depts, s in d.DProjs) exists (p in Proj) s = p.PName;
  constraint RIC2:
    forall (p in Proj) exists (d in depts) p.PDept = d.DName;
  constraint INV1:
    forall (d in depts, s in d.DProjs, p in Proj) s = p.PName -> p.PDept = d.DName;
  constraint INV2:
    forall (p in Proj, d in depts) p.PDept = d.DName -> exists (s in d.DProjs) p.PName = s;
  constraint KEY1:
    forall (a in depts, b in depts) a.DName = b.DName -> a = b;
  constraint KEY2:
    forall (a in Proj, b in Proj) a.PName = b.PName -> a = b;
}

design Phys over Logical {
  store Proj;
  classdict Dept for depts oid Doid;
  primary index I on Proj(PName);
  secondary index SI on Proj(CustName);
  view JI: select struct(DOID: dd, PN: p.PName)
           from dom(Dept) dd, Dept[dd].DProjs s, Proj p
           where s = p.PName;
}
`

// binding is one from-clause entry of a query template. Range may name
// an earlier variable as {v}; after lists the variables it depends on.
type binding struct {
	v, rng string
	after  []string
}

// template is a query with placeholder variables {v}. %s in a condition
// stands for the request's constant.
type template struct {
	out   string
	binds []binding
	conds [][2]string
}

// custTemplate is the paper's §1 query with its customer constant left
// open.
var custTemplate = template{
	out: "struct(PN: {s}, PB: {p}.Budg, DN: {d}.DName)",
	binds: []binding{
		{v: "d", rng: "depts"},
		{v: "s", rng: "{d}.DProjs", after: []string{"d"}},
		{v: "p", rng: "Proj"},
	},
	conds: [][2]string{{"{s}", "{p}.PName"}, {"{p}.CustName", `"%s"`}},
}

// joinTemplate is the non-selective Proj ⋈ depts join of scan_exec.
var joinTemplate = template{
	out: "struct(PN: {p}.PName, PB: {p}.Budg, DN: {d}.DName)",
	binds: []binding{
		{v: "p", rng: "Proj"},
		{v: "d", rng: "depts"},
	},
	conds: [][2]string{{"{p}.PDept", "{d}.DName"}},
}

// render writes the template as a cnb query with fresh variable names,
// a shuffled dependency-respecting binding order and shuffled, randomly
// flipped conditions: an alpha-renamed copy with the template's
// canonical signature.
func (t template) render(rng *rand.Rand, constant string) string {
	// Fresh names: two random letters plus a shuffled index, so names
	// are unique, never keywords, and sort in a different order than
	// the template's.
	idx := rng.Perm(len(t.binds))
	names := map[string]string{}
	for i, b := range t.binds {
		names[b.v] = fmt.Sprintf("%c%c%d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), idx[i])
	}
	subst := func(s string) string {
		for v, n := range names {
			s = strings.ReplaceAll(s, "{"+v+"}", n)
		}
		return s
	}

	// Random topological order of the bindings.
	placed := map[string]bool{}
	var order []binding
	for len(order) < len(t.binds) {
		var ready []binding
		for _, b := range t.binds {
			if placed[b.v] {
				continue
			}
			ok := true
			for _, a := range b.after {
				ok = ok && placed[a]
			}
			if ok {
				ready = append(ready, b)
			}
		}
		b := ready[rng.Intn(len(ready))]
		placed[b.v] = true
		order = append(order, b)
	}
	from := make([]string, len(order))
	for i, b := range order {
		from[i] = subst(b.rng) + " " + names[b.v]
	}

	conds := make([]string, len(t.conds))
	for i, j := range rng.Perm(len(t.conds)) {
		l, r := t.conds[j][0], t.conds[j][1]
		if rng.Intn(2) == 1 {
			l, r = r, l
		}
		c := subst(l) + " = " + subst(r)
		if strings.Contains(c, "%s") {
			c = fmt.Sprintf(c, constant)
		}
		conds[i] = c
	}
	return document(subst(t.out), from, conds)
}

// plain renders the template as written: its own variable names, binding
// order and condition orientation.
func (t template) plain(constant string) string {
	unbrace := strings.NewReplacer("{", "", "}", "").Replace
	from := make([]string, len(t.binds))
	for i, b := range t.binds {
		from[i] = unbrace(b.rng) + " " + b.v
	}
	conds := make([]string, len(t.conds))
	for i, c := range t.conds {
		conds[i] = unbrace(c[0] + " = " + c[1])
		if strings.Contains(conds[i], "%s") {
			conds[i] = fmt.Sprintf(conds[i], constant)
		}
	}
	return document(unbrace(t.out), from, conds)
}

// document is the ProjDept document with one query Q.
func document(out string, from, conds []string) string {
	return fmt.Sprintf("%s\nquery Q:\n  select %s\n  from %s\n  where %s;\n",
		projDeptHeader, out, strings.Join(from, ", "), strings.Join(conds, " and "))
}

// workloadSpec is one benchmark workload: the instance it installs, the
// query template it sends and the constant of each request.
type workloadSpec struct {
	name string
	tmpl template
	// gen is the ProjDept generator configuration; the instance's Seed is
	// the run's seed.
	gen workload.GenOptions
	// warmup is the number of requests sent, untimed, before the window.
	warmup int
	// pinCache sends the first request of each shape in the template's
	// plain form. The plan-cache entry every later hit reuses keeps the
	// variable names and order of the request that created it, and the
	// per-hit work depends on them; pinning makes that entry the same for
	// every seed.
	pinCache bool
	// checkDistinct is how many distinct shapes the output check
	// compares row for row with an in-process evaluation.
	checkDistinct int
	// constant returns the customer constant of request i ("" for
	// templates without one). check is true for the output-check
	// requests, which must not consume the window's constants.
	constant func(seed int64, i int, check bool) string
}

// customers are the customer constants of the small instance: the
// generator draws CustName from CitiBank and Cust00..Cust04.
var customers = []string{"CitiBank", "Cust00", "Cust01", "Cust02", "Cust03", "Cust04"}

var smallGen = workload.GenOptions{NumDepts: 20, ProjsPerDept: 5, NumCustomers: 5, CitiBankShare: 0.3}

var workloads = map[string]workloadSpec{
	"warm_query": {
		name: "warm_query", tmpl: custTemplate, gen: smallGen,
		warmup: 2 * len(customers), pinCache: true, checkDistinct: len(customers),
		// Round robin over a seeded permutation, so every constant gets
		// an equal share of any window.
		constant: func(seed int64, i int, _ bool) string {
			perm := rand.New(rand.NewSource(seed)).Perm(len(customers))
			return customers[perm[i%len(customers)]]
		},
	},
	"cold_plan": {
		name: "cold_plan", tmpl: custTemplate, gen: smallGen,
		warmup: 3, checkDistinct: 2,
		// Never repeats within a server's lifetime, and never matches a
		// generated customer, so every request misses the plan cache.
		constant: func(seed int64, i int, check bool) string {
			if check {
				return fmt.Sprintf("Check%d_%06d", seed, i)
			}
			return fmt.Sprintf("Fresh%d_%06d", seed, i)
		},
	},
	"scan_exec": {
		name: "scan_exec", tmpl: joinTemplate,
		gen:    workload.GenOptions{NumDepts: 20000, ProjsPerDept: 5, NumCustomers: 5, CitiBankShare: 0.3},
		warmup: 3, pinCache: true, checkDistinct: 1,
		constant: func(int64, int, bool) string { return "" },
	},
}

// requestStream yields a workload's request bodies in order. The same
// seed yields byte-identical bodies.
type requestStream struct {
	spec  workloadSpec
	seed  int64
	rng   *rand.Rand
	next  int
	check bool
	sent  map[string]bool // constants sent so far
}

func newRequestStream(spec workloadSpec, seed int64) *requestStream {
	return &requestStream{spec: spec, seed: seed, rng: rand.New(rand.NewSource(seed)), sent: map[string]bool{}}
}

// newCheckStream yields the output-check requests: one per distinct
// shape, drawn from constants the window never sends.
func newCheckStream(spec workloadSpec, seed int64) *requestStream {
	s := newRequestStream(spec, seed^0x5eed)
	s.check = true
	return s
}

// Next returns the next request's body and its constant.
func (s *requestStream) Next() (body, constant string) {
	constant = s.spec.constant(s.seed, s.next, s.check)
	s.next++
	first := !s.sent[constant]
	s.sent[constant] = true
	if first && s.spec.pinCache && !s.check {
		return s.spec.tmpl.plain(constant), constant
	}
	return s.spec.tmpl.render(s.rng, constant), constant
}

// genOptions is the spec's generator configuration seeded for a run.
func (w workloadSpec) genOptions(seed int64) workload.GenOptions {
	g := w.gen
	g.Seed = seed
	return g
}

// instanceBody is the POST /instance body that makes cnbd generate the
// same instance genOptions describes.
func (w workloadSpec) instanceBody(seed int64) string {
	g := w.genOptions(seed)
	return fmt.Sprintf(`{"workload":"projdept","gen":{"NumDepts":%d,"ProjsPerDept":%d,"NumCustomers":%d,"CitiBankShare":%g,"Seed":%d}}`,
		g.NumDepts, g.ProjsPerDept, g.NumCustomers, g.CitiBankShare, g.Seed)
}
