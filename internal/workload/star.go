package workload

import (
	"fmt"
	"math/rand"

	"cnb/internal/core"
	"cnb/internal/instance"
	"cnb/internal/physical"
	"cnb/internal/schema"
	"cnb/internal/types"
)

// Star is the star/snowflake workload family used to exercise the
// backchase at scale (E13–E15, E18): a fact table joined to Dims
// dimension tables, with a configurable set of physical access
// structures whose chase blows the subquery lattice up.
//
//	Fact(K0..K_{d-1}, M)       large
//	D_i(K, A)                  small, A low-cardinality
//	SUB_i(K, B)                snowflake outrigger of D_i (optional)
//
// Physical structures (per StarConfig):
//
//   - FK_i  — secondary index on Fact.K_i (foreign-key index)
//   - SD0   — secondary index on D0.A (the selection attribute)
//   - V_i   — materialized join view Fact ⋈ D_i carrying every fact
//     foreign key, the dimension attribute and the measure, so a plan can
//     trade the {Fact, D_i} join pair for one V_i scan
//
// The query selects on D0.A and returns the measure with every
// dimension attribute, so the cheapest plan navigates SD0 and the
// foreign-key indexes while the expensive lattice regions — states whose
// only closed-range bindings are the Fact/V_i/D_i scans — are prunable
// once any cheap plan is known.
type Star struct {
	Logical  *schema.Schema
	Physical *schema.Schema
	Combined *schema.Schema
	Deps     []*core.Dependency
	Q        *core.Query
	Cfg      StarConfig
}

// StarConfig sizes the schema family.
type StarConfig struct {
	// Dims is the number of dimension tables (>= 1).
	Dims int
	// Snowflake gives every dimension a SUB_i outrigger joined through
	// D_i.S, turning the star into a snowflake.
	Snowflake bool
	// Views is the number of materialized join views V_i = Fact ⋈ D_i
	// (clamped to Dims).
	Views int
	// FactIndexes is the number of fact foreign keys K_i that get a
	// secondary index FK_i (clamped to Dims).
	FactIndexes int
	// DimKeyIndexes is the number of dimensions D_i whose key column gets
	// a secondary index DK_i (clamped to Dims) — the access path that
	// lets a plan fetch dimension attributes by key instead of scanning.
	DimKeyIndexes int
	// DimIndex adds the secondary index SD0 on D0.A.
	DimIndex bool
	// Select adds the selection D0.A = SelectA to the query; with the
	// zero value the query has no constant selection.
	Select bool
	// SelectA is the selection constant (only read when Select is set).
	SelectA int64
	// ProjectAll makes the query project every dimension attribute (and
	// outrigger attribute), pinning every join in every plan. When false
	// the query projects only the measure and D0.A, so that under
	// FKConstraints the non-selective dimension joins are semantically
	// redundant and the backchase can drop them.
	ProjectAll bool
	// FKConstraints adds the referential inclusion dependencies
	// ∀(f ∈ Fact) ∃(d ∈ D_i) f.K_i = d.K (and D_i.S ⊆ SUB_i.K under
	// Snowflake) as logical constraints, so the backchase can eliminate
	// dimension joins that contribute nothing to the output — the
	// semantic optimization of §2 — and the cheapest plan becomes pure
	// index navigation.
	FKConstraints bool
}

// NewStar builds the scenario. The query joins Fact with every dimension
// (and every outrigger when Snowflake is set) and projects the measure
// plus all dimension attributes.
func NewStar(cfg StarConfig) (*Star, error) {
	if cfg.Dims < 1 {
		return nil, fmt.Errorf("workload: star needs at least 1 dimension")
	}
	if cfg.Views > cfg.Dims {
		cfg.Views = cfg.Dims
	}
	if cfg.FactIndexes > cfg.Dims {
		cfg.FactIndexes = cfg.Dims
	}
	if cfg.DimKeyIndexes > cfg.Dims {
		cfg.DimKeyIndexes = cfg.Dims
	}

	logical := schema.New(fmt.Sprintf("Star%d", cfg.Dims))
	factFields := make([]types.Field, 0, cfg.Dims+1)
	for i := 0; i < cfg.Dims; i++ {
		factFields = append(factFields, types.F(factKey(i), types.Int()))
	}
	factFields = append(factFields, types.F("M", types.Int()))
	if err := logical.AddElement("Fact", types.SetOf(types.StructOf(factFields...)), "fact table"); err != nil {
		return nil, err
	}
	dimFields := []types.Field{types.F("K", types.Int()), types.F("A", types.Int())}
	if cfg.Snowflake {
		dimFields = append(dimFields, types.F("S", types.Int()))
	}
	dimT := types.SetOf(types.StructOf(dimFields...))
	subT := types.SetOf(types.StructOf(types.F("K", types.Int()), types.F("B", types.Int())))
	for i := 0; i < cfg.Dims; i++ {
		if err := logical.AddElement(dim(i), dimT, "dimension table"); err != nil {
			return nil, err
		}
		if cfg.Snowflake {
			if err := logical.AddElement(sub(i), subT, "snowflake outrigger"); err != nil {
				return nil, err
			}
		}
	}

	design := physical.NewDesign(logical)
	design.Add(physical.DirectStorage{Name: "Fact"})
	for i := 0; i < cfg.Dims; i++ {
		design.Add(physical.DirectStorage{Name: dim(i)})
		if cfg.Snowflake {
			design.Add(physical.DirectStorage{Name: sub(i)})
		}
	}
	for i := 0; i < cfg.FactIndexes; i++ {
		design.Add(physical.SecondaryIndex{Name: fkIndex(i), Relation: "Fact", Attribute: factKey(i)})
	}
	if cfg.DimIndex {
		design.Add(physical.SecondaryIndex{Name: "SD0", Relation: dim(0), Attribute: "A"})
	}
	for i := 0; i < cfg.DimKeyIndexes; i++ {
		design.Add(physical.SecondaryIndex{Name: dkIndex(i), Relation: dim(i), Attribute: "K"})
	}
	for i := 0; i < cfg.Views; i++ {
		design.Add(physical.View{Name: view(i), Def: starViewDef(cfg, i)})
	}
	phys, deps, combined, err := design.Build()
	if err != nil {
		return nil, err
	}
	if cfg.FKConstraints {
		for i := 0; i < cfg.Dims; i++ {
			deps = append(deps, &core.Dependency{
				Name:       fmt.Sprintf("RIC_Fact_%s", dim(i)),
				Premise:    []core.Binding{{Var: "f", Range: core.Name("Fact")}},
				Conclusion: []core.Binding{{Var: "d", Range: core.Name(dim(i))}},
				ConclusionConds: []core.Cond{
					{L: core.Prj(core.V("f"), factKey(i)), R: core.Prj(core.V("d"), "K")},
				},
			})
			if cfg.Snowflake {
				deps = append(deps, &core.Dependency{
					Name:       fmt.Sprintf("RIC_%s_%s", dim(i), sub(i)),
					Premise:    []core.Binding{{Var: "d", Range: core.Name(dim(i))}},
					Conclusion: []core.Binding{{Var: "s", Range: core.Name(sub(i))}},
					ConclusionConds: []core.Cond{
						{L: core.Prj(core.V("d"), "S"), R: core.Prj(core.V("s"), "K")},
					},
				})
			}
		}
	}

	q := starQuery(cfg)
	if _, err := combined.CheckQuery(q); err != nil {
		return nil, err
	}
	return &Star{Logical: logical, Physical: phys, Combined: combined, Deps: deps, Q: q, Cfg: cfg}, nil
}

// starViewDef is V_i = select struct(K0..K_{d-1}, A, M) from Fact f, D_i d
// where f.K_i = d.K — wide enough that a plan over V_i can still join the
// remaining dimensions through the fact foreign keys.
func starViewDef(cfg StarConfig, i int) *core.Query {
	f, d := core.V("f"), core.V("d")
	fields := make([]core.StructField, 0, cfg.Dims+2)
	for j := 0; j < cfg.Dims; j++ {
		fields = append(fields, core.SF(factKey(j), core.Prj(f, factKey(j))))
	}
	fields = append(fields,
		core.SF("A", core.Prj(d, "A")),
		core.SF("M", core.Prj(f, "M")),
	)
	return &core.Query{
		Out: core.Struct(fields...),
		Bindings: []core.Binding{
			{Var: "f", Range: core.Name("Fact")},
			{Var: "d", Range: core.Name(dim(i))},
		},
		Conds: []core.Cond{{L: core.Prj(f, factKey(i)), R: core.Prj(d, "K")}},
	}
}

// starQuery joins Fact with every dimension (and outrigger), selects on
// D0.A when configured, and projects the measure plus every dimension
// attribute (and outrigger attribute under Snowflake).
func starQuery(cfg StarConfig) *core.Query {
	q := &core.Query{}
	q.Bindings = append(q.Bindings, core.Binding{Var: "f", Range: core.Name("Fact")})
	fields := []core.StructField{core.SF("M", core.Prj(core.V("f"), "M"))}
	for i := 0; i < cfg.Dims; i++ {
		dv := fmt.Sprintf("d%d", i)
		q.Bindings = append(q.Bindings, core.Binding{Var: dv, Range: core.Name(dim(i))})
		q.Conds = append(q.Conds, core.Cond{
			L: core.Prj(core.V("f"), factKey(i)),
			R: core.Prj(core.V(dv), "K"),
		})
		if cfg.ProjectAll || i == 0 {
			fields = append(fields, core.SF(fmt.Sprintf("A%d", i), core.Prj(core.V(dv), "A")))
		}
		if cfg.Snowflake {
			sv := fmt.Sprintf("s%d", i)
			q.Bindings = append(q.Bindings, core.Binding{Var: sv, Range: core.Name(sub(i))})
			q.Conds = append(q.Conds, core.Cond{
				L: core.Prj(core.V(dv), "S"),
				R: core.Prj(core.V(sv), "K"),
			})
			if cfg.ProjectAll {
				fields = append(fields, core.SF(fmt.Sprintf("B%d", i), core.Prj(core.V(sv), "B")))
			}
		}
	}
	if cfg.Select {
		q.Conds = append(q.Conds, core.Cond{
			L: core.Prj(core.V("d0"), "A"),
			R: core.C(cfg.SelectA),
		})
	}
	q.Out = core.Struct(fields...)
	return q
}

// StarGenOptions sizes a generated star/snowflake instance. Generation
// is fully deterministic for a given options value: the same seed yields
// the same instance at any scale, which is what lets the E18 execution
// gates compare exact row/eval counters across machines.
type StarGenOptions struct {
	NumFact int   // fact rows
	NumDim  int   // rows per dimension
	NumSub  int   // rows per outrigger (snowflake only)
	DomA    int   // distinct values of the dimension attribute A
	Seed    int64 // deterministic source for the foreign-key draws
	// ZipfS, when > 1, draws fact foreign keys from a zipf distribution
	// with parameter s = ZipfS over the dimension keys (key 0 most
	// frequent) instead of uniformly — the skew makes index buckets
	// wildly uneven, which is where pre-sized hash builds and pushed-down
	// selections earn their keep at the 10^5–10^7 row tiers.
	ZipfS float64
}

// Generate produces a consistent instance: every fact foreign key hits a
// dimension row, every dimension outrigger key hits a SUB row, and all
// configured indexes and views are materialized faithfully — so
// cost.FromInstance sees a large Fact/V_i cardinality next to cheap
// index access paths.
func (s *Star) Generate(opts StarGenOptions) *instance.Instance {
	if opts.NumDim <= 0 {
		opts.NumDim = 1
	}
	if opts.NumSub <= 0 {
		opts.NumSub = 1
	}
	if opts.DomA <= 0 {
		opts.DomA = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	in := instance.NewInstance()

	// Dimensions (shared shape): D_i row k has A = k mod DomA and, under
	// Snowflake, S = k mod NumSub. Every dimension, key index, and
	// selection index references the same row value, so each distinct row
	// is built exactly once — at 10^7-row scale the savings from sharing
	// immutable structs across collections dominate generation cost.
	dimRows := make([]*instance.Struct, opts.NumDim)
	for k := range dimRows {
		vals := []any{"K", instance.Int(int64(k)), "A", instance.Int(int64(k % opts.DomA))}
		if s.Cfg.Snowflake {
			vals = append(vals, "S", instance.Int(int64(k%opts.NumSub)))
		}
		dimRows[k] = instance.StructOf(vals...)
	}
	dimRow := func(k int) *instance.Struct { return dimRows[k] }
	for i := 0; i < s.Cfg.Dims; i++ {
		dset := instance.NewSet()
		for k := 0; k < opts.NumDim; k++ {
			dset.Add(dimRow(k))
		}
		in.Bind(dim(i), dset)
		if s.Cfg.Snowflake {
			sset := instance.NewSet()
			for k := 0; k < opts.NumSub; k++ {
				sset.Add(instance.StructOf("K", instance.Int(int64(k)), "B", instance.Int(int64(k))))
			}
			in.Bind(sub(i), sset)
		}
	}

	// Fact rows: foreign keys drawn uniformly, or zipf-skewed when
	// ZipfS > 1. Each row struct is built once and shared between the
	// base Fact set, every FK index bucket, and the factRows bookkeeping.
	var zipf *rand.Zipf
	if opts.ZipfS > 1 && opts.NumDim > 1 {
		zipf = rand.NewZipf(rng, opts.ZipfS, 1, uint64(opts.NumDim-1))
	}
	drawKey := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		return rng.Intn(opts.NumDim)
	}
	factSet := instance.NewSet()
	type factRow struct {
		keys []int
		row  *instance.Struct
	}
	rows := make([]factRow, opts.NumFact)
	for r := 0; r < opts.NumFact; r++ {
		keys := make([]int, s.Cfg.Dims)
		vals := make([]any, 0, 2*(s.Cfg.Dims+1))
		for i := 0; i < s.Cfg.Dims; i++ {
			keys[i] = drawKey()
			vals = append(vals, factKey(i), instance.Int(int64(keys[i])))
		}
		vals = append(vals, "M", instance.Int(int64(r)))
		row := instance.StructOf(vals...)
		rows[r] = factRow{keys: keys, row: row}
		factSet.Add(row)
	}
	in.Bind("Fact", factSet)

	// Foreign-key indexes FK_i: K_i value -> set of (shared) fact rows.
	for i := 0; i < s.Cfg.FactIndexes; i++ {
		buckets := map[int]*instance.Set{}
		for _, r := range rows {
			k := r.keys[i]
			if buckets[k] == nil {
				buckets[k] = instance.NewSet()
			}
			buckets[k].Add(r.row)
		}
		d := instance.NewDict()
		for k, set := range buckets {
			d.Put(instance.Int(int64(k)), set)
		}
		in.Bind(fkIndex(i), d)
	}

	// Dimension-key indexes DK_i: K value -> singleton set of D_i rows.
	for i := 0; i < s.Cfg.DimKeyIndexes; i++ {
		d := instance.NewDict()
		for k := 0; k < opts.NumDim; k++ {
			set := instance.NewSet()
			set.Add(dimRow(k))
			d.Put(instance.Int(int64(k)), set)
		}
		in.Bind(dkIndex(i), d)
	}

	// Selection-attribute index SD0: A value -> set of D0 rows.
	if s.Cfg.DimIndex {
		buckets := map[int]*instance.Set{}
		for k := 0; k < opts.NumDim; k++ {
			a := k % opts.DomA
			if buckets[a] == nil {
				buckets[a] = instance.NewSet()
			}
			buckets[a].Add(dimRow(k))
		}
		d := instance.NewDict()
		for a, set := range buckets {
			d.Put(instance.Int(int64(a)), set)
		}
		in.Bind("SD0", d)
	}

	// Materialized views V_i = Fact ⋈ D_i (every foreign key is valid by
	// construction, so |V_i| = |Fact|).
	for i := 0; i < s.Cfg.Views; i++ {
		vset := instance.NewSet()
		for m, r := range rows {
			vals := make([]any, 0, 2*(s.Cfg.Dims+2))
			for j, k := range r.keys {
				vals = append(vals, factKey(j), instance.Int(int64(k)))
			}
			vals = append(vals,
				"A", instance.Int(int64(r.keys[i]%opts.DomA)),
				"M", instance.Int(int64(m)))
			vset.Add(instance.StructOf(vals...))
		}
		in.Bind(view(i), vset)
	}
	return in
}

// RandomStar draws a small random member of the star/snowflake family
// plus matching generation options, sized so that exhaustive backchase
// enumeration and plan execution both stay fast — the randomized
// calibration suite runs dozens of cases. The instance is always
// consistent (NumDim >= DomA so every selection constant hits a
// dimension row and every index/view is fully materialized), so measured
// executions of equivalent plans agree.
func RandomStar(r *rand.Rand) (StarConfig, StarGenOptions) {
	cfg := StarConfig{
		Dims:          1,
		Views:         r.Intn(2),
		FactIndexes:   r.Intn(2),
		DimKeyIndexes: r.Intn(2),
		DimIndex:      r.Intn(2) == 0,
		Select:        r.Intn(4) != 0,
		ProjectAll:    r.Intn(2) == 0,
		FKConstraints: r.Intn(2) == 0,
	}
	// A second dimension (occasionally snowflaked) grows the lattice
	// considerably; draw it rarely and strip the extras so the exhaustive
	// reference enumeration stays affordable.
	if r.Intn(4) == 0 {
		cfg.Dims = 2
		cfg.Snowflake = r.Intn(4) == 0
		cfg.Views = 0
		cfg.DimKeyIndexes = 0
	}
	domA := 2 + r.Intn(4)
	cfg.SelectA = int64(r.Intn(domA))
	gen := StarGenOptions{
		NumFact: 20 + r.Intn(40),
		NumDim:  domA + r.Intn(12),
		NumSub:  2 + r.Intn(4),
		DomA:    domA,
		Seed:    r.Int63(),
	}
	return cfg, gen
}

func factKey(i int) string { return fmt.Sprintf("K%d", i) }
func dim(i int) string     { return fmt.Sprintf("D%d", i) }
func sub(i int) string     { return fmt.Sprintf("SUB%d", i) }
func fkIndex(i int) string { return fmt.Sprintf("FK%d", i) }
func dkIndex(i int) string { return fmt.Sprintf("DK%d", i) }
func view(i int) string    { return fmt.Sprintf("V%d", i) }
