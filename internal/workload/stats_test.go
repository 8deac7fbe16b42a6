package workload

import (
	"math"
	"testing"

	"cnb/internal/cost"
	"cnb/internal/eval"
	"cnb/internal/instance"
)

func scaleStar(t *testing.T) *Star {
	t.Helper()
	st, err := NewStar(StarConfig{
		Dims:          2,
		Snowflake:     true,
		Views:         1,
		FactIndexes:   2,
		DimKeyIndexes: 1,
		DimIndex:      true,
		Select:        true,
		SelectA:       1,
		FKConstraints: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSyntheticStatsMatchesFromInstance checks the analytic statistics
// against the measured ones on an instance small enough to scan:
// deterministic quantities must match exactly, the FK-draw-dependent
// ones within the tolerance of their expectation.
func TestSyntheticStatsMatchesFromInstance(t *testing.T) {
	st := scaleStar(t)
	opts := StarGenOptions{NumFact: 4000, NumDim: 100, NumSub: 10, DomA: 20, Seed: 7}
	in := st.Generate(opts)
	measured := cost.FromInstance(in)
	synth := st.SyntheticStats(opts)

	exactCards := []string{"Fact", "D0", "D1", "SUB0", "SUB1", "DK0", "SD0", "V0"}
	for _, n := range exactCards {
		if synth.Card[n] != measured.Card[n] {
			t.Errorf("Card[%s]: synthetic %v != measured %v", n, synth.Card[n], measured.Card[n])
		}
	}
	for _, n := range []string{"DK0", "SD0"} {
		if synth.EntryFanout[n] != measured.EntryFanout[n] {
			t.Errorf("EntryFanout[%s]: synthetic %v != measured %v", n, synth.EntryFanout[n], measured.EntryFanout[n])
		}
	}
	// FK index cardinality is an expectation: with 4000 draws over 100
	// keys essentially every key is hit, so the estimate must land close.
	for _, n := range []string{"FK0", "FK1"} {
		rel := math.Abs(synth.Card[n]-measured.Card[n]) / measured.Card[n]
		if rel > 0.05 {
			t.Errorf("Card[%s]: synthetic %v vs measured %v (rel err %v)", n, synth.Card[n], measured.Card[n], rel)
		}
	}
}

// TestGenerateZipfSkew: zipf draws must stay in range, remain
// deterministic per seed, satisfy the declared FK constraints, and
// actually skew mass toward low keys.
func TestGenerateZipfSkew(t *testing.T) {
	// Constraint checking uses the naive evaluator, so keep the instance
	// small and view-free here; scale behavior is covered by E18.
	st, err := NewStar(StarConfig{Dims: 2, FactIndexes: 2, DimIndex: true, FKConstraints: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := StarGenOptions{NumFact: 800, NumDim: 40, DomA: 8, Seed: 21, ZipfS: 1.4}
	in := st.Generate(opts)

	if name, err := eval.SatisfiesAll(st.Deps, in); err != nil || name != "" {
		t.Fatalf("zipf instance violates %q (err %v)", name, err)
	}

	// Key 0's FK bucket must be far above the uniform share.
	fkv, ok := in.Lookup("FK0")
	if !ok {
		t.Fatal("FK0 missing")
	}
	bucket, ok := fkv.(*instance.Dict).Get(instance.Int(0))
	if !ok {
		t.Fatal("zipf skew: key 0 has no facts at all")
	}
	hot := bucket.(*instance.Set).Len()
	if uniform := opts.NumFact / opts.NumDim; hot < 4*uniform {
		t.Errorf("zipf skew too weak: key 0 bucket %d, uniform share %d", hot, uniform)
	}

	// Determinism: same options, same instance.
	again := st.Generate(opts)
	for _, n := range []string{"Fact", "FK0", "FK1", "D0"} {
		a, _ := in.Lookup(n)
		b, _ := again.Lookup(n)
		if a.Key() != b.Key() {
			t.Fatalf("non-deterministic generation for %s", n)
		}
	}
}

// TestGenerateSharedRowStructs: the same dimension row value must be one
// shared struct across the base relation and its indexes (pointer
// equality), not a fresh copy per collection.
func TestGenerateSharedRowStructs(t *testing.T) {
	st := scaleStar(t)
	in := st.Generate(StarGenOptions{NumFact: 100, NumDim: 10, NumSub: 2, DomA: 5, Seed: 3})
	d0v, _ := in.Lookup("D0")
	byKey := map[string]*instance.Struct{}
	for _, e := range d0v.(*instance.Set).Elems() {
		byKey[e.Key()] = e.(*instance.Struct)
	}
	dk0, _ := in.Lookup("DK0")
	shared := 0
	for _, entry := range dk0.(*instance.Dict).Entries() {
		for _, e := range entry[1].(*instance.Set).Elems() {
			if byKey[e.Key()] == e.(*instance.Struct) {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("DK0 buckets hold copies of dimension rows, not shared structs")
	}
}
