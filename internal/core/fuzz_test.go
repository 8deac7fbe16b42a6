package core

import (
	"math/rand"
	"testing"
)

// FuzzCanonicalSignature checks that CanonicalSignature is invariant
// under variable renaming, dependency-valid binding shuffles and
// condition reordering or flipping: the seed picks a random star,
// snowflake or chain query (randomQuery) and the scramble seed an
// isomorphic variant of it (scrambled). The variant's ShapeKey must
// equal the original's too.
func FuzzCanonicalSignature(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed*7+1)
	}
	f.Fuzz(func(t *testing.T, seed, scramble int64) {
		q := randomQuery(rand.New(rand.NewSource(seed)))
		s := scrambled(q, rand.New(rand.NewSource(scramble)))
		if err := s.Validate(); err != nil {
			t.Fatalf("scrambler produced an invalid query: %v\n%s", err, s)
		}
		if got, want := s.CanonicalSignature(), q.CanonicalSignature(); got != want {
			t.Fatalf("canonical signature not invariant\noriginal: %s\nsig:      %s\nvariant:  %s\nsig:      %s", q, want, s, got)
		}
		if s.ShapeKey() != q.ShapeKey() {
			t.Fatalf("shape key not invariant\noriginal: %s\nvariant:  %s", q, s)
		}
	})
}
