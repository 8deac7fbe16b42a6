package chase

import (
	"context"
	"errors"
	"testing"

	"cnb/internal/core"
)

// TestChaseContextCancelled asserts a cancelled context interrupts the
// chase before it applies any step.
func TestChaseContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := &core.Query{
		Out:      core.Prj(core.V("r"), "A"),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
	}
	ind := &core.Dependency{
		Name:            "IND",
		Premise:         []core.Binding{{Var: "r", Range: core.Name("R")}},
		Conclusion:      []core.Binding{{Var: "s", Range: core.Name("S")}},
		ConclusionConds: []core.Cond{{L: core.Prj(core.V("r"), "A"), R: core.Prj(core.V("s"), "A")}},
	}
	_, err := ChaseIndexed(ctx, q, NewDepIndex([]*core.Dependency{ind}), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestChaseContextBackground pins that the plain Chase entry point is
// unaffected by the context plumbing.
func TestChaseContextBackground(t *testing.T) {
	q := &core.Query{
		Out:      core.Prj(core.V("r"), "A"),
		Bindings: []core.Binding{{Var: "r", Range: core.Name("R")}},
	}
	res, err := Chase(q, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Query.Bindings) != 1 {
		t.Fatalf("no-dependency chase must be the identity, got %d bindings", len(res.Query.Bindings))
	}
}
