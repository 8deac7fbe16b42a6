package engine

import (
	"fmt"

	"cnb/internal/core"
	"cnb/internal/eval"
	"cnb/internal/instance"
)

// DefaultBatchSize is the row capacity of the batches the streaming
// operators exchange when StreamOptions.BatchSize is zero. 1024 rows keeps
// a batch of interface values within a few cache-friendly kilobytes per
// column while amortizing the per-batch bookkeeping over enough rows that
// the iterator protocol vanishes from profiles.
const DefaultBatchSize = 1024

// Batch is a columnar slice of intermediate rows flowing between
// streaming operators: one column per bound query variable, all columns
// the same length. Operators append whole columns instead of cloning
// per-row environment maps, which is what makes the streaming engine
// cheaper than the row-at-a-time reference operators on large inputs.
//
// A Batch is owned by the operator that produced it: consumers must not
// retain it (or any column slice) across calls to Next, because producers
// recycle batch storage. Copy values out before the next pull.
type Batch struct {
	schema *batchSchema
	cols   [][]instance.Value
}

// batchSchema maps variable names to column positions. One schema is
// shared by every batch an operator emits, so per-batch allocation is
// two slices, not a map.
type batchSchema struct {
	vars []string
	idx  map[string]int
}

func newBatchSchema(vars []string) *batchSchema {
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	return &batchSchema{vars: vars, idx: idx}
}

// extend returns a schema with one more trailing variable.
func (s *batchSchema) extend(v string) *batchSchema {
	vars := make([]string, 0, len(s.vars)+1)
	vars = append(vars, s.vars...)
	return newBatchSchema(append(vars, v))
}

// newBatch allocates an empty batch with capacity rows per column.
func newBatch(schema *batchSchema, capacity int) *Batch {
	cols := make([][]instance.Value, len(schema.vars))
	for i := range cols {
		cols[i] = make([]instance.Value, 0, capacity)
	}
	return &Batch{schema: schema, cols: cols}
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if len(b.cols) == 0 {
		return 0
	}
	return len(b.cols[0])
}

// Vars returns the variable names bound by the batch, in binding order.
// The slice is shared; callers must not mutate it.
func (b *Batch) Vars() []string { return b.schema.vars }

// Col returns the column of the named variable, or nil when the variable
// is not part of the batch schema.
func (b *Batch) Col(v string) []instance.Value {
	i, ok := b.schema.idx[v]
	if !ok {
		return nil
	}
	return b.cols[i]
}

// reset truncates every column to zero rows, keeping capacity.
func (b *Batch) reset() {
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
}

// appendRow copies row i of src (which must have a schema prefix of b's)
// and appends val as the trailing column.
func (b *Batch) appendRow(src *Batch, i int, val instance.Value) {
	for j := range src.cols {
		b.cols[j] = append(b.cols[j], src.cols[j][i])
	}
	b.cols[len(b.cols)-1] = append(b.cols[len(b.cols)-1], val)
}

// copyRow copies row i of src, whose schema must equal b's.
func (b *Batch) copyRow(src *Batch, i int) {
	for j := range src.cols {
		b.cols[j] = append(b.cols[j], src.cols[j][i])
	}
}

// env materializes row i as an evaluation environment — only needed on
// the row-at-a-time interop paths (error messages, debugging); the hot
// paths evaluate terms directly against the columns via batchEval.
func (b *Batch) env(i int) eval.Env {
	env := make(eval.Env, len(b.schema.vars))
	for j, v := range b.schema.vars {
		env[v] = b.cols[j][i]
	}
	return env
}

// batchEval evaluates a path term against row i of the batch without
// materializing an environment map: variables resolve to column entries,
// everything else mirrors eval.Term exactly — including returning
// *eval.ErrLookupFailed for a failing lookup on an absent key, so callers
// (and the calibration harness) classify execution errors exactly as
// they would the reference evaluator's.
func batchEval(t *core.Term, b *Batch, i int, in *instance.Instance) (instance.Value, error) {
	switch t.Kind {
	case core.KVar:
		j, ok := b.schema.idx[t.Name]
		if !ok {
			return nil, fmt.Errorf("engine: unbound variable %q", t.Name)
		}
		return b.cols[j][i], nil
	case core.KConst:
		switch c := t.Val.(type) {
		case int64:
			return instance.Int(c), nil
		case float64:
			return instance.Float(c), nil
		case string:
			return instance.Str(c), nil
		case bool:
			return instance.Bool(c), nil
		}
		return nil, fmt.Errorf("engine: bad constant %v", t.Val)
	case core.KName:
		v, ok := in.Lookup(t.Name)
		if !ok {
			return nil, fmt.Errorf("engine: schema name %q unbound in instance", t.Name)
		}
		return v, nil
	case core.KProj:
		base, err := batchEval(t.Base, b, i, in)
		if err != nil {
			return nil, err
		}
		st, ok := base.(*instance.Struct)
		if !ok {
			return nil, fmt.Errorf("engine: projection %s on non-record %s", t, base)
		}
		f, ok := st.Field(t.Name)
		if !ok {
			return nil, fmt.Errorf("engine: record %s has no field %q", st, t.Name)
		}
		return f, nil
	case core.KDom:
		base, err := batchEval(t.Base, b, i, in)
		if err != nil {
			return nil, err
		}
		d, ok := base.(*instance.Dict)
		if !ok {
			return nil, fmt.Errorf("engine: dom of non-dictionary %s", base)
		}
		return d.Domain(), nil
	case core.KLookup:
		base, err := batchEval(t.Base, b, i, in)
		if err != nil {
			return nil, err
		}
		d, ok := base.(*instance.Dict)
		if !ok {
			return nil, fmt.Errorf("engine: lookup into non-dictionary %s", base)
		}
		key, err := batchEval(t.Key, b, i, in)
		if err != nil {
			return nil, err
		}
		v, ok := d.Get(key)
		if !ok {
			if t.NonFailing {
				return instance.NewSet(), nil
			}
			return nil, &eval.ErrLookupFailed{Term: t, Key: key}
		}
		return v, nil
	case core.KStruct:
		names := make([]string, len(t.Fields))
		vals := make([]instance.Value, len(t.Fields))
		for fi, f := range t.Fields {
			v, err := batchEval(f.Term, b, i, in)
			if err != nil {
				return nil, err
			}
			names[fi] = f.Name
			vals[fi] = v
		}
		return instance.NewStruct(names, vals), nil
	}
	return nil, fmt.Errorf("engine: cannot evaluate term %s", t)
}
