// Package engine is the physical execution engine: it compiles a PC plan
// into a tree of pull-based batch operators (scans, dictionary lookups,
// hash joins, filters) and runs it against an instance.
//
// Unlike the reference evaluator (package eval), the engine exploits the
// physical distinctions that motivate the paper: a dictionary lookup is a
// hash probe, not a scan, so plans like P3 (secondary-index lookup) and P4
// (join-index navigation) run in time proportional to their result, not to
// the base data. The E8 experiment measures exactly this difference.
//
// One executor lives here: the streaming batch engine
// (CompileStream/StreamExecute) processes columnar batches with predicate
// pushdown, hash joins and buffered pipelining. It serves every /query,
// and its Counters/Measure profile is what the E14 calibration and the
// E18 gates record, so the cost model is calibrated against the executor
// that serves. Package eval is the result reference every test checks
// it against.
//
// Concurrency: a compiled StreamPlan is single-consumer — it may not be
// driven by more than one goroutine at a time (buffered stages spawn
// internal producer goroutines, but the Open/Next/Close surface remains
// single-threaded). Plans are cheap to compile; build one per
// goroutine. Instances are read-only during execution.
package engine

// Counters is the work profile of one operator since its last Open:
// Evals counts range/condition evaluations (for a lookup scan, one Eval
// is one dictionary probe; for a relation scan, one pass over the
// collection), Rows counts rows the operator emitted. The sum over a plan
// tree is the measured-cost counterpart of cost.Stats.Estimate — the E14
// calibration experiment correlates the two.
type Counters struct {
	Evals int64
	Rows  int64
}

func (c *Counters) add(o Counters) {
	c.Evals += o.Evals
	c.Rows += o.Rows
}

// Measure is the work profile of the last Run: the summed operator
// counters plus the number of rows that reached the projection (before
// set deduplication). Cost is the scalar proxy the calibration harness
// compares against cost.Stats estimates: every range evaluation (probe or
// scan start) plus every row moved through the pipeline or projected.
type Measure struct {
	Counters
	OutRows int64
}

// Cost collapses the profile into one machine-independent work number.
func (m Measure) Cost() float64 {
	return float64(m.Evals + m.Rows + m.OutRows)
}
