// Package verdicttest seeds verdictcheck violations: solver results
// discarded or used without consulting Status/Verdict or the paired
// error.
package verdicttest

import (
	"context"

	"repro/internal/dag"
	"repro/internal/opt"
	"repro/internal/pebble"
)

// Discarded drops the solver result on the floor.
func Discarded(in *pebble.Instance) {
	opt.Exact(in, 10) // want "verdictcheck: result of Exact discarded"
}

// Blank binds the result to the blank identifier.
func Blank(g *dag.Graph) error {
	_, err := opt.ZeroIO(g, 2, 10) // want "verdictcheck: result of ZeroIO assigned to _"
	return err
}

// CostOnly reads Cost off a possibly-partial result and drops the error.
func CostOnly(in *pebble.Instance) int64 {
	res, _ := opt.Exact(in, 10) // want "verdictcheck: Status/Verdict of Exact result res never consulted"
	return res.Cost
}

// ConfigCostOnly reads Cost off an ExactWith result and drops the error.
func ConfigCostOnly(ctx context.Context, in *pebble.Instance) int64 {
	res, _ := opt.ExactWith(ctx, in, opt.DefaultConfig(10)) // want "verdictcheck: Status/Verdict of ExactWith result res never consulted"
	return res.Cost
}

// FeasibleOnly trusts Feasible without checking the Verdict.
func FeasibleOnly(g *dag.Graph) bool {
	res, _ := opt.ZeroIO(g, 2, 10) // want "verdictcheck: Status/Verdict of ZeroIO result res never consulted"
	return res.Feasible
}

// StatusRead consults Status; no finding.
func StatusRead(in *pebble.Instance) int64 {
	res, _ := opt.Exact(in, 10)
	if res.Status != opt.StatusComplete {
		return -1
	}
	return res.Cost
}

// VerdictRead consults Verdict; no finding.
func VerdictRead(g *dag.Graph) bool {
	res, _ := opt.ZeroIO(g, 2, 10)
	return res.Verdict == opt.VerdictFeasible
}

// ErrChecked relies on the paired error, which is non-nil exactly when
// the result is partial; no finding.
func ErrChecked(in *pebble.Instance) (int64, error) {
	res, err := opt.Exact(in, 10)
	if err != nil {
		return 0, err
	}
	return res.Cost, nil
}

// Escapes hands the result to a consumer we cannot see; no finding.
func Escapes(in *pebble.Instance) *opt.Result {
	res, _ := opt.Exact(in, 10)
	return res
}
