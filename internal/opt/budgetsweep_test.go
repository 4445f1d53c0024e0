package opt

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/pebble"
)

// detWorkers is the Workers grid the deterministic contract is checked
// over: the GOMAXPROCS default, the one-worker value, two even splits
// and a prime. ModeDeterministic ignores Workers, so every Result must
// be byte-identical across it.
var detWorkers = []int{0, 1, 2, 4, 7}

// sampledBudgets returns budgets spread over (0, states): fixed small
// ones that stop in the first expansions and proportional points that
// land mid-search and just shy of completion.
func sampledBudgets(states int) []int {
	var out []int
	for _, max := range []int{1, 2, 3, 5, 8, states / 3, 2 * states / 3, states - 1} {
		if max >= 1 && max < states {
			out = append(out, max)
		}
	}
	return out
}

// TestBudgetSweepDeterminism samples the budget axis on every zoo case
// and pins the deterministic engine's partial-result contract: at each
// sampled MaxStates, every Workers value and a repeat run must return a
// Result and error identical to the first run, and the map-backed
// oracle must agree with it exactly.
func TestBudgetSweepDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		full, err := Exact(in, budget)
		if err != nil {
			t.Fatalf("%s full: %v", c.name, err)
		}
		for _, max := range sampledBudgets(full.States) {
			cfg := DefaultConfig(max)
			want, werr := ExactWith(ctx, in, cfg)
			// Workers = 0 in the sweep is a plain repeat of this run.
			for _, w := range detWorkers {
				cfg.Workers = w
				got, gerr := ExactWith(ctx, in, cfg)
				if !reflect.DeepEqual(got, want) || errString(gerr) != errString(werr) {
					t.Errorf("%s budget=%d workers=%d: %+v (err %v) ≠ first run %+v (err %v)",
						c.name, max, w, got, gerr, want, werr)
				}
			}
			orc, oerr := ExactOracleWith(in, cfg)
			if !reflect.DeepEqual(orc, want) || errString(oerr) != errString(werr) {
				t.Errorf("%s budget=%d: oracle %+v (err %v) ≠ table %+v (err %v)",
					c.name, max, orc, oerr, want, werr)
			}
		}
	}
}

// TestBudgetStopExact: the deterministic engine charges the budget per
// expansion, so every budget below the full search's expansion count
// stops with States == MaxStates exactly — no overshoot — and a typed
// ErrBudget; a budget equal to the full count completes. Across
// increasing budgets the stop explores a growing prefix of the same
// expansion sequence, so the bracket only tightens. (Workers cannot
// change any of this: TestBudgetSweepDeterminism.)
func TestBudgetStopExact(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		full, err := Exact(in, budget)
		if err != nil {
			t.Fatalf("%s full: %v", c.name, err)
		}
		prevInc, prevLB := int64(-1), int64(0)
		for _, max := range sampledBudgets(full.States) {
			res, err := Exact(in, max)
			if !errors.Is(err, ErrBudget) || res.Status != StatusBudget {
				t.Fatalf("%s budget=%d: (status %v, err %v), want a budget stop", c.name, max, res.Status, err)
			}
			if res.States != max {
				t.Errorf("%s budget=%d: %d states expanded, want exactly %d", c.name, max, res.States, max)
			}
			incumbentOK(t, c.name, res, full.Cost)
			if prevInc >= 0 && (res.Incumbent < 0 || res.Incumbent > prevInc) {
				t.Errorf("%s budget=%d: incumbent worsened %d → %d", c.name, max, prevInc, res.Incumbent)
			}
			if res.LowerBound < prevLB {
				t.Errorf("%s budget=%d: lower bound retreated %d → %d", c.name, max, prevLB, res.LowerBound)
			}
			prevInc, prevLB = res.Incumbent, res.LowerBound
		}
		res, err := Exact(in, full.States)
		if err != nil || !reflect.DeepEqual(res, full) {
			t.Errorf("%s: budget = full count %d: %+v (err %v), want the unbudgeted result %+v",
				c.name, full.States, res, err, full)
		}
	}
}

// errString renders an error for equality checks; nil is "".
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
