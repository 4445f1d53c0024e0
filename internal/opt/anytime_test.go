package opt

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/pebble"
)

// These tests pin the anytime contract: an interrupted search must
// return a usable partial result — an incumbent/lower-bound bracket for
// Exact, an explicit indeterminate verdict for the zero-I/O deciders —
// behind a typed error, and the partial trajectory must stay
// byte-identical between the open-addressing table and the map-backed
// oracle.

// incumbentOK checks the bracket invariants of a partial Result against
// the proven optimum of a completed run.
func incumbentOK(t *testing.T, tag string, res *Result, optCost int64) {
	t.Helper()
	if res == nil {
		t.Fatalf("%s: partial stop returned nil result", tag)
	}
	if !res.Status.Partial() {
		t.Errorf("%s: status %v is not partial", tag, res.Status)
	}
	if res.LowerBound > optCost {
		t.Errorf("%s: lower bound %d exceeds OPT %d (inadmissible)", tag, res.LowerBound, optCost)
	}
	if res.Incumbent >= 0 {
		if res.Incumbent < optCost {
			t.Errorf("%s: incumbent %d beats OPT %d (replay would be invalid)", tag, res.Incumbent, optCost)
		}
		if res.LowerBound > res.Incumbent {
			t.Errorf("%s: inverted bracket [%d, %d]", tag, res.LowerBound, res.Incumbent)
		}
		if res.Cost != res.Incumbent {
			t.Errorf("%s: partial Cost %d ≠ Incumbent %d", tag, res.Cost, res.Incumbent)
		}
	}
}

func TestExactAnytimeBudget(t *testing.T) {
	g := gen.Grid2D(2, 3)
	in := pebble.MustInstance(g, pebble.MPP(2, 3, 2))
	full, err := Exact(in, budget)
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != StatusComplete || full.Status.Partial() {
		t.Fatalf("complete run has status %v", full.Status)
	}
	if full.Incumbent != full.Cost || full.LowerBound != full.Cost {
		t.Fatalf("complete run bracket [%d, %d] should collapse to cost %d",
			full.LowerBound, full.Incumbent, full.Cost)
	}

	// Increasing budgets: every stop is typed, every bracket valid, the
	// incumbent never worsens and the lower bound never retreats as the
	// search sees more (the traversal is deterministic, so a larger
	// budget explores a superset).
	prevInc := int64(-1)
	prevLB := int64(0)
	for _, max := range []int{1, 2, 10, 100, 1000} {
		res, err := Exact(in, max)
		if err == nil {
			if max >= full.States {
				break
			}
			t.Fatalf("budget %d (< %d states) unexpectedly completed", max, full.States)
		}
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %d: error %v does not wrap ErrBudget", max, err)
		}
		if !IsPartial(err) {
			t.Fatalf("budget %d: IsPartial false for %v", max, err)
		}
		if res.Status != StatusBudget {
			t.Errorf("budget %d: status %v, want StatusBudget", max, res.Status)
		}
		incumbentOK(t, "budget", res, full.Cost)
		if prevInc >= 0 && (res.Incumbent < 0 || res.Incumbent > prevInc) {
			t.Errorf("budget %d: incumbent worsened %d → %d", max, prevInc, res.Incumbent)
		}
		if res.LowerBound < prevLB {
			t.Errorf("budget %d: lower bound retreated %d → %d", max, prevLB, res.LowerBound)
		}
		prevInc, prevLB = res.Incumbent, res.LowerBound
	}

	// Witness mode under budget: any strategy handed back must replay to
	// the incumbent, not to garbage.
	wcfg := DefaultConfig(200)
	wcfg.Witness = true
	res, err := ExactWith(context.Background(), in, wcfg)
	if errors.Is(err, ErrBudget) && res.Strategy != nil {
		rep, rerr := pebble.Replay(in, res.Strategy)
		if rerr != nil {
			t.Fatalf("partial witness does not replay: %v", rerr)
		}
		if rep.Cost != res.Incumbent {
			t.Errorf("partial witness replays to %d, incumbent says %d", rep.Cost, res.Incumbent)
		}
	}
}

func TestExactAnytimeCancel(t *testing.T) {
	g := gen.Grid2D(2, 3)
	in := pebble.MustInstance(g, pebble.MPP(2, 3, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExactWith(ctx, in, DefaultConfig(budget))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: error %v does not wrap context.Canceled", err)
	}
	if !IsPartial(err) {
		t.Fatalf("cancelled ctx: IsPartial false for %v", err)
	}
	if res == nil || res.Status != StatusCanceled {
		t.Fatalf("cancelled ctx: result %+v, want StatusCanceled", res)
	}
	if res.Incumbent != -1 {
		t.Errorf("cancelled-before-start run found incumbent %d", res.Incumbent)
	}
}

// TestExactOraclePartialEquivalence locks the anytime trajectory itself
// to the oracle: an early budget stop must leave both state tables at a
// byte-identical (Cost, States, Incumbent, LowerBound, Status).
func TestExactOraclePartialEquivalence(t *testing.T) {
	g := gen.Grid2D(3, 3)
	in := pebble.MustInstance(g, pebble.MPP(1, 4, 2))
	for _, max := range []int{1, 5, 50, 500, 5000} {
		got, gerr := Exact(in, max)
		want, werr := ExactOracleWith(in, DefaultConfig(max))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("budget %d: table err %v, oracle err %v", max, gerr, werr)
		}
		if got.Cost != want.Cost || got.States != want.States ||
			got.Incumbent != want.Incumbent || got.LowerBound != want.LowerBound ||
			got.Status != want.Status {
			t.Errorf("budget %d: table (cost %d, states %d, inc %d, lb %d, %v) ≠ oracle (cost %d, states %d, inc %d, lb %d, %v)",
				max, got.Cost, got.States, got.Incumbent, got.LowerBound, got.Status,
				want.Cost, want.States, want.Incumbent, want.LowerBound, want.Status)
		}
	}
}

// TestZeroIOAnytime pins the zero-I/O budget and cancellation contract,
// mirroring TestBudgetStopExact: a budget stop has States == maxStates
// exactly behind an ErrBudget-wrapped error and an indeterminate verdict,
// a budget equal to the full count (or a non-positive one) completes
// with the identical Result, and complete runs carry definite verdicts.
func TestZeroIOAnytime(t *testing.T) {
	cases := []struct {
		name string
		g    *dag.Graph
		r    int
	}{
		// Tight: forces real search before the infeasible verdict.
		{"pyramid4-r5", gen.Pyramid(4), 5},
		{"pyramid4-r6", gen.Pyramid(4), 6},
		{"grid3x3-r4", gen.Grid2D(3, 3), 4},
		{"twolayer-r5", gen.TwoLayerRandom(4, 5, 0.5, 3), 5},
	}
	for _, c := range cases {
		full, err := ZeroIO(c.g, c.r, budget)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if full.Status != StatusComplete || full.Verdict != verdictOf(full.Feasible) {
			t.Fatalf("%s: complete run %+v has no definite verdict", c.name, full)
		}
		if full.States < 2 {
			t.Fatalf("%s: only %d states explored; pick a harder case", c.name, full.States)
		}
		for _, max := range sampledBudgets(full.States) {
			res, err := ZeroIO(c.g, c.r, max)
			if !errors.Is(err, ErrBudget) || !IsPartial(err) {
				t.Fatalf("%s budget=%d: error %v does not wrap ErrBudget", c.name, max, err)
			}
			if res == nil || res.Verdict != VerdictIndeterminate || res.Status != StatusBudget {
				t.Fatalf("%s budget=%d: result %+v, want indeterminate/StatusBudget", c.name, max, res)
			}
			if res.States != max {
				t.Errorf("%s budget=%d: %d states explored, want exactly %d", c.name, max, res.States, max)
			}
			if res.Feasible || res.Order != nil {
				t.Errorf("%s budget=%d: partial result claims a witness: %+v", c.name, max, res)
			}
		}
		for _, max := range []int{full.States, 0, -1} {
			res, err := ZeroIO(c.g, c.r, max)
			if err != nil || !reflect.DeepEqual(res, full) {
				t.Errorf("%s: budget %d: %+v (err %v), want the complete result %+v", c.name, max, res, err, full)
			}
		}
	}

	g := gen.Pyramid(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ZeroIOCtx(ctx, g, 5, budget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: error %v does not wrap context.Canceled", err)
	}
	if res == nil || res.Verdict != VerdictIndeterminate || res.Status != StatusCanceled {
		t.Fatalf("cancelled ctx: result %+v, want indeterminate/StatusCanceled", res)
	}

	// Pyramid(4) needs h+2 = 6 pebbles: the verdict flips at r = 6.
	res, err = ZeroIO(g, 5, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictInfeasible || res.Status != StatusComplete {
		t.Fatalf("pyramid4 r=5: %+v, want infeasible/complete", res)
	}
	res, err = ZeroIO(g, 6, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictFeasible || !res.Feasible {
		t.Fatalf("pyramid4 r=6: %+v, want feasible", res)
	}
}

// TestZeroIOBigAnytime checks the budget and cancel contract on DAGs of
// more than 64 nodes, where the computed set spans several bitset words.
func TestZeroIOBigAnytime(t *testing.T) {
	g := gen.Pyramid(11) // 78 nodes
	const r = 12         // one short of h+2: infeasible, so the search cannot stop early

	res, err := ZeroIO(g, r, 1)
	if !errors.Is(err, ErrBudget) || !IsPartial(err) {
		t.Fatalf("budget 1: error %v does not wrap ErrBudget", err)
	}
	if res == nil || res.Verdict != VerdictIndeterminate || res.Status != StatusBudget {
		t.Fatalf("budget 1: result %+v, want indeterminate/StatusBudget", res)
	}
	if res.States != 1 || res.Feasible || res.Order != nil {
		t.Errorf("budget 1: partial result %+v, want 1 state and no witness", res)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = ZeroIOCtx(ctx, g, r, budget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: error %v does not wrap context.Canceled", err)
	}
	if res == nil || res.Verdict != VerdictIndeterminate || res.Status != StatusCanceled {
		t.Fatalf("cancelled ctx: result %+v, want indeterminate/StatusCanceled", res)
	}

	// Complete runs past one word carry definite verdicts both ways.
	chain := gen.Chain(100)
	res, err = ZeroIO(chain, 1, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictInfeasible || res.Status != StatusComplete {
		t.Fatalf("chain100 r=1: %+v, want infeasible/complete", res)
	}
	res, err = ZeroIO(chain, 2, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictFeasible || res.Status != StatusComplete || len(res.Order) != 100 {
		t.Fatalf("chain100 r=2: %+v, want feasible/complete with a 100-node order", res)
	}
}

// TestZeroIOWordBoundary sweeps the 64-bit word edge of the computed-set
// bitset and its memo keys: chains of 61 to 64 nodes must still decide
// correctly and yield a witness that replays with zero I/O.
func TestZeroIOWordBoundary(t *testing.T) {
	for _, n := range []int{61, 62, 63, 64} {
		g := gen.Chain(n)
		// r = 2 suffices for a chain (live set is the frontier node plus
		// its successor); r = 1 cannot even hold an edge.
		res, err := ZeroIO(g, 2, budget)
		if err != nil {
			t.Fatalf("chain%d r=2: %v", n, err)
		}
		if !res.Feasible || res.Verdict != VerdictFeasible {
			t.Errorf("chain%d r=2: %+v, want feasible", n, res)
		}
		if len(res.Order) != n {
			t.Errorf("chain%d: witness order has %d nodes", n, len(res.Order))
		}
		if s := ZeroIOStrategy(g, res.Order); s != nil {
			in := pebble.MustInstance(g, pebble.OneShotSPP(2, 1))
			rep, rerr := pebble.Replay(in, s)
			if rerr != nil {
				t.Errorf("chain%d: witness strategy invalid: %v", n, rerr)
			} else if rep.IOMoves != 0 {
				t.Errorf("chain%d: witness strategy pays %d I/O moves", n, rep.IOMoves)
			}
		}
		res2, err := ZeroIO(g, 1, budget)
		if err != nil {
			t.Fatalf("chain%d r=1: %v", n, err)
		}
		if res2.Feasible || res2.Verdict != VerdictInfeasible {
			t.Errorf("chain%d r=1: %+v, want infeasible", n, res2)
		}
	}
}
