package opt

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/pebble"
)

// Tests of the deterministic engine across Config.Workers values:
// ModeDeterministic always runs the sequential engine, so every Result
// field is identical at every worker count. Also the oracle equivalence
// at each worker count, the anytime contract, and the incumbent-less
// LowerBound regression (ISSUE 5). The async sharded engine reuses
// workerSweep (async_test.go).

// workerSweep is the worker-count grid the tests run: the one-worker
// value, two even splits, and a prime that exercises uneven shard
// ownership in ModeAsync.
var workerSweep = []int{1, 2, 4, 7}

// TestExactWorkersMatchSequentialZoo locks every worker count to the
// single-worker run for every zoo case: the whole Result — Cost,
// States, Status, Incumbent, LowerBound, Pruned and ReExpanded — must
// be identical.
func TestExactWorkersMatchSequentialZoo(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		cfg := DefaultConfig(budget)
		cfg.Workers = 1
		want, err := ExactWith(ctx, in, cfg)
		if err != nil {
			t.Fatalf("%s: workers=1: %v", c.name, err)
		}
		if want.ReExpanded != 0 {
			t.Errorf("%s: sequential run reopened %d states, want 0 under a consistent heuristic", c.name, want.ReExpanded)
		}
		for _, w := range workerSweep[1:] {
			cfg.Workers = w
			got, err := ExactWith(ctx, in, cfg)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", c.name, w, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: workers=%d %+v ≠ workers=1 %+v", c.name, w, got, want)
			}
		}
	}
}

// TestExactWorkersMatchOracleZoo runs table vs map-backed oracle at
// every worker count: the two implementations perform the identical
// operation sequence per shard, so every Result field (Pruned included)
// must match byte-for-byte.
func TestExactWorkersMatchOracleZoo(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		for _, w := range workerSweep {
			cfg := DefaultConfig(budget)
			cfg.Workers = w
			got, err := ExactWith(ctx, in, cfg)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", c.name, w, err)
			}
			want, err := ExactOracleWith(in, cfg)
			if err != nil {
				t.Fatalf("%s: workers=%d oracle: %v", c.name, w, err)
			}
			if got.Cost != want.Cost || got.States != want.States ||
				got.Pruned != want.Pruned || got.Incumbent != want.Incumbent ||
				got.LowerBound != want.LowerBound || got.Status != want.Status {
				t.Errorf("%s: workers=%d table (cost %d states %d pruned %d) ≠ oracle (cost %d states %d pruned %d)",
					c.name, w, got.Cost, got.States, got.Pruned, want.Cost, want.States, want.Pruned)
			}
		}
	}
}

// TestExactWorkersWitness checks the witness contract at every worker
// count: the strategy must replay to exactly the optimal cost, and —
// the engine being sequential whatever Workers says — the move sequence
// itself must be identical to the single-worker one.
func TestExactWorkersWitness(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		var first *pebble.Strategy
		for _, w := range workerSweep {
			cfg := DefaultConfig(budget)
			cfg.Witness = true
			cfg.Workers = w
			res, err := ExactWith(ctx, in, cfg)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", c.name, w, err)
			}
			if res.Strategy == nil {
				t.Fatalf("%s: workers=%d: no strategy", c.name, w)
			}
			rep, err := pebble.Replay(in, res.Strategy)
			if err != nil {
				t.Fatalf("%s: workers=%d: replay: %v", c.name, w, err)
			}
			if rep.Cost != res.Cost {
				t.Errorf("%s: workers=%d: strategy replays to %d, result says %d",
					c.name, w, rep.Cost, res.Cost)
			}
			if first == nil {
				first = res.Strategy
			} else if !reflect.DeepEqual(res.Strategy, first) {
				t.Errorf("%s: workers=%d: strategy differs from the workers=1 strategy", c.name, w)
			}
		}
	}
}

// TestExactPartialLowerBoundRegression is the ISSUE 5 bugfix test: a
// budget=1 stop sees no feasible pebbling, so Incumbent is -1 — and
// LowerBound must still report the non-negative frontier bound instead
// of being clamped toward the sentinel. Checked at every worker count.
func TestExactPartialLowerBoundRegression(t *testing.T) {
	ctx := context.Background()
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		for _, w := range workerSweep {
			cfg := DefaultConfig(1)
			cfg.Workers = w
			res, err := ExactWith(ctx, in, cfg)
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("%s: workers=%d: want ErrBudget, got %v", c.name, w, err)
			}
			if res.Status != StatusBudget {
				t.Errorf("%s: workers=%d: status %v, want budget", c.name, w, res.Status)
			}
			if res.Incumbent != -1 {
				t.Errorf("%s: workers=%d: budget=1 found incumbent %d, want -1", c.name, w, res.Incumbent)
			}
			if !(res.LowerBound >= 0 && res.LowerBound > res.Incumbent) {
				t.Errorf("%s: workers=%d: want LowerBound >= 0 > Incumbent, got lb=%d inc=%d",
					c.name, w, res.LowerBound, res.Incumbent)
			}
		}
	}
}

// TestExactParallelAnytimeBracket sweeps budgets at several worker
// counts: each partial bracket must contain the true optimum, and the
// bracket must be identical to the single-worker bracket at the same
// budget (a budget stop is a pure function of the budget).
func TestExactParallelAnytimeBracket(t *testing.T) {
	ctx := context.Background()
	in := pebble.MustInstance(zooCases()[4].g, zooCases()[4].p) // grid2x3
	full, err := Exact(in, budget)
	if err != nil {
		t.Fatalf("full solve: %v", err)
	}
	for _, max := range []int{1, 2, 10, 100} {
		cfg1 := DefaultConfig(max)
		cfg1.Workers = 1
		want, err1 := ExactWith(ctx, in, cfg1)
		for _, w := range workerSweep[1:] {
			cfg := DefaultConfig(max)
			cfg.Workers = w
			got, err := ExactWith(ctx, in, cfg)
			if (err == nil) != (err1 == nil) {
				t.Fatalf("budget %d: workers=%d err %v vs workers=1 err %v", max, w, err, err1)
			}
			if got.LowerBound != want.LowerBound || got.Incumbent != want.Incumbent ||
				got.States != want.States || got.Status != want.Status {
				t.Errorf("budget %d: workers=%d bracket [%d,%d] states %d ≠ workers=1 [%d,%d] states %d",
					max, w, got.LowerBound, got.Incumbent, got.States,
					want.LowerBound, want.Incumbent, want.States)
			}
			if got.LowerBound > full.Cost {
				t.Errorf("budget %d: workers=%d lower bound %d exceeds optimum %d",
					max, w, got.LowerBound, full.Cost)
			}
			if got.Incumbent >= 0 && got.Incumbent < full.Cost {
				t.Errorf("budget %d: workers=%d incumbent %d below optimum %d",
					max, w, got.Incumbent, full.Cost)
			}
		}
	}
}

// TestExactParallelCancel cancels before the search starts: every
// worker count must come back canceled with the no-incumbent sentinel.
func TestExactParallelCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := pebble.MustInstance(zooCases()[4].g, zooCases()[4].p)
	for _, w := range workerSweep {
		cfg := DefaultConfig(budget)
		cfg.Workers = w
		res, err := ExactWith(ctx, in, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", w, err)
		}
		if res.Status != StatusCanceled {
			t.Errorf("workers=%d: status %v, want canceled", w, res.Status)
		}
		if res.Incumbent != -1 {
			t.Errorf("workers=%d: incumbent %d, want -1", w, res.Incumbent)
		}
		if res.LowerBound < 0 {
			t.Errorf("workers=%d: negative lower bound %d", w, res.LowerBound)
		}
	}
}

// TestExactUnboundedCompletes is the MaxStates≤0 regression: the Config
// docs promise "non-positive means unbounded", so a zero-budget config
// must run to the proven optimum instead of stopping after one state.
func TestExactUnboundedCompletes(t *testing.T) {
	in := pebble.MustInstance(zooCases()[4].g, zooCases()[4].p)
	want, err := Exact(in, budget)
	if err != nil {
		t.Fatalf("bounded: %v", err)
	}
	for _, max := range []int{0, -5} {
		res, err := ExactWith(context.Background(), in, Config{MaxStates: max, Dominance: true, Workers: 1})
		if err != nil {
			t.Fatalf("MaxStates=%d: %v", max, err)
		}
		if res.Status != StatusComplete || res.Cost != want.Cost {
			t.Errorf("MaxStates=%d: (status %v, cost %d), want complete cost %d",
				max, res.Status, res.Cost, want.Cost)
		}
	}
}

// TestExactWorkersDefaultResolution checks the Workers=0 path end to
// end (GOMAXPROCS resolution included) against the pinned sequential
// result.
func TestExactWorkersDefaultResolution(t *testing.T) {
	in := pebble.MustInstance(zooCases()[4].g, zooCases()[4].p)
	want, err := Exact(in, budget)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	got, err := ExactWith(context.Background(), in, DefaultConfig(budget))
	if err != nil {
		t.Fatalf("workers=0: %v", err)
	}
	if got.Cost != want.Cost || got.States != want.States {
		t.Errorf("workers=0 (cost %d, states %d) ≠ sequential (cost %d, states %d)",
			got.Cost, got.States, want.Cost, want.States)
	}
}
