package opt

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/hardness"
	"repro/internal/pebble"
)

// These tests lock the allocation-free search core to the map-backed
// oracle: the same traversal run against hashtab.Ref must return
// byte-identical results. Any divergence means the open-addressing table
// changed state identity (a hash/equality bug), which is exactly the
// class of bug a perf rewrite can introduce silently.

// zooCases is the DAG zoo × parameter grid the equivalence tests sweep.
func zooCases() []struct {
	name string
	g    *dag.Graph
	p    pebble.Params
} {
	return []struct {
		name string
		g    *dag.Graph
		p    pebble.Params
	}{
		{"chain5", gen.Chain(5), pebble.MPP(1, 2, 3)},
		{"2chains-k1", gen.IndependentChains(2, 3), pebble.MPP(1, 2, 3)},
		{"2chains-k2", gen.IndependentChains(2, 3), pebble.MPP(2, 2, 3)},
		{"intree-d2", gen.BinaryInTree(2), pebble.MPP(2, 3, 3)},
		{"grid2x3", gen.Grid2D(2, 3), pebble.MPP(2, 3, 2)},
		{"grid3x3-k1", gen.Grid2D(3, 3), pebble.MPP(1, 4, 2)},
		{"pyramid3", gen.Pyramid(3), pebble.MPP(1, 5, 2)},
		{"oneshot-chain", gen.Chain(4), pebble.OneShotSPP(2, 2)},
		{"spp-free-compute", gen.Grid2D(2, 2), pebble.SPP(3, 2)},
		{"twolayer", gen.TwoLayerRandom(3, 3, 0.5, 6), pebble.MPP(2, 4, 3)},
	}
}

// solveColdCases are the three cold-solve instances of the repository
// benchmark (perfbench solve-cold): k=2, g=2, with the job server's
// default r = max in-degree + 2 where the request leaves r unset.
func solveColdCases() []struct {
	name string
	g    *dag.Graph
	p    pebble.Params
} {
	rg := gen.RandomDAG(10, 0.3, 3, 3)
	return []struct {
		name string
		g    *dag.Graph
		p    pebble.Params
	}{
		{"grid:3,3", gen.Grid2D(3, 3), pebble.MPP(2, 3, 2)},
		{"chains:3,4", gen.IndependentChains(3, 4), pebble.MPP(2, 2, 2)},
		{"random:10,0.3,3,3", rg, pebble.MPP(2, rg.MaxInDegree()+2, 2)},
	}
}

// TestDefaultSearchPinned pins the DefaultConfig search itself, not just
// its optimum: (Cost, States, LowerBound, Incumbent) on the zoo and the
// cold-solve instances, complete and budget-stopped, must equal values
// recorded before dominance pruning learned to consult the state table
// first and to skip candidates with every processor full. Those
// shortcuts only drop candidates insert would reject anyway, so any
// drift here means a shortcut changed what the search expands. Pruned
// is deliberately absent: its meaning changed with them.
func TestDefaultSearchPinned(t *testing.T) {
	type pin struct {
		cost, lb, inc int64
		states        int
	}
	complete := func(cost int64, states int) pin { return pin{cost, cost, cost, states} }
	zoo := map[string]pin{
		"chain5":           complete(5, 8),
		"2chains-k1":       complete(9, 112),
		"2chains-k2":       complete(3, 5),
		"intree-d2":        complete(10, 18287),
		"grid2x3":          complete(6, 116),
		"grid3x3-k1":       complete(9, 14),
		"pyramid3":         complete(10, 15),
		"oneshot-chain":    complete(0, 6),
		"spp-free-compute": complete(0, 7),
		"twolayer":         complete(3, 6),
	}
	cold := map[string]pin{
		"grid:3,3":          complete(11, 54778),
		"chains:3,4":        complete(10, 40362),
		"random:10,0.3,3,3": complete(8, 9583),
	}
	// A 5000-state budget stops each cold solve before its first
	// incumbent, pinning the anytime frontier bound.
	coldPartial := map[string]pin{
		"grid:3,3":          {cost: -1, lb: 9, inc: -1, states: 5000},
		"chains:3,4":        {cost: -1, lb: 8, inc: -1, states: 5000},
		"random:10,0.3,3,3": {cost: -1, lb: 7, inc: -1, states: 5000},
	}
	check := func(tag string, in *pebble.Instance, maxStates int, want pin) {
		t.Helper()
		res, err := ExactWith(context.Background(), in, DefaultConfig(maxStates))
		if err != nil && !IsPartial(err) {
			t.Fatalf("%s: %v", tag, err)
		}
		got := pin{res.Cost, res.LowerBound, res.Incumbent, res.States}
		if got != want {
			t.Errorf("%s: (cost, lb, inc, states) = %+v, want %+v", tag, got, want)
		}
	}
	for _, c := range zooCases() {
		check(c.name, pebble.MustInstance(c.g, c.p), budget, zoo[c.name])
	}
	for _, c := range solveColdCases() {
		in := pebble.MustInstance(c.g, c.p)
		check(c.name+"/budget5000", in, 5000, coldPartial[c.name])
		if !testing.Short() {
			check(c.name, in, budget, cold[c.name])
		}
	}
}

func TestExactTableMatchesOracleZoo(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		got, err := Exact(in, budget)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := ExactOracleWith(in, DefaultConfig(budget))
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		if got.Cost != want.Cost || got.States != want.States {
			t.Errorf("%s: table (cost %d, states %d) ≠ oracle (cost %d, states %d)",
				c.name, got.Cost, got.States, want.Cost, want.States)
		}
		// Witness mode runs without shade canonicalization — a different
		// state space, so it gets its own byte-identical comparison.
		wcfg := DefaultConfig(budget)
		wcfg.Witness = true
		gw, err := ExactWith(context.Background(), in, wcfg)
		if err != nil {
			t.Fatalf("%s: witness: %v", c.name, err)
		}
		ww, err := ExactOracleWith(in, wcfg)
		if err != nil {
			t.Fatalf("%s: witness oracle: %v", c.name, err)
		}
		if gw.Cost != ww.Cost || gw.States != ww.States {
			t.Errorf("%s: witness table (cost %d, states %d) ≠ oracle (cost %d, states %d)",
				c.name, gw.Cost, gw.States, ww.Cost, ww.States)
		}
		if gw.Cost != got.Cost {
			t.Errorf("%s: witness cost %d ≠ plain cost %d", c.name, gw.Cost, got.Cost)
		}
	}
}

// exactConfigs is the heuristic-mode × dominance grid the per-mode
// equivalence and agreement tests sweep.
func exactConfigs(maxStates int) []Config {
	var out []Config
	for _, mode := range []HeuristicMode{HeuristicFloor, HeuristicIO, HeuristicMax} {
		for _, dom := range []bool{false, true} {
			out = append(out, Config{MaxStates: maxStates, Heuristic: mode, Dominance: dom})
		}
	}
	return out
}

// TestExactModesMatchOracleZoo locks every heuristic mode × dominance
// combination to the map-backed oracle: the entire Result — cost, states
// expanded, pruned count, bracket — must be byte-identical, because the
// heuristic and pruning logic live in the shared solver and only the
// state-identity structure differs.
func TestExactModesMatchOracleZoo(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		for _, cfg := range exactConfigs(budget) {
			tag := c.name + "/" + cfg.Heuristic.String()
			if cfg.Dominance {
				tag += "+dom"
			}
			got, err := ExactWith(context.Background(), in, cfg)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			want, err := ExactOracleWith(in, cfg)
			if err != nil {
				t.Fatalf("%s: oracle: %v", tag, err)
			}
			if got.Cost != want.Cost || got.States != want.States || got.Pruned != want.Pruned ||
				got.Incumbent != want.Incumbent || got.LowerBound != want.LowerBound {
				t.Errorf("%s: table (cost %d, states %d, pruned %d) ≠ oracle (cost %d, states %d, pruned %d)",
					tag, got.Cost, got.States, got.Pruned, want.Cost, want.States, want.Pruned)
			}
			if got.HeuristicMode != cfg.Heuristic {
				t.Errorf("%s: result reports mode %v", tag, got.HeuristicMode)
			}
		}
	}
}

// TestExactModesAgreeOnOptimum asserts that every heuristic mode, with
// and without dominance pruning, proves the same optimum on the zoo —
// and that witness runs per mode replay to that same cost. States
// expanded may (and should) differ; the optimum may not.
func TestExactModesAgreeOnOptimum(t *testing.T) {
	for _, c := range zooCases() {
		in := pebble.MustInstance(c.g, c.p)
		ref, err := Exact(in, budget)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, cfg := range exactConfigs(budget) {
			res, err := ExactWith(context.Background(), in, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, cfg.Heuristic, err)
			}
			if res.Cost != ref.Cost {
				t.Errorf("%s: mode %v (dom %v) proves cost %d, default proves %d",
					c.name, cfg.Heuristic, cfg.Dominance, res.Cost, ref.Cost)
			}
			wcfg := cfg
			wcfg.Witness = true
			wres, err := ExactWith(context.Background(), in, wcfg)
			if err != nil {
				t.Fatalf("%s/%s witness: %v", c.name, cfg.Heuristic, err)
			}
			if wres.Cost != ref.Cost {
				t.Errorf("%s: witness mode %v cost %d ≠ %d", c.name, cfg.Heuristic, wres.Cost, ref.Cost)
			}
			if wres.Strategy == nil {
				t.Fatalf("%s/%s: witness run returned no strategy", c.name, cfg.Heuristic)
			}
			rep, rerr := pebble.Replay(in, wres.Strategy)
			if rerr != nil {
				t.Fatalf("%s/%s: witness does not replay: %v", c.name, cfg.Heuristic, rerr)
			}
			if rep.Cost != ref.Cost {
				t.Errorf("%s/%s: witness replays to %d, optimum is %d", c.name, cfg.Heuristic, rep.Cost, ref.Cost)
			}
		}
	}
}

func TestExactTableMatchesOracleQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		g := gen.RandomDAG(n, 0.3, 2, seed)
		k := 1 + rng.Intn(2)
		r := g.MaxInDegree() + 1 + rng.Intn(2)
		io := 1 + rng.Intn(3)
		in := pebble.MustInstance(g, pebble.MPP(k, r, io))
		got, err := Exact(in, budget)
		if err != nil {
			return false
		}
		want, err := ExactOracleWith(in, DefaultConfig(budget))
		if err != nil {
			return false
		}
		if got.Cost != want.Cost || got.States != want.States {
			t.Logf("seed %d: table (%d, %d) ≠ oracle (%d, %d)",
				seed, got.Cost, got.States, want.Cost, want.States)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func sameOrder(a, b []dag.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkZeroIOEquiv(t *testing.T, name string, g *dag.Graph, r int, max int) {
	t.Helper()
	got, err := ZeroIO(g, r, max)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := ZeroIOOracle(g, r, max)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if got.Feasible != want.Feasible || got.States != want.States || !sameOrder(got.Order, want.Order) {
		t.Errorf("%s: table (feasible %v, states %d) ≠ oracle (feasible %v, states %d)",
			name, got.Feasible, got.States, want.Feasible, want.States)
	}
}

func TestZeroIOMatchesOracleZoo(t *testing.T) {
	cases := []struct {
		name string
		g    *dag.Graph
		r    int
	}{
		{"chain10-r2", gen.Chain(10), 2},
		{"chain10-r1", gen.Chain(10), 1},
		{"intree3-r5", gen.BinaryInTree(3), 5},
		{"intree3-r4", gen.BinaryInTree(3), 4},
		{"grid3x3-r4", gen.Grid2D(3, 3), 4},
		{"pyramid4-r6", gen.Pyramid(4), 6},
		{"pyramid4-r5", gen.Pyramid(4), 5},
	}
	for _, c := range cases {
		checkZeroIOEquiv(t, c.name, c.g, c.r, budget)
	}
}

// TestZeroIOMatchesOracleCliquePairs runs the equivalence on the E12
// matched clique pairs — the Theorem 2 reduction instances whose
// multi-word memo keys exercise the table the hardest.
func TestZeroIOMatchesOracleCliquePairs(t *testing.T) {
	pairs := []struct {
		name  string
		graph *hardness.UGraph
	}{
		{"triangle+pendant", hardness.MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}})},
		{"C4", hardness.MustUGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})},
		{"bull", hardness.MustUGraph(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 4}})},
		{"C5", hardness.MustUGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})},
	}
	const q = 3
	for _, pc := range pairs {
		red, err := hardness.BuildCliqueReduction(pc.graph, q)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		wantFeasible := pc.graph.HasClique(q)
		got, err := ZeroIO(red.Graph, red.R, 8_000_000)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if got.Feasible != wantFeasible {
			t.Errorf("%s: feasible %v, want %v", pc.name, got.Feasible, wantFeasible)
		}
		checkZeroIOEquiv(t, pc.name, red.Graph, red.R, 8_000_000)
	}
}

// TestExactAllocationBudget pins the tentpole's point: a full Exact run
// on the grid benchmark instance must stay far below the old per-run
// allocation count (~13k allocs with the map/heap core). The bound is
// generous — it exists to catch a regression back to per-state
// allocation, not to freeze the exact constant.
func TestExactAllocationBudget(t *testing.T) {
	g := gen.Grid2D(3, 3)
	in := pebble.MustInstance(g, pebble.MPP(1, 4, 2))
	allocs := testing.AllocsPerRun(5, func() {
		//lint:ignore verdictcheck allocation probe: only the alloc count matters here
		if _, err := Exact(in, 10_000_000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Errorf("Exact on grid3x3 allocates %v times per run; the allocation-free core should stay ≤ 2000", allocs)
	}
	// The cold-solve grid at k=2 runs the dominance path hard (most
	// candidates meet the table check or the chain scan): with pooled
	// arenas warm, a whole 54,778-state solve allocates ~360 times (arena
	// growth), far below one allocation per candidate.
	cold := solveColdCases()[0]
	in = pebble.MustInstance(cold.g, cold.p)
	allocs = testing.AllocsPerRun(1, func() {
		//lint:ignore verdictcheck allocation probe: only the alloc count matters here
		if _, err := Exact(in, 10_000_000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("Exact on %s k2 allocates %v times per run; the dominance path should stay ≤ 1000", cold.name, allocs)
	}
}

// TestZeroIOAllocationBudget keeps the zero-I/O setup allocation-light:
// the twin classes come from one sort of the node IDs, not a map of
// per-node string signatures (83 allocations on this 28-state decision;
// 23 with the sort).
func TestZeroIOAllocationBudget(t *testing.T) {
	g := gen.Pyramid(6)
	allocs := testing.AllocsPerRun(20, func() {
		res, err := ZeroIO(g, 8, 0)
		if err != nil || res.Verdict != VerdictFeasible || res.States != 28 {
			t.Fatalf("ZeroIO(pyramid6, r=8) = %+v, %v; want feasible after 28 states", res, err)
		}
	})
	if allocs > 30 {
		t.Errorf("ZeroIO on pyramid6 r=8 allocates %v times per run; want ≤ 30", allocs)
	}
}
