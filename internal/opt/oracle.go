package opt

import (
	"context"

	"repro/internal/dag"
	"repro/internal/hashtab"
	"repro/internal/pebble"
)

// Oracle variants of the exact solvers: the identical search code run
// against the map-backed hashtab.Ref instead of the open-addressing
// table. Because the traversal, tie-breaking (LIFO within each f-bucket
// of the bucket queue) and pruning logic are shared and only the
// state-identity structure is swapped, an oracle run must return
// byte-identical results — the whole Result for ExactWith, (Feasible,
// States, Order) for ZeroIO. The equivalence tests assert exactly that
// on the DAG zoo and the Theorem 2 reduction instances; the oracles are
// ordinary non-test code (no build tag) so the comparison compiles
// everywhere.

// ExactOracleWith is ExactWith backed by the map-based reference state
// table, so every Config combination — heuristic mode, dominance,
// witness — can be locked byte-for-byte against the arena-backed run
// (a sharded ModeAsync run gives each shard its own Ref).
func ExactOracleWith(in *pebble.Instance, cfg Config) (*Result, error) {
	//lint:ignore ctxthread oracle runs are equivalence-test support and never deadline-bound
	return exact(context.Background(), in, cfg, func() hashtab.Index { return hashtab.NewRef(stateWords(in.K)) })
}

// ZeroIOOracle is ZeroIO backed by the map-based reference memo.
func ZeroIOOracle(g *dag.Graph, r int, maxStates int) (*ZeroIOResult, error) {
	words := (g.N() + 63) / 64
	if words == 0 {
		words = 1
	}
	//lint:ignore ctxthread oracle runs are equivalence-test support and never deadline-bound
	return zeroIO(context.Background(), g, r, maxStates, hashtab.NewRef(words))
}
