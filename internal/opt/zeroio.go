package opt

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/hashtab"
	"repro/internal/pebble"
)

// ZeroIOResult reports the outcome of the zero-I/O decision procedure.
type ZeroIOResult struct {
	// Feasible is true when a witness was found. On a partial run it is
	// false but means "not decided" — check Verdict, not this field, when
	// the search may have stopped early.
	Feasible bool
	// Verdict is the three-valued answer: feasible, infeasible, or
	// indeterminate when the search stopped on budget or cancellation.
	Verdict Verdict
	// Order is a witness compute order when feasible (nil otherwise).
	Order []dag.NodeID
	// States is the number of distinct computed-sets explored, including
	// the ones explored before an early stop.
	States int
	// Status reports whether the search completed or why it stopped.
	Status Status
}

// ZeroIO decides whether a one-shot SPP pebbling of I/O cost 0 exists for
// the DAG with fast memory r — the NP-hard decision problem at the heart
// of Theorem 2.
//
// A zero-cost one-shot pebbling uses no blue pebbles at all, and (as the
// proof of Theorem 2 observes) deletions are forced: a red pebble should
// be deleted exactly when all out-neighbors have been computed, except on
// sinks, which must keep their pebble to the end. A pebbling is therefore
// exactly a permutation of the compute steps, and the memory bound must
// hold after every prefix, where the pebbles alive after a prefix C are
//
//	live(C) = {v ∈ C : some successor ∉ C} ∪ {v ∈ C : v is a sink}.
//
// The search runs over computed-sets held in bitsets, so any node count
// is accepted. It memoizes failed sets and applies two sound prunings:
// twin classes (interchangeable nodes are computed in ID order) and
// free-first (a node whose computation frees a pebble is scheduled
// first, without branching). Worst-case exponential, as it must be
// unless P = NP.
//
// maxStates bounds the number of distinct sets explored; non-positive
// means unbounded. A budget stop returns a partial result with States ==
// maxStates exactly and an indeterminate verdict, plus an error wrapping
// ErrBudget.
func ZeroIO(g *dag.Graph, r int, maxStates int) (*ZeroIOResult, error) {
	//lint:ignore ctxthread non-ctx convenience call; deadline-aware callers use ZeroIOCtx
	return zeroIO(context.Background(), g, r, maxStates, nil)
}

// ZeroIOCtx is ZeroIO honoring a context: the search polls ctx and stops
// with an indeterminate partial result when it is canceled or its
// deadline passes.
func ZeroIOCtx(ctx context.Context, g *dag.Graph, r int, maxStates int) (*ZeroIOResult, error) {
	return zeroIO(ctx, g, r, maxStates, nil)
}

// zeroIO runs the search. failed overrides the failure memo (tests
// pass the map-backed hashtab.Ref oracle); nil selects the
// open-addressing table. The memo is keyed on the raw words of the
// computed-set bitset, appended into a reusable buffer — no per-state
// string key is ever built.
func zeroIO(ctx context.Context, g *dag.Graph, r int, maxStates int, failed hashtab.Index) (*ZeroIOResult, error) {
	n := g.N()
	if n == 0 {
		return &ZeroIOResult{Feasible: true, Verdict: VerdictFeasible}, nil
	}
	if err := ctx.Err(); err != nil {
		return &ZeroIOResult{Verdict: VerdictIndeterminate, Status: StatusCanceled}, cancelErr(ctx, 0)
	}
	isSink := make([]bool, n)
	for _, v := range g.Sinks() {
		isSink[v] = true
	}

	computed := bitset.New(n)
	live := bitset.New(n)
	remSucc := make([]int, n)
	remPred := make([]int, n)
	for v := 0; v < n; v++ {
		remSucc[v] = g.OutDegree(dag.NodeID(v))
		remPred[v] = g.InDegree(dag.NodeID(v))
	}

	keyWords := len(computed.AppendWords(nil))
	if failed == nil {
		failed = hashtab.New(keyWords, 1024)
	}
	keyBuf := make([]uint64, 0, keyWords)
	states := 0
	var order []dag.NodeID

	// Incremental live tracking: when v is computed, v becomes live; each
	// predecessor u with all successors computed (and not a sink) dies.
	// Dead predecessors are recorded on a shared stack — a frame is just
	// (v, stack watermark), so apply/undo never allocate.
	type frame struct {
		v         dag.NodeID
		diedStart int
	}
	var diedStack []dag.NodeID

	apply := func(v dag.NodeID) frame {
		fr := frame{v: v, diedStart: len(diedStack)}
		computed.Add(int(v))
		live.Add(int(v))
		for _, u := range g.Pred(v) {
			remSucc[u]--
			if remSucc[u] == 0 && !isSink[u] {
				live.Remove(int(u))
				diedStack = append(diedStack, u)
			}
		}
		for _, w := range g.Succ(v) {
			remPred[w]--
		}
		return fr
	}
	undo := func(fr frame) {
		for _, w := range g.Succ(fr.v) {
			remPred[w]++
		}
		for _, u := range g.Pred(fr.v) {
			remSucc[u]++
		}
		for _, u := range diedStack[fr.diedStart:] {
			live.Add(int(u))
		}
		diedStack = diedStack[:fr.diedStart]
		live.Remove(int(fr.v))
		computed.Remove(int(fr.v))
	}

	// Twin canonicalization: nodes with identical predecessor and
	// successor lists are interchangeable; restrict schedules to compute
	// each twin class in ascending ID order. This is a pure symmetry
	// reduction (any schedule can be relabeled within a class).
	prevTwin := make([]dag.NodeID, n)
	{
		classes := map[string]dag.NodeID{}
		for v := 0; v < n; v++ {
			sig := make([]byte, 0, 4*(g.InDegree(dag.NodeID(v))+g.OutDegree(dag.NodeID(v))+1))
			for _, u := range g.Pred(dag.NodeID(v)) {
				sig = append(sig, byte(u), byte(u>>8), byte(u>>16), 'p')
			}
			sig = append(sig, '|')
			for _, w := range g.Succ(dag.NodeID(v)) {
				sig = append(sig, byte(w), byte(w>>8), byte(w>>16), 's')
			}
			key := string(sig)
			if prev, ok := classes[key]; ok {
				prevTwin[v] = prev
			} else {
				prevTwin[v] = -1
			}
			classes[key] = dag.NodeID(v)
		}
	}
	allowed := func(v int) bool {
		return prevTwin[v] < 0 || computed.Contains(int(prevTwin[v]))
	}

	// deaths returns how many pebbles computing v would free immediately.
	deaths := func(v dag.NodeID) int {
		d := 0
		for _, u := range g.Pred(v) {
			if remSucc[u] == 1 && !isSink[u] {
				d++
			}
		}
		return d
	}

	var rec func() (bool, error)
	rec = func() (bool, error) {
		if computed.Count() == n {
			return true, nil
		}
		keyBuf = computed.AppendWords(keyBuf[:0])
		if _, isFailed := failed.Find(keyBuf); isFailed {
			return false, nil
		}
		if maxStates > 0 && states == maxStates {
			return false, budgetErr(states)
		}
		states++
		if states&ctxCheckMask == 0 && ctx.Err() != nil {
			return false, cancelErr(ctx, states)
		}
		liveCount := live.Count()
		// Dominance rule: a computable node whose computation immediately
		// frees at least one pebble (net ≤ 0) can always be scheduled
		// first — delaying it never helps (standard exchange argument:
		// moving it earlier only lowers the live profile of every later
		// prefix). Branch solely on the first such node when one exists.
		if liveCount+1 <= r {
			for v := 0; v < n; v++ {
				if computed.Contains(v) || remPred[v] != 0 || !allowed(v) || deaths(dag.NodeID(v)) == 0 {
					continue
				}
				fr := apply(dag.NodeID(v))
				ok, err := rec()
				if err != nil {
					undo(fr)
					return false, err
				}
				if ok {
					order = append(order, dag.NodeID(v))
				} else {
					// Deeper calls clobbered keyBuf; rebuild this state's
					// key (apply is still in effect, so undo first).
					undo(fr)
					keyBuf = computed.AppendWords(keyBuf[:0])
					failed.Insert(keyBuf)
					return false, nil
				}
				undo(fr)
				return true, nil
			}
		}
		for v := 0; v < n; v++ {
			if computed.Contains(v) || remPred[v] != 0 || !allowed(v) {
				continue
			}
			// Peak while computing v: current live + v's fresh pebble
			// (v's predecessors are all live: they have the uncomputed
			// successor v).
			if liveCount+1 > r {
				continue
			}
			fr := apply(dag.NodeID(v))
			ok, err := rec()
			if err != nil {
				undo(fr)
				return false, err
			}
			if ok {
				order = append(order, dag.NodeID(v))
				undo(fr)
				return true, nil
			}
			undo(fr)
		}
		keyBuf = computed.AppendWords(keyBuf[:0])
		failed.Insert(keyBuf)
		return false, nil
	}
	ok, err := rec()
	if err != nil {
		return &ZeroIOResult{States: states, Verdict: VerdictIndeterminate, Status: statusOfStop(err)}, err
	}
	res := &ZeroIOResult{Feasible: ok, States: states, Verdict: verdictOf(ok)}
	if ok {
		// order was accumulated in reverse (post-order of the successful
		// spine); reverse it into execution order.
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
		res.Order = order
	}
	return res, nil
}

// ZeroIOStrategy converts a witness order from ZeroIO into an executable
// one-shot SPP strategy (computes in order, deleting pebbles as soon as
// they die), suitable for validation via pebble.Replay.
func ZeroIOStrategy(g *dag.Graph, order []dag.NodeID) *pebble.Strategy {
	n := g.N()
	remSucc := make([]int, n)
	isSink := make([]bool, n)
	for v := 0; v < n; v++ {
		remSucc[v] = g.OutDegree(dag.NodeID(v))
	}
	for _, v := range g.Sinks() {
		isSink[v] = true
	}
	s := &pebble.Strategy{}
	for _, v := range order {
		s.Append(pebble.Compute(pebble.At(0, v)))
		for _, u := range g.Pred(v) {
			remSucc[u]--
			if remSucc[u] == 0 && !isSink[u] {
				s.Append(pebble.Delete(pebble.At(0, u)))
			}
		}
	}
	return s
}
