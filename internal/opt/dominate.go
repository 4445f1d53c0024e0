package opt

// Dominance pruning over red configurations.
//
// A candidate state B is dominated by a settled (already expanded) state
// A when both have identical (blue, computed) words, A was settled at a
// strictly cheaper g-cost, and after shade canonicalization every
// per-processor red word of B is a subset of A's word at the same
// position. Any completion from B can then be simulated from A at no
// extra cost: A holds a superset of every value B holds, replayed moves
// stay legal (surplus red pebbles are deleted for free the moment a
// processor would overflow its memory), and blue/computed evolve
// identically — so dropping B before it is inserted cannot lose the
// optimum. The cheaper-cost condition must be *strict*: with ties the
// delete-successors of a settled state (equal cost, subset reds) would
// all be pruned against their own parent, severing the memory-freeing
// moves the search needs. See DESIGN.md §6 for the full soundness sketch.
//
// Pruning is only enabled in non-witness mode, alongside shade
// canonicalization (a pruned state has no parent edge, and the subset
// test per canonical position is what makes the processor matching
// sound). "Settled" means expanded: solver.expandOne registers a state
// at its first expansion (a settled mark keeps a reopened state from
// being added twice). Settled states are indexed by a (blue, computed)
// hash in an open-addressing side table whose buckets chain all settled
// states sharing those two words; red words are fetched from the main
// state table's arena on demand, so the index itself stores three int32
// arrays and two key words per slot — nothing else.

const domEmptySlot = int32(-1)

// domIndex maps (blue, computed) → chain of settled state indices. The
// slot array is open-addressing with linear probing; each occupied slot
// stores its 2-word key and the head of a singly linked list threaded
// through the entries arrays (one entry per settled state).
type domIndex struct {
	slots []int32  // head entry per slot, domEmptySlot when free
	keys  []uint64 // 2 words per slot: blue, computed
	mask  uint64
	used  int // occupied slots

	next  []int32 // entry → next entry in the same chain
	state []int32 // entry → settled state index in the main table
}

func newDomIndex() *domIndex {
	d := &domIndex{
		slots: make([]int32, 256),
		keys:  make([]uint64, 2*256),
		mask:  255,
	}
	for i := range d.slots {
		d.slots[i] = domEmptySlot
	}
	return d
}

// reset empties the index while keeping the slot array and entry
// capacity, so a pooled solver's dominance index is reusable across
// searches without reallocating.
func (d *domIndex) reset() {
	for i := range d.slots {
		d.slots[i] = domEmptySlot
	}
	d.used = 0
	d.next = d.next[:0]
	d.state = d.state[:0]
}

// domHash mixes the two identity words (splitmix64-style finalizer).
//
//mpp:hotpath
func domHash(blue, computed uint64) uint64 {
	x := blue ^ 0x9e3779b97f4a7c15
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x ^= computed
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bucket returns the head entry of the chain for (blue, computed), or
// domEmptySlot when no settled state has those words yet.
//
//mpp:hotpath
func (d *domIndex) bucket(blue, computed uint64) int32 {
	i := domHash(blue, computed) & d.mask
	for {
		h := d.slots[i]
		if h == domEmptySlot {
			return domEmptySlot
		}
		if d.keys[2*i] == blue && d.keys[2*i+1] == computed {
			return h
		}
		i = (i + 1) & d.mask
	}
}

// add registers a settled state under its (blue, computed) key.
//
//mpp:hotpath
func (d *domIndex) add(blue, computed uint64, stateIdx int32) {
	if 4*(d.used+1) > 3*len(d.slots) {
		d.grow()
	}
	i := domHash(blue, computed) & d.mask
	for {
		h := d.slots[i]
		if h == domEmptySlot {
			d.used++
			d.keys[2*i] = blue
			d.keys[2*i+1] = computed
			break
		}
		if d.keys[2*i] == blue && d.keys[2*i+1] == computed {
			break
		}
		i = (i + 1) & d.mask
	}
	e := int32(len(d.state))
	d.state = append(d.state, stateIdx)
	d.next = append(d.next, d.slots[i])
	d.slots[i] = e
}

// grow doubles the slot array and reinserts every occupied slot's chain
// head (entry chains are untouched — only the slot they hang off moves).
// Deliberately not a hot path: amortized over the fill factor.
func (d *domIndex) grow() {
	oldSlots, oldKeys := d.slots, d.keys
	n := 2 * len(oldSlots)
	d.slots = make([]int32, n)
	d.keys = make([]uint64, 2*n)
	d.mask = uint64(n - 1)
	for i := range d.slots {
		d.slots[i] = domEmptySlot
	}
	for i, h := range oldSlots {
		if h == domEmptySlot {
			continue
		}
		blue, computed := oldKeys[2*i], oldKeys[2*i+1]
		j := domHash(blue, computed) & d.mask
		for d.slots[j] != domEmptySlot {
			j = (j + 1) & d.mask
		}
		d.slots[j] = h
		d.keys[2*j] = blue
		d.keys[2*j+1] = computed
	}
}

// dropDominated decides whether a candidate is discarded before insert
// under dominance pruning. The state table is consulted first: a
// candidate the table already holds at a g-cost ≤ cost is one insert
// would reject anyway, so it is dropped without the dominance scan and
// without counting — in practice these re-derivations are almost all of
// the candidates the scan used to reject (DESIGN.md §6). Only a
// candidate the table would accept is tested for dominance, and only
// those rejections count into Pruned. Either way the candidate is not
// inserted, so the order of the two tests changes no other Result field.
//
//mpp:hotpath
func (s *solver) dropDominated(w []uint64, cost int64) bool {
	if idx, ok := s.tab.Find(w); ok && s.dist[idx] <= cost {
		return true
	}
	if s.dominated(w, cost) {
		s.pruned++
		return true
	}
	return false
}

// dominated reports whether the candidate words w (already
// canonicalized) at g-cost cost are strictly dominated by some settled
// state. Settled keys are read straight from the table arena — no
// copies. States are sharded by their (blue, computed) words (see
// parallel.go), so every potential dominator of w lives on this shard:
// the check needs no cross-shard traffic.
//
// A candidate whose every processor holds R red pebbles is answered
// without the chain scan: a dominator A needs a_p ⊇ w_p with
// |a_p| ≤ R = |w_p| at every position, so a_p = w_p, and A shares w's
// blue and computed words by construction — A is w itself. The caller
// (dropDominated) has already dropped w when the table holds it at a
// cheaper g, so no settled state can dominate it.
//
//mpp:hotpath
func (s *solver) dominated(w []uint64, cost int64) bool {
	k := s.in.K
	full := true
	for p := 0; p < k; p++ {
		if popcount(w[p]) < s.in.R {
			full = false
			break
		}
	}
	if full {
		return false
	}
	blue := w[k]
	computed := w[k+1]
	for e := s.dom.bucket(blue, computed); e != domEmptySlot; e = s.dom.next[e] {
		a := s.dom.state[e]
		if s.dist[a] >= cost {
			continue // strictness: equal-cost states never dominate
		}
		aw := s.tab.Key(int(a))
		dom := true
		for p := 0; p < k; p++ {
			if w[p]&^aw[p] != 0 {
				dom = false
				break
			}
		}
		if dom {
			return true
		}
	}
	return false
}
