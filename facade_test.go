package repro

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/sched"
)

func TestFacadeEndToEnd(t *testing.T) {
	g, _ := gen.Zipper(4, 20, 0)
	in, err := NewInstance(g, MPP(2, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	strat, err := (sched.Greedy{}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(in, strat)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost <= 0 {
		t.Fatal("no cost measured")
	}
	if got := len(Experiments()); got != 19 {
		t.Fatalf("Experiments() = %d entries, want 19", got)
	}
	if SPP(4, 2).ComputeCost != 0 || MPP(2, 4, 2).ComputeCost != 1 {
		t.Fatal("facade parameter constructors wrong")
	}
}

// TestFacadeExactWithDefault: ExactWith under the documented full-stack
// SearchConfig is the Exact search, and Witness adds a strategy that
// replays to its cost.
func TestFacadeExactWithDefault(t *testing.T) {
	in, err := NewInstance(gen.Grid2D(2, 3), MPP(2, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Exact(in, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SearchConfig{MaxStates: 1_000_000, Dominance: true}
	got, err := ExactWith(context.Background(), in, cfg)
	if err != nil || !reflect.DeepEqual(got, plain) {
		t.Fatalf("ExactWith(full stack) = %+v (err %v), want %+v", got, err, plain)
	}
	cfg.Witness = true
	w, err := ExactWith(context.Background(), in, cfg)
	if err != nil || w.Strategy == nil {
		t.Fatalf("witness run: %+v (err %v)", w, err)
	}
	rep, err := Replay(in, w.Strategy)
	if err != nil || rep.Cost != plain.Cost {
		t.Fatalf("witness replays to %v (err %v), want %d", rep, err, plain.Cost)
	}
}
