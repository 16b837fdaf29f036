package main

import (
	"reflect"
	"testing"

	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

var testSpec = popSpec{Total: 3000, Pending: []int{400, 100}, Fresh: 500, ExtraTLD: "se"}

// TestInputsDeterministic: a seed fixes every input the program receives —
// registrations, fresh names, the lookup mix order, the Drop queue and the
// recovery WAL tail — and another seed changes them.
func TestInputsDeterministic(t *testing.T) {
	a, b := genPopulation(7, testSpec), genPopulation(7, testSpec)
	if !reflect.DeepEqual(a.Seeds, b.Seeds) || !reflect.DeepEqual(a.Fresh, b.Fresh) ||
		!reflect.DeepEqual(a.PendingByDay, b.PendingByDay) || !reflect.DeepEqual(a.Active, b.Active) {
		t.Fatal("same seed, different population")
	}
	if !reflect.DeepEqual(a.Dir.Credentials(), b.Dir.Credentials()) {
		t.Fatal("same seed, different registrar directory")
	}
	if !reflect.DeepEqual(mixOps(7, a, 2000), mixOps(7, b, 2000)) {
		t.Fatal("same seed, different lookup mix")
	}
	if !reflect.DeepEqual(genTail(7, a, 1000), genTail(7, b, 1000)) {
		t.Fatal("same seed, different WAL tail")
	}
	if !reflect.DeepEqual(dropQueue(t, a), dropQueue(t, b)) {
		t.Fatal("same seed, different Drop queue")
	}

	c := genPopulation(8, testSpec)
	if reflect.DeepEqual(a.Seeds, c.Seeds) || reflect.DeepEqual(a.Fresh, c.Fresh) {
		t.Fatal("seeds 7 and 8 generated the same population")
	}
	if reflect.DeepEqual(mixOps(7, a, 2000), mixOps(8, c, 2000)) {
		t.Fatal("seeds 7 and 8 generated the same lookup mix")
	}
	if reflect.DeepEqual(dropQueue(t, a), dropQueue(t, c)) {
		t.Fatal("seeds 7 and 8 generated the same Drop queue")
	}
}

// TestInputsValid: fresh names never collide with seeded ones, and the WAL
// tail applies cleanly to the population it was drawn for.
func TestInputsValid(t *testing.T) {
	p := genPopulation(3, testSpec)
	seen := map[string]bool{}
	for _, r := range p.Seeds {
		if seen[r.Name] {
			t.Fatalf("%s seeded twice", r.Name)
		}
		seen[r.Name] = true
	}
	for _, n := range p.Fresh {
		if seen[n] {
			t.Fatalf("fresh name %s is seeded", n)
		}
	}
	store := registry.NewStoreWithShards(recoveryClock(), 4)
	zs := mustZones(t)
	if err := store.AddZone(zs[0]); err != nil {
		t.Fatal(err)
	}
	if err := seedStore(store, p); err != nil {
		t.Fatal(err)
	}
	if err := applyTail(store, registry.NewDropRunner(store, registry.DefaultDropConfig()), genTail(3, p, 800)); err != nil {
		t.Fatal(err)
	}
}

func mixOps(seed int64, p *population, n int) []mixOp {
	var hot []string
	for _, d := range p.PendingByDay {
		hot = append(hot, d...)
	}
	out := make([]mixOp, 0, 2*n)
	for r := 0; r < sessions; r++ {
		g := newMixGen(seed, r, hot, p.Seeds)
		for i := 0; i < n; i++ {
			out = append(out, g.Next())
		}
	}
	return out
}

// dropQueue seeds a store with p and returns the Drop day's queue order.
func dropQueue(t *testing.T, p *population) []string {
	t.Helper()
	store := registry.NewStoreWithShards(simtime.RealClock{}, 4)
	zs := mustZones(t)
	if err := store.AddZone(zs[0]); err != nil {
		t.Fatal(err)
	}
	if err := seedStore(store, p); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, q := range registry.NewDropRunner(store, registry.DefaultDropConfig()).BuildQueue(dropDay) {
		names = append(names, q.Name)
	}
	if len(names) != testSpec.Pending[0] {
		t.Fatalf("queue holds %d names, want %d", len(names), testSpec.Pending[0])
	}
	return names
}
