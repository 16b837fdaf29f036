package main

import (
	"math"
	"strconv"
	"testing"
	"time"
)

// TestBudgetSumsToRoot: children link to the containing root of their role
// and name (the winning one when two raced), self times split each winning
// root's duration exactly, and the budget rows sum to the band's root
// latency.
func TestBudgetSumsToRoot(t *testing.T) {
	tr := newTracer()
	tr.spans = nil
	for i := 0; i < 100; i++ {
		key := strconv.Itoa(i)
		base := int64(i) * 10_000_000
		dur := int64(100_000 + 1000*i) // 100..199 µs
		// Two sessions raced for the name; only the second won.
		tr.root("epp.create", key, roleCreate, false, base, base+dur)
		tr.root("epp.create", key, roleCreate, true, base+5_000, base+dur)
		tr.child("journal.append", key, roleCreate, base+10_000, base+15_000)
		tr.child("feed.tap_append", key, roleCreate, base+14_000, base+20_000) // overlaps the append
		tr.child("journal.durable_wait", key, roleCreate, base+30_000, base+70_000)
		// A purge of the same name is not the create's child.
		tr.child("journal.append", key, rolePurge, base+40_000, base+41_000)
	}
	if orphans := tr.link(); orphans != 100 {
		t.Fatalf("%d orphans, want the 100 purge appends", orphans)
	}
	for _, s := range tr.spans {
		if s.Root || s.Role == rolePurge {
			continue
		}
		if p := tr.spans[s.Parent]; !p.OK {
			t.Fatalf("%s linked to the losing create", s.Name)
		}
	}
	rs := tr.selfTimes("epp.create", "epp (self)")
	if len(rs) != 100 {
		t.Fatalf("%d roots, want the 100 winning creates", len(rs))
	}
	for _, r := range rs {
		var sum int64
		for _, v := range r.Self {
			sum += v
		}
		if sum != r.Dur {
			t.Fatalf("self times sum to %d, root lasted %d", sum, r.Dur)
		}
	}
	b := makeBudget("epp.create", rs)
	var sum float64
	for _, row := range b.Rows {
		sum += row.SelfUs
	}
	if math.Abs(sum-b.Total) > 1e-9 || b.Band < 1 {
		t.Fatalf("budget rows sum to %v µs, band mean root latency %v µs", sum, b.Total)
	}
	if b.Total < b.Median*0.9 || b.Total > b.Median*1.1 {
		t.Fatalf("band mean %v µs is not near the p50 %v µs", b.Total, b.Median)
	}
}

// TestNilTracer: an untraced run records nothing and does not panic.
func TestNilTracer(t *testing.T) {
	var tr *tracer
	tr.root("epp.create", "x", roleCreate, true, 0, 1)
	tr.child("journal.append", "x", roleCreate, 0, 1)
	if since(tr, time.Now()) != 0 {
		t.Fatal("nil tracer has a clock")
	}
}
