package main

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/feed"
	"dropzero/internal/journal"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
	"dropzero/internal/simtime"
)

// chainRun is what one journal chain left behind after the same mutations.
type chainRun struct {
	errs   []bool            // per mutation: the store returned an error
	wal    map[string][]byte // data directory files by name
	cursor uint64            // feed hub records ingested
	items  []feed.Item       // feed hub pending set
	spans  map[string]int    // traced runs: child spans by name
}

// runChain seeds a small store, installs the untraced (production) or the
// traced journal chain, and applies creates, a renew and purges through it.
func runChain(t *testing.T, mode journal.Mode, withSource, traced bool) chainRun {
	t.Helper()
	p := genPopulation(3, popSpec{Total: 40, Pending: []int{4}, Fresh: 3})
	clock := simtime.NewSimClock(dropDay.At(12, 0, 0))
	dir := t.TempDir()
	s := &stack{store: registry.NewStoreWithShards(clock, 0)}
	jnl, _, err := journal.Open(s.store, journal.Options{Dir: dir, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	s.jnl = jnl
	s.store.SetJournal(jnl)
	if err := seedStore(s.store, p); err != nil {
		t.Fatal(err)
	}
	s.hub = feed.NewHub(feed.Options{})
	defer s.hub.Close()
	s.hub.PrimeFromStore(s.store)
	if withSource {
		// No follower connects, so every quorum wait times out: the chain
		// must report that as the mutation's error.
		s.src = repl.NewSource(jnl, repl.SourceConfig{SyncFollowers: 1, SyncTimeout: 20 * time.Millisecond})
		defer s.src.Close()
	}
	s.poll = epp.NewPollQueue(clock, 0)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	s.attach(tr)

	var run chainRun
	note := func(err error) { run.errs = append(run.errs, err != nil) }
	id := catchers(p.Dir, 1)[0]
	for _, name := range p.Fresh {
		_, err := s.store.Create(name, id, 1)
		note(err)
	}
	note(s.store.Renew(p.Fresh[0], id, 1))
	runner := registry.NewDropRunner(s.store, registry.DefaultDropConfig())
	for i, q := range runner.BuildQueue(dropDay)[:2] {
		_, err := runner.Apply(registry.Scheduled{Name: q.Name, Time: dropDay.At(19, 0, 0), Rank: i})
		note(err)
	}
	s.attach(nil)

	s.hub.Quiesce()
	run.items, run.cursor = s.hub.PendingItems()
	slices.SortFunc(run.items, func(a, b feed.Item) int { return strings.Compare(a.Name, b.Name) })
	s.store.SetJournal(nil)
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	run.wal = map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		run.wal[e.Name()] = b
	}
	if tr != nil {
		run.spans = map[string]int{}
		for _, sp := range tr.spans {
			run.spans[sp.Name]++
		}
	}
	return run
}

// TestTracedJournalMatchesProduction: the traced journal chain writes the
// same WAL bytes, feeds the hub the same records and has the same wait
// semantics as the chain cmd/dropserve installs, in each configuration the
// workloads run — and times every step it adds.
func TestTracedJournalMatchesProduction(t *testing.T) {
	const mutations = 6 // 3 creates, 1 renew, 2 purges
	for _, c := range []struct {
		name       string
		mode       journal.Mode
		withSource bool
		spans      map[string]int
	}{
		{"async", journal.ModeAsync, false,
			map[string]int{"journal.append": mutations, "feed.tap_append": mutations, "registry.observer": 2}},
		{"sync", journal.ModeSync, false,
			map[string]int{"journal.append": mutations, "feed.tap_append": mutations, "journal.durable_wait": mutations, "registry.observer": 2}},
		// The quorum never holds, so the purges are not acknowledged and
		// the observer never hears of them.
		{"sync+follower", journal.ModeSync, true,
			map[string]int{"journal.append": mutations, "feed.tap_append": mutations, "journal.durable_wait": mutations, "repl.quorum_wait": mutations}},
	} {
		t.Run(c.name, func(t *testing.T) {
			prod := runChain(t, c.mode, c.withSource, false)
			trc := runChain(t, c.mode, c.withSource, true)
			if len(prod.errs) != mutations {
				t.Fatalf("%d mutations ran, want %d", len(prod.errs), mutations)
			}
			for i, failed := range prod.errs {
				if failed != c.withSource {
					t.Fatalf("production mutation %d failed=%v; want %v", i, failed, c.withSource)
				}
			}
			if !reflect.DeepEqual(prod.errs, trc.errs) {
				t.Fatalf("mutation errors differ: production %v, traced %v", prod.errs, trc.errs)
			}
			if !reflect.DeepEqual(prod.wal, trc.wal) {
				t.Fatal("the chains left different data directories")
			}
			if prod.cursor != trc.cursor || !reflect.DeepEqual(prod.items, trc.items) {
				t.Fatalf("feed differs: production cursor %d, %d pending; traced cursor %d, %d pending",
					prod.cursor, len(prod.items), trc.cursor, len(trc.items))
			}
			if !reflect.DeepEqual(trc.spans, c.spans) {
				t.Fatalf("traced spans %v, want %v", trc.spans, c.spans)
			}
		})
	}
}
