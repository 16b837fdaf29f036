package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/journal"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
	"dropzero/internal/whois"
)

// lookup-mix: the read side. Readers run a fixed weighted mix of RDAP,
// WHOIS, list fetches with ETag revalidation and /deltas polls, 80% of names
// from the Drop window's hot set, beside a writer that runs the day's Drop
// at the paper's paced rate on the headline durable primary (sync WAL, one
// semi-sync follower). Reads never touch the WAL or the quorum, and the
// writer's pace is fixed, so the disk moves no gated figure here; the
// writer's purges are what the traced run times the durable path on.

// lookupPending is the pending-delete count of each of the five listed days;
// the hot set is all of them (20k names, inside rdap.DefaultCacheSize) and
// the population (100k) exceeds the caches.
const lookupPending = 500

type lookupMix struct {
	s       *stack
	p       *population
	seed    int64
	hot     []string
	touched map[string]bool // names the writer may purge
	runner  *registry.DropRunner
	queue   []registry.QueueEntry
	rate    float64 // writer purges per second
}

func prepareLookup(seed int64) func(string) (instance, error) {
	p := genPopulation(seed, popSpec{Total: 100_000, Pending: []int{lookupPending, lookupPending, lookupPending, lookupPending, lookupPending}})
	var hot []string
	for _, day := range p.PendingByDay {
		hot = append(hot, day...)
	}
	touched := make(map[string]bool, lookupPending)
	for _, name := range p.PendingByDay[0] {
		touched[name] = true
	}
	return func(dir string) (instance, error) {
		s, err := newStack(stackConfig{Dir: dir, Mode: journal.ModeSync, Follower: true}, p)
		if err != nil {
			return nil, err
		}
		w := &lookupMix{s: s, p: p, seed: seed, hot: hot, touched: touched}
		w.runner = registry.NewDropRunner(s.store, registry.DefaultDropConfig())
		w.rate = w.runner.Config().BaseRatePerSec
		w.queue = w.runner.BuildQueue(dropDay)
		return w, nil
	}
}

func (w *lookupMix) close() error { return w.s.close() }

// reader is one closed-loop client with its own connections and caches.
type reader struct {
	rdap  *rdap.Client
	whois *whois.Client
	scope *dropscope.Client
	http  *http.Client
}

func (w *lookupMix) newReader() (*reader, error) {
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	rc, err := rdap.NewClient(w.s.rdapURL, hc)
	if err != nil {
		return nil, err
	}
	sc, err := dropscope.NewClient(w.s.scopeURL, hc)
	if err != nil {
		return nil, err
	}
	return &reader{rdap: rc, scope: sc, http: hc, whois: &whois.Client{Addr: w.s.whoisAddr, PoolSize: 1}}, nil
}

func (r *reader) close() {
	r.whois.Close()
	r.http.CloseIdleConnections()
}

func (w *lookupMix) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	w.s.attach(tr)
	before := w.s.counters()
	readers := make([]*reader, sessions)
	for i := range readers {
		r, err := w.newReader()
		if err != nil {
			return nil, err
		}
		defer r.close()
		readers[i] = r
	}
	ctx := context.Background()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)

	// The writer: the day's Drop in queue order at the paced rate.
	purged := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j, q := range w.queue {
			due := start.Add(time.Duration(float64(j) / w.rate * float64(time.Second)))
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			t0 := time.Now()
			_, err := w.runner.Apply(registry.Scheduled{Name: q.Name, TLD: q.TLD, Time: dropDay.At(19, 0, 0), Rank: j})
			tr.root("registry.drop_apply", q.Name, rolePurge, err == nil, since(tr, t0), since(tr, time.Now()))
			mu.Lock()
			if err != nil {
				ph.fail("drop: %v", err)
			}
			purged++
			mu.Unlock()
		}
	}()

	var ops, hits404 uint64
	var byKind [numOpKinds]loadgen.Hist
	for i, r := range readers {
		wg.Add(1)
		go func(i int, r *reader) {
			defer wg.Done()
			gen := newMixGen(w.seed, i, w.hot, w.p.Seeds)
			for time.Now().Before(deadline) {
				op := gen.Next()
				t0 := time.Now()
				err := w.do(ctx, r, op)
				t1 := time.Now()
				tr.root(spanOf[op.Kind], op.Name, roleRead, err == nil, since(tr, t0), since(tr, t1))
				mu.Lock()
				ph.attempted++
				switch {
				case errors.Is(err, errPurged):
					hits404++
					fallthrough
				case err == nil:
					ops++
					ph.record(t1.Sub(t0))
					ph.complete(t1.Sub(start))
					byKind[op.Kind].Record(t1.Sub(t0))
				default:
					ph.fail("%s %s: %v", op.Kind, op.Name, err)
				}
				mu.Unlock()
			}
		}(i, r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	w.s.attach(nil)
	after := w.s.counters()
	ph.layers = append(w.s.layers(before, after, elapsed.Seconds()),
		metric{Name: "registry.purge_per_s", Value: float64(purged) / elapsed.Seconds(), Unit: "1/s"})
	ph.ops, ph.opsSecs = float64(ops), elapsed.Seconds()
	for k := range byKind {
		ph.note("%-6s p50 %s", opKind(k), fmtPct(&byKind[k], 50))
	}
	ph.note("writer: %d purges at %.0f/s; %d lookups of already-purged names answered not-found", purged, w.rate, hits404)
	w.verifyLists(ctx, ph, readers)
	return ph, nil
}

var spanOf = [numOpKinds]string{"rdap.lookup", "whois.lookup", "dropscope.fetch", "feed.delta_poll"}

// errPurged marks a not-found answer for a name the writer purged, which is
// correct.
var errPurged = errors.New("purged by the writer")

// do runs one request and checks its answer: RDAP and WHOIS must match
// Store.Get for every name the writer does not touch; a touched name may
// also be gone.
func (w *lookupMix) do(ctx context.Context, r *reader, op mixOp) error {
	switch op.Kind {
	case opRDAP:
		resp, err := r.rdap.Domain(ctx, op.Name)
		if errors.Is(err, rdap.ErrNotFound) && w.touched[op.Name] {
			return errPurged
		}
		if err != nil {
			return err
		}
		return w.check(op.Name, func(d *model.Domain) error { return matchRDAP(resp, d) })
	case opWHOIS:
		got, err := r.whois.LookupContext(ctx, op.Name)
		if errors.Is(err, whois.ErrNoMatch) && w.touched[op.Name] {
			return errPurged
		}
		if err != nil {
			return err
		}
		return w.check(op.Name, func(d *model.Domain) error {
			want := *d
			want.DeleteDay = got.DeleteDay // not on the WHOIS wire
			if !equalDomain(got, &want) {
				return fmt.Errorf("whois answered %+v, store holds %+v", *got, *d)
			}
			return nil
		})
	case opList:
		entries, err := r.scope.Fetch(ctx, dropDay)
		if err == nil && len(entries) == 0 {
			err = errors.New("empty list")
		}
		return err
	default:
		_, err := r.scope.SyncDeltas(ctx)
		return err
	}
}

// check compares an answer against the store, skipping names the writer
// may have changed since the answer was rendered.
func (w *lookupMix) check(name string, match func(*model.Domain) error) error {
	if w.touched[name] {
		return nil
	}
	d, err := w.s.store.Get(name)
	if err != nil {
		return err
	}
	return match(d)
}

func matchRDAP(resp *rdap.DomainResponse, d *model.Domain) error {
	id, err := rdap.ParseHandle(resp.Handle)
	if err != nil {
		return err
	}
	reg, _ := resp.EventDate("registration")
	exp, _ := resp.EventDate("expiration")
	if id != d.ID || resp.LDHName != d.Name || len(resp.Status) != 1 || resp.Status[0] != d.Status.String() ||
		!reg.Equal(d.Created) || !exp.Equal(d.Expiry) {
		return fmt.Errorf("rdap answered %s %s %v, store holds %d %s %s", resp.Handle, resp.LDHName, resp.Status, d.ID, d.Name, d.Status)
	}
	return nil
}

// verifyLists is the list gate, once the writer has stopped: every reader's
// fetched list and its delta-maintained mirror equal PendingDeletions.
func (w *lookupMix) verifyLists(ctx context.Context, ph *phase, readers []*reader) {
	w.s.hub.Quiesce()
	var want []dropscope.Entry
	for _, d := range w.s.store.PendingDeletions(dropDay, dropscope.LookaheadDays) {
		want = append(want, dropscope.Entry{Name: d.Name, DeleteDay: d.DeleteDay})
	}
	sortEntries(want)
	for i, r := range readers {
		got, err := r.scope.Fetch(ctx, dropDay)
		if err != nil {
			ph.fail("final list fetch: %v", err)
			continue
		}
		sortEntries(got)
		if !slices.Equal(got, want) {
			ph.fail("reader %d: list has %d entries, PendingDeletions %d", i, len(got), len(want))
		}
		if _, err := r.scope.SyncDeltas(ctx); err != nil {
			ph.fail("final delta sync: %v", err)
			continue
		}
		mirror := r.scope.MirrorWindow(dropDay)
		sortEntries(mirror)
		if !slices.Equal(mirror, want) {
			ph.fail("reader %d: delta mirror has %d entries, PendingDeletions %d", i, len(mirror), len(want))
		}
	}
	ph.note("verified: lists and delta mirrors of %d readers equal PendingDeletions (%d names)", len(readers), len(want))
	if err := w.s.waitFollower(30 * time.Second); err != nil {
		ph.fail("follower: %v", err)
		return
	}
	if a, b := w.s.store.Count(), w.s.folStore.Count(); a != b {
		ph.fail("follower holds %d domains, primary %d", b, a)
	}
	for i := 0; i < len(w.hot); i += 97 {
		if w.touched[w.hot[i]] {
			continue
		}
		if err := sameDomain(w.s.store, w.s.folStore, w.hot[i]); err != nil {
			ph.fail("follower diverges: %v", err)
		}
	}
}

func sortEntries(es []dropscope.Entry) {
	slices.SortFunc(es, func(a, b dropscope.Entry) int {
		if c := a.DeleteDay.Compare(b.DeleteDay); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
}
