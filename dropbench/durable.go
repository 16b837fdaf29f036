package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/registry"
)

// sessions is the closed-loop client count of the EPP workloads: one per
// core of the 2-core reference machine, so the load generator never
// outnumbers the cores it shares with the server.
const sessions = 2

// durable-create: sessions create fresh names against a recovered primary
// running the headline configuration — sync WAL, one semi-sync follower
// with its own fsync, feed hub, poll observer, a never-binding token bucket.

type durable struct {
	s       *stack
	p       *population
	clients []*epp.Client
	ids     []int
}

func prepareDurable(seed int64) func(string) (instance, error) {
	p := genPopulation(seed, popSpec{Total: 100_000, Pending: []int{2000, 2000, 2000, 2000, 2000}, Fresh: 400_000})
	return func(dir string) (instance, error) {
		s, err := newStack(stackConfig{Dir: dir, Mode: journal.ModeSync, Follower: true}, p)
		if err != nil {
			return nil, err
		}
		w := &durable{s: s, p: p, ids: catchers(p.Dir, sessions)}
		if w.clients, err = login(s.eppAddr, p, w.ids); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}
}

// login opens one EPP session per accreditation.
func login(addr string, p *population, ids []int) ([]*epp.Client, error) {
	var cs []*epp.Client
	for _, id := range ids {
		c, err := epp.Dial(addr)
		if err == nil {
			err = c.Login(id, p.Dir.Credential(id))
		}
		if err != nil {
			for _, c := range cs {
				c.Close()
			}
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func (w *durable) close() error {
	for _, c := range w.clients {
		c.Close()
	}
	return w.s.close()
}

func (w *durable) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	w.s.attach(tr)
	before := w.s.counters()
	var (
		next  atomic.Int64
		mu    sync.Mutex
		wg    sync.WaitGroup
		acked = make([][]string, len(w.clients))
	)
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range w.clients {
		wg.Add(1)
		go func(i int, c *epp.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= len(w.p.Fresh) {
					return
				}
				name := w.p.Fresh[k]
				t0 := time.Now()
				_, err := c.Create(name, 1)
				t1 := time.Now()
				tr.root("epp.create", name, roleCreate, err == nil, since(tr, t0), since(tr, t1))
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.fail("create %s: %v", name, err)
				} else {
					ph.record(t1.Sub(t0))
					ph.complete(t1.Sub(start))
					acked[i] = append(acked[i], name)
				}
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	w.s.attach(nil)
	after := w.s.counters()
	ph.layers = w.s.layers(before, after, elapsed.Seconds())

	ph.ops, ph.opsSecs = float64(sum(acked)), elapsed.Seconds()
	if next.Load() >= int64(len(w.p.Fresh)) {
		ph.note("note: fresh-name pool of %d exhausted before the deadline", len(w.p.Fresh))
	}
	w.verify(ph, acked)
	return ph, nil
}

// verify is the durable-create gate: every ack is on the primary under the
// acking accreditation, and — once the follower has applied the primary's
// last record — a sample of acked and seeded names reads the same there.
func (w *durable) verify(ph *phase, acked [][]string) {
	for i, names := range acked {
		for _, name := range names {
			d, err := w.s.store.Get(name)
			if err != nil {
				ph.fail("lost ack: %s acked to %d, absent from the primary: %v", name, w.ids[i], err)
			} else if d.RegistrarID != w.ids[i] {
				ph.fail("lost ack: %s acked to %d, primary says %d", name, w.ids[i], d.RegistrarID)
			}
		}
	}
	if err := w.s.waitFollower(30 * time.Second); err != nil {
		ph.fail("follower: %v", err)
		return
	}
	var sample []string
	for _, names := range acked {
		for j := 0; j < len(names); j += 37 {
			sample = append(sample, names[j])
		}
	}
	for j := 0; j < len(w.p.Seeds); j += 101 {
		sample = append(sample, w.p.Seeds[j].Name)
	}
	for _, name := range sample {
		if err := sameDomain(w.s.store, w.s.folStore, name); err != nil {
			ph.fail("follower diverges: %v", err)
		}
	}
	ph.note("verified: %d acks on the primary, follower at seq %d, %d sampled names equal", sum(acked), w.s.fol.AppliedSeq(), len(sample))
}

// sameDomain compares one registration across two stores.
func sameDomain(a, b *registry.Store, name string) error {
	da, err := a.Get(name)
	if err != nil {
		return err
	}
	db, err := b.Get(name)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !equalDomain(da, db) {
		return fmt.Errorf("%s: %+v vs %+v", name, *da, *db)
	}
	return nil
}

func equalDomain(a, b *model.Domain) bool {
	return a.ID == b.ID && a.Name == b.Name && a.TLD == b.TLD && a.RegistrarID == b.RegistrarID &&
		a.Created.Equal(b.Created) && a.Updated.Equal(b.Updated) && a.Expiry.Equal(b.Expiry) &&
		a.Status == b.Status && a.DeleteDay == b.DeleteDay
}

func sum(xs [][]string) int {
	n := 0
	for _, x := range xs {
		n += len(x)
	}
	return n
}
