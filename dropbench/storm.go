package main

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/journal"
	"dropzero/internal/loadgen"
	"dropzero/internal/registry"
	"dropzero/internal/storm"
	"dropzero/internal/zone"
)

// drop-storm: a run of instant-release Drops under cmd/dropserve's default
// async WAL plus feed, one per day, spread evenly over the measurement
// window. Each Drop follows the Loopia drop-catch client (SNIPPETS.md): the
// sessions send their first create stormLead before the release instant and
// retry at once on failure. At the instant the whole queue is released —
// DropRunner.Apply back to back in BuildQueue order — and every session
// races for the same name, the lowest one not yet won, as competing
// drop-catchers race for one name. The round ends with its last win; the
// sessions then wait for the next Drop.
//
// So the gated figures are decided by the release: ops_per_s is released
// names won per second from the release instant to the round's last win
// (median over the rounds), latency_p50_ms the winning creates' median
// reply time. Losing creates — every attempt inside the lead, and the
// session that came second for a name — are counted and reported beside.

const (
	// stormRounds is the number of Drops in one run.
	stormRounds = 30
	// stormQueue is one Drop's pending-delete queue length.
	stormQueue = 4_000
	// stormLead is how long before the release instant the sessions start:
	// the Loopia client fires its first order 30 ms before the drop time.
	stormLead = 30 * time.Millisecond
)

type dropStorm struct {
	s       *stack
	clients []*epp.Client
	ids     []int
	runner  *registry.DropRunner
	sched   [][]registry.Scheduled // one release schedule per round
}

func prepareStorm(seed int64) func(string) (instance, error) {
	pending := make([]int, stormRounds)
	for i := range pending {
		pending[i] = stormQueue
	}
	p := genPopulation(seed, popSpec{Total: 160_000, Pending: pending})
	return func(dir string) (instance, error) {
		s, err := newStack(stackConfig{Dir: dir, Mode: journal.ModeAsync}, p)
		if err != nil {
			return nil, err
		}
		w := &dropStorm{s: s, ids: catchers(p.Dir, sessions)}
		w.runner = registry.NewDropRunner(s.store, registry.DefaultDropConfig())
		policy := zone.InstantRelease{Config: w.runner.Config()}
		for r := range stormRounds {
			day := dropDay.AddDays(r)
			w.sched = append(w.sched, policy.Schedule(day, w.runner.BuildQueue(day), nil))
		}
		if w.clients, err = login(s.eppAddr, p, w.ids); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}
}

func (w *dropStorm) close() error {
	for _, c := range w.clients {
		c.Close()
	}
	return w.s.close()
}

// stormTally is what the rounds of one run add up.
type stormTally struct {
	mu       sync.Mutex
	ph       *phase
	report   storm.Report
	delays   loadgen.Hist // purge instant to winning ack
	losers   loadgen.Hist // reply time of creates that lost
	lost     uint64       // creates answered 2302
	inLead   uint64       // of them, sent before the release instant
	bursts   []float64    // s, start of the release to the round's last win
	releases []float64    // s, the round's Apply loop
}

func (w *dropStorm) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	w.s.attach(tr)
	before := w.s.counters()
	t := &stormTally{ph: ph, report: storm.Report{Winners: map[string]storm.Win{}, MultiAcks: map[string]int{}}}
	start := time.Now()
	for r, sched := range w.sched {
		// Round r's release instant: evenly spaced over the window, never
		// before the previous round has ended.
		if wait := time.Until(start.Add(time.Duration(r) * d / stormRounds)); wait > 0 {
			time.Sleep(wait)
		}
		w.round(sched, tr, t)
	}
	elapsed := time.Since(start)
	w.s.attach(nil)
	after := w.s.counters()

	n := stormRounds * stormQueue
	ph.layers = append(w.s.layers(before, after, elapsed.Seconds()),
		metric{Name: "registry.purge_per_s", Value: stormQueue / median(t.releases), Unit: "1/s"})
	ph.ops = float64(len(t.report.Winners))
	for _, b := range t.bursts {
		ph.rounds = append(ph.rounds, stormQueue/b)
		ph.opsSecs += b
	}
	w.verify(ph, &t.report, n)
	wins := uint64(len(t.report.Winners))
	ph.note("drop: %d rounds of %d names; release loop median %.1f ms, release to last win median %.1f ms (min %.1f, max %.1f)",
		stormRounds, stormQueue, 1e3*median(t.releases), 1e3*median(t.bursts), 1e3*slices.Min(t.bursts), 1e3*slices.Max(t.bursts))
	ph.note("creates: %d attempts, %d wins (%.3f), %d lost with 2302 (%d of them in the %v lead); losing reply p50 %s",
		ph.attempted, wins, ratio(float64(wins), float64(ph.attempted)), t.lost, t.inLead, stormLead, fmtPct(&t.losers, 50))
	ph.note("rereg_delay_p50_ms = %s", fmtPct(&t.delays, 50))
	ph.note("rereg_delay_p99_ms = %s", fmtPct(&t.delays, 99))
	return ph, nil
}

// round runs one Drop of queue q and adds it to t.
func (w *dropStorm) round(q []registry.Scheduled, tr *tracer, t *stormTally) {
	n := len(q)
	var (
		purgedAt = make([]atomic.Int64, n) // monotonic ns since epoch; 0 = not yet
		claimed  = make([]atomic.Bool, n)
		frontier atomic.Int64  // every index below is won
		lastWin  time.Duration // since epoch, the round's last winning ack; under t.mu
		wg       sync.WaitGroup
	)
	epoch := time.Now()
	release := epoch.Add(stormLead)
	giveUp := release.Add(60 * time.Second)
	advance := func() {
		for f := frontier.Load(); f < int64(n) && claimed[f].Load(); f = frontier.Load() {
			frontier.CompareAndSwap(f, f+1)
		}
	}
	for i, c := range w.clients {
		wg.Add(1)
		go func(i int, c *epp.Client) {
			defer wg.Done()
			for {
				j := int(frontier.Load())
				if j >= n {
					return
				}
				if time.Now().After(giveUp) {
					t.mu.Lock()
					t.ph.fail("session %d gave up with %d names unclaimed", i, n-j)
					t.mu.Unlock()
					return
				}
				if claimed[j].Load() {
					advance()
					continue
				}
				name := q[j].Name
				t0 := time.Now()
				_, err := c.Create(name, 1)
				t1 := time.Now()
				tr.root("epp.create", name, roleCreate, err == nil, since(tr, t0), since(tr, t1))
				t.mu.Lock()
				t.ph.attempted++
				switch {
				case err == nil:
					t.ph.record(t1.Sub(t0))
					if prev, dup := t.report.Winners[name]; dup {
						t.report.MultiAcks[name]++
						t.ph.fail("%s acked to %d after %d", name, w.ids[i], prev.Accreditation)
					}
					delay := t1.Sub(epoch) - time.Duration(purgedAt[j].Load())
					t.report.Winners[name] = storm.Win{Name: name, Accreditation: w.ids[i], Delay: delay}
					t.delays.Record(delay)
					claimed[j].Store(true)
					lastWin = max(lastWin, t1.Sub(epoch))
				case epp.IsCode(err, epp.CodeObjectExists):
					t.lost++
					if t0.Before(release) {
						t.inLead++
					}
					t.losers.Record(t1.Sub(t0))
				default:
					t.ph.fail("create %s: %v", name, err)
				}
				t.mu.Unlock()
				advance()
			}
		}(i, c)
	}

	// The release. A name's purge instant is taken before Apply, so no win
	// can precede it.
	time.Sleep(time.Until(release))
	r0 := time.Now()
	var applyErr error
	for j, s := range q {
		t0 := time.Now()
		purgedAt[j].Store(int64(t0.Sub(epoch)))
		_, err := w.runner.Apply(s)
		tr.root("registry.drop_apply", s.Name, rolePurge, err == nil, since(tr, t0), since(tr, time.Now()))
		if err != nil {
			applyErr = errors.Join(applyErr, err)
		}
	}
	releaseSecs := time.Since(r0).Seconds()
	wg.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	if applyErr != nil {
		t.ph.fail("drop: %v", applyErr)
	}
	t.releases = append(t.releases, releaseSecs)
	t.bursts = append(t.bursts, (lastWin - r0.Sub(epoch)).Seconds())
}

// verify is the drop-storm gate: exactly one 1000 per released name, none
// left unclaimed, every purge in its day's deletion archive, and every
// winner registered to its accreditation in the store
// (storm.Report.VerifyWins).
func (w *dropStorm) verify(ph *phase, report *storm.Report, n int) {
	if len(report.Winners) != n {
		ph.fail("%d of %d released names won", len(report.Winners), n)
	}
	for r := range stormRounds {
		if got := len(w.s.store.Deletions(dropDay.AddDays(r))); got != stormQueue {
			ph.fail("deletion archive of round %d holds %d of %d purges", r, got, stormQueue)
		}
	}
	if err := report.VerifyWins(w.s.store); err != nil {
		for _, e := range splitErrors(err) {
			ph.fail("%v", e)
		}
	}
}

// splitErrors unpacks an errors.Join result.
func splitErrors(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return []error{err}
}
