package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/epp"
	"dropzero/internal/feed"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

// stackConfig selects which parts of the cmd/dropserve wiring a workload
// runs.
type stackConfig struct {
	Dir  string       // data directory root (primary and follower below it)
	Mode journal.Mode // ModeSync or ModeAsync
	// Follower attaches one in-process follower over loopback TCP and makes
	// every ack wait for it (semi-sync, SyncFollowers = 1). Needs ModeSync.
	Follower bool
}

// stack is the production registry stack cmd/dropserve assembles, hosted in
// this process and served on loopback ports.
type stack struct {
	cfg   stackConfig
	store *registry.Store
	jnl   *journal.Journal
	hub   *feed.Hub
	src   *repl.Source
	poll  *epp.PollQueue

	folStore *registry.Store
	fol      *repl.Follower

	epp   *epp.Server
	rdap  *rdap.Server
	whois *whois.Server
	scope *dropscope.Server

	eppAddr, rdapURL, whoisAddr, scopeURL string

	// tr is the active tracer; nil while untraced.
	tr atomic.Pointer[tracer]
}

// attach makes tr the active tracer. Untraced (tr nil), the store runs the
// journal chain and observer cmd/dropserve installs, so the gated figures
// measure the program's own code; traced, their timed equivalents.
func (s *stack) attach(tr *tracer) {
	s.tr.Store(tr)
	if tr == nil {
		s.store.SetJournal(s.production())
		s.store.SetObserver(s.poll)
		return
	}
	s.store.SetJournal(tracedJournal{s})
	s.store.SetObserver(tracedObserver{s})
}

// production is the registry.Journal cmd/dropserve installs: the WAL — behind
// the semi-sync quorum wait when a follower is attached — tapped by the
// feed hub.
func (s *stack) production() registry.Journal {
	if s.src != nil {
		return feed.Tap{Inner: &repl.SyncJournal{J: s.jnl, S: s.src}, Hub: s.hub}
	}
	return feed.Tap{Inner: s.jnl, Hub: s.hub}
}

// newStack builds and starts the stack over population p. Durable modes
// seed through an async journal and snapshot; sync mode then reopens the
// directory the way a restarted primary does, so the measured primary is a
// recovered one.
func newStack(cfg stackConfig, p *population) (*stack, error) {
	s := &stack{cfg: cfg}
	if err := s.start(p); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) start(p *population) error {
	clock := simtime.RealClock{}
	s.store = registry.NewStoreWithShards(clock, 0)
	primary := filepath.Join(s.cfg.Dir, "primary")
	jnl, _, err := journal.Open(s.store, journal.Options{Dir: primary, Mode: journal.ModeAsync})
	if err != nil {
		return err
	}
	s.jnl = jnl
	s.store.SetJournal(jnl)
	if err := seedStore(s.store, p); err != nil {
		return err
	}
	if s.cfg.Mode == journal.ModeSync {
		if err := s.jnl.Snapshot(nil); err != nil {
			return err
		}
		s.store.SetJournal(nil)
		if err := s.jnl.Close(); err != nil {
			return err
		}
		s.store = registry.NewStoreWithShards(clock, 0)
		jnl, _, err := journal.Open(s.store, journal.Options{Dir: primary, Mode: journal.ModeSync})
		if err != nil {
			s.jnl = nil
			return err
		}
		s.jnl = jnl
	}

	s.hub = feed.NewHub(feed.Options{RingBytes: 4 << 20, QueueLen: 64})
	s.hub.PrimeFromStore(s.store)
	s.hub.SetZones(s.store.Zones())

	if s.cfg.Follower {
		if s.cfg.Mode != journal.ModeSync {
			return fmt.Errorf("a semi-sync follower needs the sync WAL")
		}
		s.src = repl.NewSource(s.jnl, repl.SourceConfig{SyncFollowers: 1})
		addr, err := s.src.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		s.folStore = registry.NewStoreWithShards(clock, 0)
		s.fol, err = repl.NewFollower(s.folStore, repl.FollowerConfig{Dir: filepath.Join(s.cfg.Dir, "follower"), Addr: addr.String()})
		if err != nil {
			return err
		}
		s.fol.Start()
		if err := s.waitFollower(30 * time.Second); err != nil {
			return err
		}
	}

	s.poll = epp.NewPollQueue(clock, 0)
	s.attach(nil)
	s.epp = epp.NewServer(s.store, clock, epp.ServerConfig{
		Credentials: p.Dir.Credentials(),
		// The token bucket is on but sized so it never binds: a refused
		// create would measure the limiter, not the registry.
		CreateBurst: 1e9,
		CreateRate:  1e9,
		Poll:        s.poll,
	})
	s.rdap = rdap.NewServer(s.store, rdap.ServerConfig{})
	s.whois = whois.NewServer(s.store)
	s.scope = dropscope.NewServer(s.store)
	s.scope.AttachFeed(s.hub)
	for _, l := range []struct {
		listen func(string) (net.Addr, error)
		dst    *string
		scheme string
	}{
		{s.epp.Listen, &s.eppAddr, ""},
		{s.rdap.Listen, &s.rdapURL, "http://"},
		{s.whois.Listen, &s.whoisAddr, ""},
		{s.scope.Listen, &s.scopeURL, "http://"},
	} {
		a, err := l.listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		*l.dst = l.scheme + a.String()
	}
	return nil
}

// waitFollower blocks until the follower has applied everything the
// primary has logged.
func (s *stack) waitFollower(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for s.fol.AppliedSeq() < s.jnl.LastSeq() {
		if err := s.fol.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at seq %d of %d", s.fol.AppliedSeq(), s.jnl.LastSeq())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// close stops every server and background goroutine and closes the
// journals, primary first so nothing is acknowledged after its WAL closed.
func (s *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.epp != nil {
		keep(s.epp.Close())
	}
	if s.rdap != nil {
		keep(s.rdap.Close())
	}
	if s.whois != nil {
		keep(s.whois.Close())
	}
	if s.scope != nil {
		keep(s.scope.Close())
	}
	if s.src != nil {
		keep(s.src.Close())
	}
	if s.fol != nil {
		keep(s.fol.Close())
	}
	if s.hub != nil {
		s.hub.Close()
	}
	if s.jnl != nil {
		s.store.SetJournal(nil)
		keep(s.jnl.Close())
	}
	return first
}

// tracedJournal is the store's registry.Journal in traced runs: the chain
// production returns — WAL append, feed tap, then the durability wait and,
// with a follower, the semi-sync quorum wait (repl.SyncJournal) — spelled out
// so that each step is timed. TestTracedJournalMatchesProduction holds it to
// the production chain.
type tracedJournal struct{ s *stack }

func (j tracedJournal) Append(m registry.Mutation) func() error {
	s, tr, r := j.s, j.s.tr.Load(), mutationRole(m.Kind)
	var (
		seq  uint64
		wait func() error
	)
	timed(tr, "journal.append", m.Name, r, func() { seq, wait = s.jnl.AppendMutation(m) })
	timed(tr, "feed.tap_append", m.Name, r, func() { s.hub.Append(m) })
	if wait == nil {
		return nil
	}
	return func() error {
		var err error
		timed(tr, "journal.durable_wait", m.Name, r, func() { err = wait() })
		if err != nil || s.src == nil {
			return err
		}
		timed(tr, "repl.quorum_wait", m.Name, r, func() { err = s.src.WaitSynced(seq) })
		return err
	}
}

// timed runs f, recorded as a child span when a tracer is active.
func timed(tr *tracer, name, key string, r role, f func()) {
	if tr == nil {
		f()
		return
	}
	t0 := tr.now()
	f()
	tr.child(name, key, r, t0, tr.now())
}

func mutationRole(k registry.MutKind) role {
	if k == registry.MutPurge {
		return rolePurge
	}
	return roleCreate
}

// tracedObserver is the store's registry.Observer in traced runs: the EPP
// poll queue, with the Drop's purge callback timed.
type tracedObserver struct{ s *stack }

func (o tracedObserver) DomainPurged(ev model.DeletionEvent, registrarID int) {
	timed(o.s.tr.Load(), "registry.observer", ev.Name, rolePurge, func() { o.s.poll.DomainPurged(ev, registrarID) })
}

func (o tracedObserver) DomainTransitioned(name string, registrarID int, from, to model.Status) {
	o.s.poll.DomainTransitioned(name, registrarID, from, to)
}

func (o tracedObserver) DomainTransferred(name string, losingID, gainingID int) {
	o.s.poll.DomainTransferred(name, losingID, gainingID)
}
