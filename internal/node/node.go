// Package node assembles one registry node: the store, its durability and
// replication role, and every protocol surface (EPP, RDAP, WHOIS, the
// pending-delete list with its event feed, DNS, zone files and the
// maliciousness oracle). A node boots as a primary or as a read replica;
// Promote turns a replica into a primary through the same code a primary
// boots through, so a promoted node runs every subsystem a booted one does.
package node

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/dns"
	"dropzero/internal/dropscope"
	"dropzero/internal/epp"
	"dropzero/internal/feed"
	"dropzero/internal/gencache"
	"dropzero/internal/journal"
	"dropzero/internal/rdap"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
	"dropzero/internal/safebrowsing"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
	"dropzero/internal/zone"
	"dropzero/internal/zonefile"
)

// Config describes one node. Every field but Clock is set by the dropserve
// flag of the same meaning.
type Config struct {
	// Listen addresses; DNS is UDP, the rest TCP.
	EPP, RDAP, WHOIS, Scope, Oracle, DNS, ZoneFile string
	// Seed draws the registrar directory and with it the EPP credentials.
	Seed          int64
	DataDir       string // WAL and snapshots, or a replica's shipped log; empty = memory only
	Durability    journal.Mode
	SnapshotEvery time.Duration
	// ListenReplication serves followers; a replica opens it at promotion.
	ListenReplication string
	ReplicateFrom     string // non-empty makes the node a replica of this primary
	SyncFollowers     int    // follower acks every EPP ack waits for (semi-sync)
	FeedRing          int    // event-feed delta ring capacity in bytes
	FeedQueue         int    // event-feed per-subscriber queue length
	Zones             []zone.Config
	Clock             simtime.Clock // nil = the real clock
}

func (c Config) validate() error {
	replica, journaled := c.ReplicateFrom != "", c.DataDir != "" && c.Durability != journal.ModeOff
	switch {
	case replica && !journaled:
		return errors.New("node: a replica needs a data directory and durability async or sync: promotion reopens its shipped log as a writing journal")
	case replica && len(c.Zones) > 0:
		return errors.New("node: zones are configured on the primary; a replica learns them from the replication stream")
	case c.ListenReplication != "" && !journaled:
		return errors.New("node: a replication listener needs a data directory and durability async or sync")
	case c.SyncFollowers > 0 && (c.Durability != journal.ModeSync || c.ListenReplication == ""):
		return errors.New("node: semi-sync needs durability sync and a replication listener: an async WAL acknowledges before any follower could")
	case c.SnapshotEvery <= 0:
		return errors.New("node: the snapshot interval must be positive")
	}
	return nil
}

// ErrNotReplica is Promote's answer on a node that is already a primary.
var ErrNotReplica = errors.New("node: not an unpromoted replica")

// Node is one running registry node.
type Node struct {
	cfg   Config
	store *registry.Store
	dir   *registrars.Directory
	poll  *epp.PollQueue

	epp    *epp.Server
	rdap   *rdap.Server
	whois  *whois.Server
	scope  *dropscope.Server
	oracle *safebrowsing.Oracle
	dns    *dns.Server
	zones  *zonefile.Server

	addrs    map[string]net.Addr
	follower *repl.Follower // nil on a node booted as a primary
	primary  atomic.Pointer[primary]
	closing  sync.Once
}

// primary is what becomePrimary attaches.
type primary struct {
	jnl    *journal.Journal // nil on a memory-only primary
	hub    *feed.Hub
	source *repl.Source // nil without a replication listener
	lcs    []*registry.Lifecycle
	stop   chan struct{}
	done   chan struct{}
}

// Open builds and starts a node. A primary recovers cfg.DataDir, installs
// its registrars and zones and — when the directory held no history — calls
// seed to populate the store; a replica follows cfg.ReplicateFrom and
// serves reads, with EPP read-only until Promote.
func Open(cfg Config, seed func(store *registry.Store, dir *registrars.Directory, rng *rand.Rand, now time.Time)) (n *Node, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.RealClock{}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n = &Node{cfg: cfg, dir: registrars.BuildDirectory(rng), addrs: make(map[string]net.Addr)}
	n.store = registry.NewStore(cfg.Clock)
	// Safe on a replica too: ApplyBatch never notifies the observer.
	n.poll = epp.NewPollQueue(cfg.Clock, 0)
	n.store.SetObserver(n.poll)
	n.epp = epp.NewServer(n.store, cfg.Clock, epp.ServerConfig{
		Credentials: n.dir.Credentials(),
		CreateBurst: 20,
		CreateRate:  5,
		Verbose:     true,
		Poll:        n.poll,
		ReadOnly:    true, // lifted by becomePrimary
	})
	n.rdap = rdap.NewServer(n.store, rdap.ServerConfig{})
	n.whois = whois.NewServer(n.store)
	n.scope = dropscope.NewServer(n.store)
	n.oracle = safebrowsing.NewOracle()
	n.dns = dns.NewServer(n.store)
	n.zones = zonefile.NewServer(n.store)
	defer func() {
		if err != nil {
			n.Close()
			n = nil
		}
	}()

	if cfg.ReplicateFrom != "" {
		if n.follower, err = repl.NewFollower(n.store, repl.FollowerConfig{Dir: cfg.DataDir, Addr: cfg.ReplicateFrom, Logf: log.Printf}); err != nil {
			return n, fmt.Errorf("replication: %w", err)
		}
		n.follower.Start()
		log.Printf("replica: following %s from seq %d", cfg.ReplicateFrom, n.follower.AppliedSeq())
	} else {
		var jnl *journal.Journal
		var rec journal.Recovery
		if cfg.DataDir != "" && cfg.Durability != journal.ModeOff {
			if jnl, rec, err = journal.Open(n.store, journal.Options{Dir: cfg.DataDir, Mode: cfg.Durability}); err != nil {
				return n, fmt.Errorf("journal: %w", err)
			}
			if !rec.Fresh() {
				t := rec.Timings
				log.Printf("recovered %d domains from %s (snapshot seq %d, %d WAL records replayed) in %v",
					n.store.Count(), cfg.DataDir, rec.SnapshotSeq, rec.ReplayedRecords, t.Total.Round(time.Millisecond))
				log.Printf("recovery phases: snapshot read %v + decode %v + install %v (%d bytes), WAL replay %v (%.0f records/sec)",
					t.SnapshotRead.Round(time.Millisecond), t.SnapshotDecode.Round(time.Millisecond),
					t.SnapshotInstall.Round(time.Millisecond), rec.SnapshotBytes,
					t.Replay.Round(time.Millisecond), rec.ReplayRPS())
			}
		}
		// Only a primary originates history; a replica's registrars, zones
		// and population arrive through the replication stream.
		err = n.becomePrimary(jnl, func() error {
			for _, r := range n.dir.Registrars() {
				n.store.AddRegistrar(r)
			}
			if err := n.store.EnsureZones(cfg.Zones); err != nil {
				return err
			}
			if !rec.Fresh() {
				return nil
			}
			if seed != nil {
				seed(n.store, n.dir, rng, cfg.Clock.Now())
			}
			// The first follower bootstraps from this snapshot instead of
			// replaying the whole seed from the WAL.
			if jnl != nil {
				if err := jnl.Snapshot(nil); err != nil {
					return fmt.Errorf("snapshot: %w", err)
				}
			}
			return nil
		})
		if err != nil {
			return n, err
		}
	}
	return n, errors.Join(
		n.listen("EPP", cfg.EPP, n.epp.Listen),
		n.listen("RDAP", cfg.RDAP, n.rdap.Listen),
		n.listen("WHOIS", cfg.WHOIS, n.whois.Listen),
		n.listen("pending-delete list", cfg.Scope, n.scope.Listen),
		n.listen("oracle", cfg.Oracle, n.oracle.Listen),
		n.listen("DNS (udp)", cfg.DNS, n.dns.Listen),
		n.listen("zone files", cfg.ZoneFile, n.zones.Listen),
	)
}

// becomePrimary is the one place the store's sink chain is built: the WAL,
// then the quorum wait when SyncFollowers > 0, tapped by a feed hub primed
// from the store and mounted on the pending-delete list. It starts the
// replication source, the snapshotter and the per-zone lifecycle, and lifts
// EPP's read-only gate. It owns jnl, closing it on failure. originate runs
// before the quorum wait joins the chain, so a fresh primary's bulk history
// reaches followers by snapshot instead of blocking on followers that have
// not connected yet; Open snapshots that history before the replication
// listener opens.
func (n *Node) becomePrimary(jnl *journal.Journal, originate func() error) (err error) {
	p := &primary{
		jnl:  jnl,
		hub:  feed.NewHub(feed.Options{RingBytes: n.cfg.FeedRing, QueueLen: n.cfg.FeedQueue}),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	defer func() {
		if err != nil {
			n.store.SetJournal(nil)
			p.hub.Close()
			if jnl != nil {
				jnl.Close()
			}
		}
	}()
	var wal registry.Journal
	if jnl != nil {
		wal = jnl
	}
	p.hub.PrimeFromStore(n.store)
	n.store.SetJournal(feed.Tap{Inner: wal, Hub: p.hub})
	if originate != nil {
		if err := originate(); err != nil {
			return err
		}
	}
	p.hub.SetZones(n.store.Zones())
	n.scope.AttachFeed(p.hub)
	if n.cfg.ListenReplication != "" {
		p.source = repl.NewSource(jnl, repl.SourceConfig{SyncFollowers: n.cfg.SyncFollowers, Logf: log.Printf})
		if err := n.listen("replication", n.cfg.ListenReplication, p.source.Listen); err != nil {
			return err
		}
		if n.cfg.SyncFollowers > 0 {
			n.store.SetJournal(feed.Tap{Inner: &repl.SyncJournal{J: jnl, S: p.source}, Hub: p.hub})
			log.Printf("semi-sync: EPP acks wait for %d follower acknowledgement(s)", n.cfg.SyncFollowers)
		}
	}
	p.lcs = []*registry.Lifecycle{registry.NewLifecycle(n.store, registry.DefaultLifecycleConfig())}
	for _, z := range n.store.ExtraZones() {
		p.lcs = append(p.lcs, registry.NewZoneLifecycle(n.store, z))
	}
	n.primary.Store(p)
	go n.run(p)
	n.epp.SetReadOnly(false)
	return nil
}

// Promote turns a replica into a primary: the follower finishes applying
// its durable shipped log and reopens it as a writing journal, then the
// node becomes primary exactly as a booting one does. Fencing the old
// primary is the operator's job.
func (n *Node) Promote() error {
	if n.follower == nil || n.primary.Load() != nil {
		return ErrNotReplica
	}
	jnl, err := n.follower.Promote(journal.Options{Dir: n.cfg.DataDir, Mode: n.cfg.Durability})
	if err == nil {
		err = n.becomePrimary(jnl, nil)
	}
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	log.Printf("promoted to primary at seq %d; EPP writes enabled", jnl.LastSeq())
	return nil
}

// run is a primary's background loop: lifecycle ticks, and periodic
// consistent snapshots that bound the WAL replay a restart pays.
func (n *Node) run(p *primary) {
	defer close(p.done)
	tick := time.NewTicker(30 * time.Second) // transitions are day-granular
	defer tick.Stop()
	snap := time.NewTicker(n.cfg.SnapshotEvery)
	defer snap.Stop()
	for {
		select {
		case <-tick.C:
			k := 0
			for _, lc := range p.lcs {
				k += lc.Tick(n.cfg.Clock.Now())
			}
			if k > 0 {
				log.Printf("lifecycle: %d transitions", k)
			}
		case <-snap.C:
			if p.jnl == nil {
				continue
			}
			// Async mode acknowledges mutations before they are durable, so
			// a poisoned WAL (disk full, IO error) is invisible to EPP
			// clients; surface it here. The snapshot still runs — it
			// persists the current state directly, independent of the log.
			if err := p.jnl.Err(); err != nil {
				log.Printf("journal: WAL failed, new mutations are NOT durable: %v", err)
			}
			if err := p.jnl.Snapshot(nil); err != nil {
				log.Printf("snapshot: %v", err)
			}
		case <-p.stop:
			return
		}
	}
}

func (n *Node) listen(name, addr string, fn func(string) (net.Addr, error)) error {
	got, err := fn(addr)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	n.addrs[name] = got
	log.Printf("%-20s %s", name+":", got)
	return nil
}

// Addr returns the named surface's address; a replica binds "replication" in Promote.
func (n *Node) Addr(name string) net.Addr { return n.addrs[name] }

// Store returns the node's registry store.
func (n *Node) Store() *registry.Store { return n.store }

// Directory returns the registrar directory behind the EPP credentials.
func (n *Node) Directory() *registrars.Directory { return n.dir }

// Feed returns the event-feed hub behind the pending-delete list, or nil on
// an unpromoted replica.
func (n *Node) Feed() *feed.Hub {
	if p := n.primary.Load(); p != nil {
		return p.hub
	}
	return nil
}

// Close shuts the node down: EPP first, draining its sessions, then the
// background loop, replication and finally the journal's flush, so every
// acknowledged mutation is on disk before Close returns; the read-only
// surfaces close last. It reports every failure it meets; later calls do
// nothing.
func (n *Node) Close() (err error) {
	n.closing.Do(func() { err = n.close() })
	return err
}

func (n *Node) close() error {
	errs := []error{n.epp.Close()}
	p := n.primary.Load()
	if p != nil {
		close(p.stop)
		<-p.done
		p.hub.Close() // ends /events streams
		if p.source != nil {
			errs = append(errs, p.source.Close())
		}
	}
	if n.follower != nil {
		errs = append(errs, n.follower.Err(), n.follower.Close())
	}
	if p != nil && p.jnl != nil {
		// In async mode this is the only place a quiet run reports that
		// acknowledged mutations were never made durable.
		if err := p.jnl.Err(); err != nil {
			log.Printf("journal: WAL error, recent mutations may NOT be durable: %v", err)
		}
		if err := p.jnl.Close(); err != nil {
			errs = append(errs, fmt.Errorf("journal: close: %w", err))
		} else {
			log.Printf("journal: flushed and closed")
		}
	}
	for _, c := range []interface{ Close() error }{n.rdap, n.whois, n.scope, n.oracle, n.dns, n.zones} {
		errs = append(errs, c.Close())
	}
	for _, s := range []interface{ ServeErr() error }{n.rdap, n.whois, n.scope, n.oracle} {
		errs = append(errs, s.ServeErr())
	}
	return errors.Join(errs...)
}

// Vars returns the node's counters as one map: the store, every serving
// surface, and — where the node has them — the feed, the journal and each
// side of replication. It is safe to call at any time, also after Close.
func (n *Node) Vars() map[string]any {
	surface := func(requests uint64, cache gencache.Counters) map[string]any {
		return map[string]any{
			"requests":    requests,
			"cache_hits":  cache.Hits,
			"cache_miss":  cache.Misses,
			"cache_ratio": cache.HitRatio(),
		}
	}
	rm, wm, sm := n.rdap.Metrics(), n.whois.Metrics(), n.scope.Metrics()
	scope := surface(sm.Requests, sm.Cache)
	scope["write_errors"] = sm.WriteErrors
	vars := map[string]any{
		"store": map[string]any{
			"shards":     n.store.ShardCount(),
			"domains":    n.store.Count(),
			"generation": n.store.Generation(),
		},
		// Per-command and per-result-code counters from the EPP hot path;
		// during a Drop, watch create vs code 2302 (lost races) and 2502
		// (rate-limit pushback) climb here.
		"epp":   n.epp.Metrics(),
		"rdap":  surface(rm.Requests, rm.Cache),
		"whois": surface(wm.Requests, wm.Cache),
		"scope": scope,
	}
	if p := n.primary.Load(); p != nil {
		lag := p.hub.FanoutLag()
		fm := p.hub.Metrics()
		vars["feed"] = struct {
			feed.Metrics
			CacheHits uint64 `json:"cache_hits"`
			CacheMiss uint64 `json:"cache_miss"`
			// Live fan-out lag: mutation append instant to subscriber
			// receipt, the number a drop-catcher's dashboard watches.
			LagP50  float64 `json:"fanout_lag_p50_ms"`
			LagP99  float64 `json:"fanout_lag_p99_ms"`
			LagP999 float64 `json:"fanout_lag_p999_ms"`
			Sent    uint64  `json:"fanout_deliveries"`
		}{fm, fm.Cache.Hits, fm.Cache.Misses, ms(lag.P50()), ms(lag.P99()), ms(lag.P999()), lag.Requests}
		if p.jnl != nil {
			walErr := ""
			if err := p.jnl.Err(); err != nil {
				walErr = err.Error()
			}
			vars["journal"] = struct {
				journal.Metrics
				WALError string `json:"wal_error"`
			}{p.jnl.Metrics(), walErr}
		}
		if p.source != nil {
			vars["repl_source"] = p.source.Metrics()
		}
	}
	// The follower's lag gauges, what a dashboard polls during a Drop: how
	// far behind the replica is in records and in time, and the worst it
	// has been. A promoted replica keeps them as the record of its catch-up.
	if n.follower != nil {
		m := n.follower.Metrics()
		lag := n.follower.LagResult()
		vars["repl_follower"] = struct {
			repl.FollowerMetrics
			PeakLagMS float64 `json:"peak_time_lag_ms"`
			LagP50    float64 `json:"time_lag_p50_ms"`
			LagP99    float64 `json:"time_lag_p99_ms"`
		}{m, ms(m.PeakTimeLag), ms(lag.P50()), ms(lag.P99())}
	}
	return vars
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
