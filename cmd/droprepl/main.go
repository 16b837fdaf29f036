// Command droprepl is the replication smoke test: it boots a semi-sync
// primary node and two replica nodes over TCP, proves every read surface
// renders byte-identical on all three, then races a Drop against a create
// burst, kills the primary mid-storm, promotes the most-advanced replica and
// audits that no acknowledged mutation was lost.
//
//	droprepl -domains 300 -writers 4 -creates 40
//
// The run exits non-zero if a replica did not bootstrap from a snapshot, any
// surface diverges, any acked create or catch is missing after failover, any
// acked purge resurfaces, or the promoted replica refuses an EPP create. CI
// uses this as the failover smoke.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/epp"
	"dropzero/internal/inproc"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/node"
	"dropzero/internal/rdap"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

const (
	seedRegistrar  = 9001
	catchRegistrar = 9002
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("droprepl: ")

	domains := flag.Int("domains", 300, "seeded domains on the primary")
	writers := flag.Int("writers", 4, "concurrent create writers during the race")
	creates := flag.Int("creates", 40, "fresh creates attempted per writer")
	flag.Parse()

	if err := run(*domains, *writers, *creates); err != nil {
		fmt.Fprintf(os.Stderr, "droprepl: FAIL\n  %v\n", err)
		os.Exit(1)
	}
}

func run(domains, writers, creates int) error {
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 8}
	clock := simtime.NewSimClock(day.At(18, 0, 0))
	base, err := os.MkdirTemp("", "droprepl-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	const local = "127.0.0.1:0"
	config := func(dir string, clock simtime.Clock) node.Config {
		return node.Config{
			EPP: local, RDAP: local, WHOIS: local, Scope: local, Oracle: local, DNS: local, ZoneFile: local,
			DataDir:       base + "/" + dir,
			Durability:    journal.ModeSync,
			SnapshotEvery: time.Hour,
			Clock:         clock,
		}
	}

	// Primary: sync WAL and semi-sync to one follower, so from the first
	// post-seed mutation on a nil error means the mutation is durable locally
	// AND applied by at least one replica. Open snapshots the fresh seed, so
	// the replicas bootstrap through the snapshot path.
	pcfg := config("primary", clock)
	pcfg.ListenReplication = local
	pcfg.SyncFollowers = 1
	var (
		names   []string
		seedErr error
	)
	primary, err := node.Open(pcfg, func(store *registry.Store, _ *registrars.Directory, _ *rand.Rand, _ time.Time) {
		names, seedErr = seedPrimary(store, domains, day)
	})
	if err != nil {
		return err
	}
	defer primary.Close()
	if seedErr != nil {
		return seedErr
	}
	store := primary.Store()

	// Time-to-first-serve: replica cold start to fully caught up (snapshot
	// bootstrap) — the window in which a hot spare is not yet one.
	replicas := make([]*node.Node, 2)
	for i := range replicas {
		cfg := config(fmt.Sprintf("replica%d", i+1), simtime.NewSimClock(day.At(18, 0, 0)))
		cfg.ReplicateFrom = primary.Addr("replication").String()
		started := time.Now()
		r, err := node.Open(cfg, nil)
		if err != nil {
			return err
		}
		defer r.Close()
		replicas[i] = r
		if err := waitGeneration(r, store.Generation()); err != nil {
			return err
		}
		log.Printf("replica %d time-to-first-serve: %v (bootstrapped to generation %d)",
			i+1, time.Since(started).Round(time.Millisecond), r.Store().Generation())
	}
	// A post-snapshot tail the replicas receive as WAL records.
	for i := 0; i < 32; i++ {
		if err := store.TouchAt(names[i], seedRegistrar, day.At(18, 30, i%60)); err != nil {
			return err
		}
	}
	for _, r := range replicas {
		if err := waitGeneration(r, store.Generation()); err != nil {
			return err
		}
	}
	log.Printf("primary + 2 replicas caught up at generation %d", store.Generation())
	// Checked after the tail: the source counts a snapshot once it is sent,
	// and ships the tail on the same connection only after that.
	if m, _ := primary.Vars()["repl_source"].(repl.SourceMetrics); m.SnapshotsSent < uint64(len(replicas)) {
		return fmt.Errorf("primary sent %d snapshots, want one per replica: a replica bootstrapped without one", m.SnapshotsSent)
	}

	// Phase 1: every read surface must render byte-identical on all three.
	sample := append([]string{}, names[:8]...)
	sample = append(sample, names[len(names)-4:]...)
	want, err := renderSurfaces(store, sample, day)
	if err != nil {
		return fmt.Errorf("render primary: %w", err)
	}
	for i, r := range replicas {
		if pg, rg := store.Generation(), r.Store().Generation(); pg != rg {
			return fmt.Errorf("replica%d generation %d != primary %d", i+1, rg, pg)
		}
		got, err := renderSurfaces(r.Store(), sample, day)
		if err != nil {
			return fmt.Errorf("render replica%d: %w", i+1, err)
		}
		if err := diffSurfaces(want, got); err != nil {
			return fmt.Errorf("replica%d diverges from primary: %w", i+1, err)
		}
	}
	log.Printf("surfaces byte-identical across %d rendered reads (RDAP, WHOIS, dropscope)", len(want))

	// Phase 2: race the Drop against a create burst, then kill the primary
	// partway through. Everything acked before the kill must survive.
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 20})
	sched := runner.Schedule(day, rand.New(rand.NewSource(1)))
	clock.Set(day.At(19, 0, 0))

	var (
		ackMu       sync.Mutex
		ackedNames  []string              // fresh creates + catches acked to a client
		ackedPurges = map[string]uint64{} // name -> purged domain ID
		catchCh     = make(chan string, len(sched))
		kill        = make(chan struct{})
		killOnce    sync.Once
		wg          sync.WaitGroup
	)
	// The kill: from here on nothing reaches a follower, so every later
	// mutation fails unacknowledged. What Close reports no longer matters.
	killPrimary := func() { killOnce.Do(func() { close(kill); primary.Close() }) }
	killed := func() bool {
		select {
		case <-kill:
			return true
		default:
			return false
		}
	}

	// The Drop: purge on schedule order, feeding each dropped name to the
	// catchers. Triggers the kill a third of the way through.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(catchCh)
		for i, sc := range sched {
			if i == len(sched)/3 {
				killPrimary()
			}
			if killed() {
				return
			}
			ev, err := runner.Apply(sc)
			if err != nil {
				return // unacked: the primary died underneath us
			}
			ackMu.Lock()
			ackedPurges[sc.Name] = ev.DomainID
			ackMu.Unlock()
			catchCh <- sc.Name
			time.Sleep(time.Millisecond)
		}
	}()

	// Catchers: re-register dropped names the instant they fall.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range catchCh {
				if _, err := store.CreateAt(name, catchRegistrar, 1, clock.Now()); err == nil {
					ackMu.Lock()
					ackedNames = append(ackedNames, name)
					ackMu.Unlock()
				}
			}
		}()
	}

	// Writers: fresh creates, unrelated to the Drop.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < creates; i++ {
				if killed() && w == 0 && i > creates/2 {
					return
				}
				name := fmt.Sprintf("race-w%d-%03d.com", w, i)
				if _, err := store.CreateAt(name, seedRegistrar, 1, clock.Now()); err == nil {
					ackMu.Lock()
					ackedNames = append(ackedNames, name)
					ackMu.Unlock()
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	killPrimary() // in case the schedule was too short to reach the trigger
	log.Printf("primary killed: %d acked creates, %d acked purges", len(ackedNames), len(ackedPurges))
	if len(ackedNames) == 0 || len(ackedPurges) == 0 {
		return fmt.Errorf("race produced no acked work (creates=%d purges=%d); smoke is vacuous",
			len(ackedNames), len(ackedPurges))
	}

	// Phase 3: promote the most-advanced replica. Every acked mutation was
	// applied by some replica before it was acknowledged, and both apply one
	// stream, so the higher generation holds them all.
	winner, other := replicas[0], replicas[1]
	if other.Store().Generation() > winner.Store().Generation() {
		winner, other = other, winner
	}
	if err := other.Close(); err != nil {
		return err
	}
	log.Printf("promoting replica at generation %d (other at %d)", winner.Store().Generation(), other.Store().Generation())
	if err := winner.Promote(); err != nil {
		return err
	}

	// Phase 4: audit. Every acked create must exist; every acked purge must
	// be gone (or superseded by a caught re-registration with a new ID).
	wstore := winner.Store()
	var lost []string
	for _, name := range ackedNames {
		if _, err := wstore.Get(name); err != nil {
			lost = append(lost, "create "+name)
		}
	}
	for name, oldID := range ackedPurges {
		if d, err := wstore.Get(name); err == nil && d.ID == oldID {
			lost = append(lost, "purge "+name)
		}
	}
	if len(lost) > 0 {
		sort.Strings(lost)
		if len(lost) > 10 {
			lost = append(lost[:10], fmt.Sprintf("... and %d more", len(lost)-10))
		}
		return fmt.Errorf("acked mutations lost across failover:\n  %v", lost)
	}

	// The promoted replica must take an EPP create: its write gate is lifted
	// and, the WAL being sync, the ack means its own journal holds the create.
	if err := eppCreate(winner, "post-failover.com"); err != nil {
		return fmt.Errorf("promoted replica rejected a write: %w", err)
	}

	fmt.Printf("PASS: surfaces byte-identical, %d acked creates and %d acked purges survived failover, promoted replica writable\n",
		len(ackedNames), len(ackedPurges))
	return nil
}

// seedPrimary registers the smoke's two registrars and seeds domains names,
// a quarter of them pending delete on day.
func seedPrimary(store *registry.Store, domains int, day simtime.Day) ([]string, error) {
	store.AddRegistrar(model.Registrar{IANAID: seedRegistrar, Name: "Repl Smoke Seeder"})
	store.AddRegistrar(model.Registrar{IANAID: catchRegistrar, Name: "Repl Smoke Catcher"})
	names := make([]string, 0, domains)
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("repl-smoke-%04d.com", i)
		at := day.AddDays(-40).At(6, 0, i%60)
		if _, err := store.CreateAt(name, seedRegistrar, 1, at); err != nil {
			return nil, err
		}
		if i%4 == 0 {
			if err := store.MarkPendingDelete(name, at.Add(time.Hour), day); err != nil {
				return nil, err
			}
		}
		names = append(names, name)
	}
	return names, nil
}

// waitGeneration polls until n's store reaches generation gen.
func waitGeneration(n *node.Node, gen uint64) error {
	deadline := time.Now().Add(15 * time.Second)
	for n.Store().Generation() < gen {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at generation %d waiting for %d", n.Store().Generation(), gen)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// eppCreate registers name through n's EPP listener as one of its
// directory's accreditations.
func eppCreate(n *node.Node, name string) error {
	c, err := epp.Dial(n.Addr("EPP").String())
	if err != nil {
		return err
	}
	defer c.Close()
	id := n.Directory().Accreditations(registrars.Svc1API)[0]
	if err := c.Login(id, n.Directory().Credential(id)); err != nil {
		return err
	}
	_, err = c.Create(name, 1)
	return err
}

// surface is one rendered read: status, body bytes and the cache validator.
type surface struct {
	status int
	etag   string
	body   string
}

// renderSurfaces renders RDAP lookups (hits and a miss), the dropscope
// pending-delete list for day, and WHOIS against one store, ETags included.
func renderSurfaces(store *registry.Store, names []string, day simtime.Day) (map[string]surface, error) {
	out := make(map[string]surface)

	rdapClient := inproc.Client(rdap.NewServer(store, rdap.ServerConfig{}).Handler())
	fetch := func(key, url string, client *http.Client) error {
		resp, err := client.Get(url)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		out[key] = surface{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: string(body)}
		return nil
	}
	for _, name := range names {
		if err := fetch("rdap/"+name, "http://rdap/domain/"+name, rdapClient); err != nil {
			return nil, err
		}
	}
	if err := fetch("rdap/miss", "http://rdap/domain/never-registered.com", rdapClient); err != nil {
		return nil, err
	}

	scopeClient := inproc.Client(dropscope.NewServer(store).Handler())
	if err := fetch("dropscope", "http://scope/pendingdelete?date="+day.String(), scopeClient); err != nil {
		return nil, err
	}

	wsrv := whois.NewServer(store)
	for _, name := range names {
		reply, err := whoisQuery(wsrv, name)
		if err != nil {
			return nil, fmt.Errorf("whois/%s: %w", name, err)
		}
		out["whois/"+name] = surface{status: 200, body: reply}
	}
	return out, nil
}

// whoisQuery performs one WHOIS exchange over an in-process pipe.
func whoisQuery(srv *whois.Server, name string) (string, error) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(server)
		server.Close()
	}()
	if _, err := io.WriteString(client, name+"\r\n"); err != nil {
		client.Close()
		<-done
		return "", err
	}
	reply, err := io.ReadAll(client)
	client.Close()
	<-done
	return string(reply), err
}

// diffSurfaces reports the first mismatch between two rendered surface sets.
func diffSurfaces(want, got map[string]surface) error {
	if len(want) != len(got) {
		return fmt.Errorf("surface count %d != %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, g := want[k], got[k]
		if w.status != g.status {
			return fmt.Errorf("%s: status %d != %d", k, g.status, w.status)
		}
		if w.etag != g.etag {
			return fmt.Errorf("%s: etag %q != %q", k, g.etag, w.etag)
		}
		if w.body != g.body {
			return fmt.Errorf("%s: body diverges (%d vs %d bytes)", k, len(g.body), len(w.body))
		}
	}
	return nil
}
