// Command dropserve stands up the whole registry ecosystem on localhost —
// EPP, RDAP, WHOIS, the pending-delete list service and the maliciousness
// oracle — over a seeded domain population, and keeps the lifecycle engine
// ticking against the real clock. Useful for poking at the protocol surfaces
// with cmd/dropwhois, the examples, or plain curl/netcat:
//
//	dropserve -epp :7700 -rdap :7701 -whois :7702 -scope :7703 -oracle :7704
//	curl http://127.0.0.1:7701/domain/keyworddeal0.com
//	printf 'keyworddeal0.com\r\n' | nc 127.0.0.1 7702
//
// SIGUSR1 promotes a replica; SIGINT and SIGTERM flush the journal and exit.
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux served by -debug
	"os"
	"os/signal"
	"syscall"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/node"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dropserve: ")

	var cfg node.Config
	flag.StringVar(&cfg.EPP, "epp", "127.0.0.1:7700", "EPP listen address")
	flag.StringVar(&cfg.RDAP, "rdap", "127.0.0.1:7701", "RDAP listen address")
	flag.StringVar(&cfg.WHOIS, "whois", "127.0.0.1:7702", "WHOIS listen address")
	flag.StringVar(&cfg.Scope, "scope", "127.0.0.1:7703", "pending-delete list listen address")
	flag.StringVar(&cfg.Oracle, "oracle", "127.0.0.1:7704", "maliciousness oracle listen address")
	flag.StringVar(&cfg.DNS, "dns", "127.0.0.1:7705", "authoritative DNS listen address (UDP)")
	flag.StringVar(&cfg.ZoneFile, "zonefile", "127.0.0.1:7706", "zone-file access listen address")
	debugAddr := flag.String("debug", "", "debug listen address serving net/http/pprof and expvar (empty = disabled)")
	population := flag.Int("population", 2000, "number of seeded domains")
	flag.Int64Var(&cfg.Seed, "seed", 1, "population seed")
	flag.StringVar(&cfg.DataDir, "datadir", "dropserve-data", "durability directory (WAL + snapshots); registry state is recovered from it on start (empty = memory only)")
	durability := flag.String("durability", "async", "journal mode: off, async (group-commit fsync in the background) or sync (fsync before every EPP ack)")
	flag.DurationVar(&cfg.SnapshotEvery, "snapshot-every", 5*time.Minute, "interval between background registry snapshots")
	flag.StringVar(&cfg.ListenReplication, "listen-replication", "", "replication listen address: stream snapshot + WAL to followers (requires a journal; on a replica it opens at promotion)")
	flag.StringVar(&cfg.ReplicateFrom, "replicate-from", "", "run as a read replica of the primary at this replication address (requires -datadir and a journal; EPP is read-only until SIGUSR1 promotes)")
	flag.IntVar(&cfg.SyncFollowers, "sync-followers", 0, "semi-synchronous replication: EPP acks additionally wait for this many follower acknowledgements (requires -durability sync and -listen-replication)")
	flag.IntVar(&cfg.FeedRing, "feed-ring", 4<<20, "event-feed delta ring capacity in bytes; a cursor that falls off the ring is redirected to the full list")
	flag.IntVar(&cfg.FeedQueue, "feed-queue", 64, "event-feed per-subscriber queue length; a subscriber that overflows it is moved to cursor catch-up")
	zoneSpecs := flag.String("zones", "", "extra zones beside the default .com/.net one, as semicolon-separated name=tld[+tld...]:policy[@HH:MM] specs (e.g. \"nordic=se+nu:instant@04:00;alt=org:random\"); primary only")
	flag.Parse()

	var err error
	if cfg.Durability, err = journal.ParseMode(*durability); err != nil {
		log.Fatal(err)
	}
	if cfg.Zones, err = zone.ParseSpecs(*zoneSpecs); err != nil {
		log.Fatal(err)
	}

	n, err := node.Open(cfg, func(store *registry.Store, dir *registrars.Directory, rng *rand.Rand, now time.Time) {
		seedPopulation(store, dir, rng, *population, now, []model.TLD{"com"})
		// Extra zones get their own smaller populations from derived seeds,
		// so every surface has something to serve per zone without
		// perturbing the core population's RNG stream.
		for zi, z := range store.ExtraZones() {
			zrng := rand.New(rand.NewSource(cfg.Seed + int64(zi+1)*1000))
			seedPopulation(store, dir, zrng, *population/4, now, z.TLDs)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	if *debugAddr != "" {
		expvar.Publish("dropserve", expvar.Func(func() any { return n.Vars() }))
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("debug: %v", err)
		}
		fmt.Printf("%-20s http://%s/debug/pprof and /debug/vars\n", "debug:", ln.Addr())
		go func() { log.Printf("debug: serve error: %v", http.Serve(ln, nil)) }()
	}

	store, dir := n.Store(), n.Directory()
	fmt.Printf("registry live: %d domains, %d accreditations (%d store shards)\n",
		store.Count(), len(dir.Registrars()), store.ShardCount())
	if zs := store.Zones(); len(zs) > 1 {
		for _, z := range zs {
			fmt.Printf("zone %-10s %-8s drop %02d:%02d, TLDs %v\n",
				z.Name, z.Policy, z.Drop.StartHour, z.Drop.StartMinute, z.TLDs)
		}
	}
	counts := store.StatusCounts()
	fmt.Printf("by status: active=%d autoRenew=%d redemption=%d pendingDelete=%d\n",
		counts[model.StatusActive], counts[model.StatusAutoRenew],
		counts[model.StatusRedemption], counts[model.StatusPendingDelete])
	fmt.Printf("EPP login example: registrar %d, token %q\n",
		dir.Accreditations(registrars.Svc1API)[0],
		dir.Credential(dir.Accreditations(registrars.Svc1API)[0]))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for s := range sig {
		if s == syscall.SIGUSR1 {
			// Promotion drill: the operator has fenced the old primary.
			if err := n.Promote(); errors.Is(err, node.ErrNotReplica) {
				log.Printf("SIGUSR1: %v; ignoring", err)
			} else if err != nil {
				log.Fatal(err)
			}
			continue
		}
		log.Printf("%v: shutting down", s)
		err := n.Close()
		vars, _ := json.Marshal(n.Vars()) // numbers, strings and maps: cannot fail
		log.Printf("vars: %s", vars)
		if err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		return
	}
}

// seedPopulation creates a mix of active, expiring and pending-delete
// domains so every protocol surface has something to serve, round-robining
// the names over tlds (no RNG draw per name — a single-TLD call consumes
// exactly the pre-federation stream).
func seedPopulation(store *registry.Store, dir *registrars.Directory, rng *rand.Rand, n int, now time.Time, tlds []model.TLD) {
	gen := names.NewGenerator(rng)
	sponsors := dir.Accreditations(registrars.SvcGoDaddy)
	sponsors = append(sponsors, dir.Accreditations(registrars.SvcOther)...)
	today := simtime.DayOf(now)
	for i := 0; i < n; i++ {
		g := gen.Next()
		name := g.Label + "." + string(tlds[i%len(tlds)])
		sponsor := sponsors[rng.Intn(len(sponsors))]
		switch i % 4 {
		case 0: // active
			created := now.AddDate(-1-rng.Intn(5), 0, -rng.Intn(300))
			store.SeedAt(name, sponsor, created, created, created.AddDate(1+rng.Intn(5), 0, 0), model.StatusActive, simtime.Day{})
		case 1: // recently expired (autoRenew)
			created := now.AddDate(-2, 0, -rng.Intn(30))
			expiry := now.AddDate(0, 0, -rng.Intn(20))
			store.SeedAt(name, sponsor, created, expiry, expiry.AddDate(1, 0, 0), model.StatusAutoRenew, simtime.Day{})
		case 2: // redemption
			created := now.AddDate(-3, 0, 0)
			updated := now.AddDate(0, 0, -rng.Intn(25))
			store.SeedAt(name, sponsor, created, updated, updated.AddDate(0, 0, -35), model.StatusRedemption, simtime.Day{})
		default: // pendingDelete within the published window
			created := now.AddDate(-2, 0, 0)
			updated := now.AddDate(0, 0, -33)
			store.SeedAt(name, sponsor, created, updated, updated.AddDate(0, 0, -35),
				model.StatusPendingDelete, today.AddDays(rng.Intn(dropscope.LookaheadDays)))
		}
	}
}
