// Command dropfeed is the event-feed correctness smoke: it boots a
// memory-only registry node, whose feed hub taps the mutation stream, runs a
// multi-day Drop with re-registration flaps, and keeps a pool of live SSE
// subscribers — each maintaining a cursor-applied mirror of the
// pending-delete list — connected throughout, joining at staggered
// generations so the catch-up, resume and reset paths all run. At the end
// every mirror must be byte-identical to the server's full list; any
// divergence (a silently lost or duplicated delta) exits non-zero. CI uses
// this as the feed smoke test.
//
//	dropfeed -subscribers 100 -days 3
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dropzero/internal/feed"
	"dropzero/internal/model"
	"dropzero/internal/node"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dropfeed: ")

	subscribers := flag.Int("subscribers", 100, "live SSE subscribers maintaining cursor-applied mirrors")
	days := flag.Int("days", 3, "Drop days to run")
	population := flag.Int("population", 300, "seeded domains (half pending delete)")
	queue := flag.Int("queue", 8, "per-subscriber queue length (small, to exercise the slow-consumer catch-up paths)")
	seed := flag.Int64("seed", 1, "population and drop seed")
	flag.Parse()

	if err := run(*subscribers, *days, *population, *queue, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(subscribers, days, population, queue int, seed int64) error {
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 8}
	clock := simtime.NewSimClock(day.At(9, 0, 0))
	var (
		rng     *rand.Rand
		sponsor int
		seedErr error
	)
	const local = "127.0.0.1:0"
	n, err := node.Open(node.Config{
		EPP: local, RDAP: local, WHOIS: local, Scope: local, Oracle: local, DNS: local, ZoneFile: local,
		Seed:          seed,
		SnapshotEvery: time.Hour, // memory-only: nothing to snapshot
		FeedQueue:     queue,
		Clock:         clock,
	}, func(store *registry.Store, dir *registrars.Directory, r *rand.Rand, _ time.Time) {
		rng, sponsor = r, dir.Accreditations(registrars.SvcDropCatch)[0]
		for i := 0; i < population; i++ {
			name := fmt.Sprintf("feedpop%05d.com", i)
			updated := day.AddDays(-35).At(6, 30, i%60)
			status, deleteDay := model.StatusActive, simtime.Day{}
			if i%2 == 0 {
				status, deleteDay = model.StatusPendingDelete, day.AddDays(rng.Intn(3))
			}
			if _, err := store.SeedAt(name, sponsor, updated.AddDate(-2, 0, 0), updated,
				updated.AddDate(1, 0, 0), status, deleteDay); err != nil && seedErr == nil {
				seedErr = err
			}
		}
	})
	if err != nil {
		return err
	}
	defer n.Close()
	if seedErr != nil {
		return seedErr
	}
	store, hub := n.Store(), n.Feed()
	base := "http://" + n.Addr("pending-delete list").String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mirrors []*feed.Mirror
		wg      sync.WaitGroup
		errMu   sync.Mutex
		subErrs []error
	)
	// spawn attaches one subscriber: prime a mirror from the full list, then
	// stream from the mirror's cursor. since=0 joiners deliberately present a
	// stale cursor so the server's ring-replay and reset paths execute.
	spawn := func(stale bool) error {
		m := feed.NewMirror()
		if _, err := feed.FetchFull(ctx, nil, base, m); err != nil {
			return err
		}
		since := int64(m.Cursor())
		if stale {
			since = 0
		}
		sub, err := feed.Subscribe(ctx, nil, base, since, m)
		if err != nil {
			return err
		}
		mirrors = append(mirrors, m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			for {
				if _, err := sub.Next(); err != nil {
					if ctx.Err() == nil {
						errMu.Lock()
						subErrs = append(subErrs, err)
						errMu.Unlock()
					}
					return
				}
			}
		}()
		return nil
	}

	// First wave joins before any mutation; later waves join between Drop
	// days at whatever generation the feed has reached by then.
	wave := subscribers / (days + 1)
	if wave < 1 {
		wave = 1
	}
	join := func(n int) error {
		for i := 0; i < n && len(mirrors) < subscribers; i++ {
			if err := spawn(i%4 == 0); err != nil {
				return err
			}
		}
		return nil
	}
	if err := join(wave); err != nil {
		return err
	}

	runner := registry.NewDropRunner(store, registry.DefaultDropConfig())
	var purged []string
	for d := 0; d < days; d++ {
		when := day.AddDays(d)
		clock.Set(when.At(10, 0, 0))

		// Churn ahead of the drop: marks move names into (or around) the
		// published window, renews pull them back out.
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("feedpop%05d.com", rng.Intn(population))
			if i%3 == 0 {
				store.Renew(name, sponsor, 1)
			} else {
				store.MarkPendingDelete(name, clock.Now(), when.AddDays(1+rng.Intn(2)))
			}
		}

		events, err := runner.Run(when, rng)
		if err != nil {
			return err
		}
		for _, ev := range events {
			purged = append(purged, ev.Name)
		}

		// Re-registration flaps: caught at the drop, some immediately marked
		// for deletion again by the new owner.
		for i := 0; i < 5 && len(purged) > 0; i++ {
			name := purged[len(purged)-1]
			purged = purged[:len(purged)-1]
			if _, err := store.CreateAt(name, sponsor, 1, clock.Now()); err != nil {
				return err
			}
			if i%2 == 0 {
				if err := store.MarkPendingDelete(name, clock.Now(), when.AddDays(1)); err != nil {
					return err
				}
			}
		}

		if err := join(wave); err != nil {
			return err
		}
	}

	// Settle: every broadcast applied by the hub, then every mirror caught up
	// to the final cursor.
	hub.Quiesce()
	target := hub.Cursor()
	deadline := time.Now().Add(15 * time.Second)
	for _, m := range mirrors {
		for m.Cursor() < target {
			if time.Now().After(deadline) {
				return fmt.Errorf("FAIL: mirror stuck at cursor %d, feed at %d", m.Cursor(), target)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	cancel()
	wg.Wait()
	if len(subErrs) > 0 {
		return fmt.Errorf("FAIL: %d subscriber stream errors, first: %v", len(subErrs), subErrs[0])
	}

	// The audit: every cursor-applied mirror must render the server's full
	// list byte-identically.
	truth := feed.NewMirror()
	if _, err := feed.FetchFull(context.Background(), nil, base, truth); err != nil {
		return err
	}
	want := render(truth.Items())
	var diverged []int
	for i, m := range mirrors {
		if render(m.Items()) != want {
			diverged = append(diverged, i)
		}
	}
	if len(diverged) > 0 {
		i := diverged[0]
		return fmt.Errorf("FAIL: %d/%d mirrors diverged; subscriber %d at cursor %d:\nmirror:\n%sserver:\n%s",
			len(diverged), len(mirrors), i, mirrors[i].Cursor(), render(mirrors[i].Items()), want)
	}
	if err := n.Close(); err != nil {
		return err
	}

	m := hub.Metrics()
	lag := hub.FanoutLag()
	fmt.Printf("feed: %d records in %d batches, %d ops; %d subscribers (slow_drops=%d resumes=%d resets=%d)\n",
		m.Records, m.Batches, m.Ops, m.SubscribersTotal, m.SlowDrops, m.Resumes, m.Resets)
	fmt.Printf("fan-out lag (%d deliveries) p50=%v p99=%v\n",
		lag.Requests, lag.P50().Round(time.Microsecond), lag.P99().Round(time.Microsecond))
	fmt.Printf("PASS: %d mirrors byte-identical to the server list (%d names pending) after %d drop days\n",
		len(mirrors), truth.Len(), days)
	return nil
}

func render(items []feed.Item) string {
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%s,%s\n", it.Name, it.Day)
	}
	return b.String()
}
