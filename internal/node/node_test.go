package node

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/feed"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// dueName is seeded in redemption two days short of its pendingDelete
// transition, so a lifecycle tick after a three-day clock advance moves it
// onto the pending-delete list and notifies its sponsor.
const dueName = "promoteme.com"

func testConfig(t *testing.T, clock simtime.Clock) Config {
	t.Helper()
	return Config{
		EPP: "127.0.0.1:0", RDAP: "127.0.0.1:0", WHOIS: "127.0.0.1:0", Scope: "127.0.0.1:0",
		Oracle: "127.0.0.1:0", DNS: "127.0.0.1:0", ZoneFile: "127.0.0.1:0",
		Seed:          1,
		DataDir:       t.TempDir(),
		Durability:    journal.ModeSync,
		SnapshotEvery: time.Hour,
		FeedRing:      1 << 20,
		FeedQueue:     64,
		Clock:         clock,
	}
}

func seedDue(store *registry.Store, dir *registrars.Directory, _ *rand.Rand, now time.Time) {
	sponsor := dir.Accreditations(registrars.SvcGoDaddy)[0]
	updated := now.AddDate(0, 0, 2-registry.DefaultLifecycleConfig().RedemptionDays)
	if _, err := store.SeedAt(dueName, sponsor, now.AddDate(-3, 0, 0), updated, updated.AddDate(0, 0, -35), model.StatusRedemption, simtime.Day{}); err != nil {
		panic(err)
	}
}

func eppCreate(t *testing.T, n *Node, name string) error {
	t.Helper()
	c, err := epp.Dial(n.Addr("EPP").String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := n.dir.Accreditations(registrars.Svc1API)[0]
	if err := c.Login(id, n.dir.Credential(id)); err != nil {
		t.Fatal(err)
	}
	_, err = c.Create(name, 1)
	return err
}

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func hasItem(m *feed.Mirror, name string) bool {
	for _, it := range m.Items() {
		if it.Name == name {
			return true
		}
	}
	return false
}

// publishedVars are the expvar names README documents, per Vars section.
var publishedVars = map[string][]string{
	"journal": {"wal_bytes", "wal_fsyncs", "wal_error", "snapshot_age_seconds",
		"recovery_replayed_records", "recovery_seconds", "recovery_replay_rps"},
	"feed": {"cursor", "records", "batches", "ops", "subscribers", "subscribers_total",
		"slow_drops", "resumes", "resets", "delta_requests", "full_requests", "event_requests",
		"ring_segments", "ring_bytes", "pending", "cache_hits", "cache_miss",
		"fanout_lag_p50_ms", "fanout_lag_p99_ms", "fanout_lag_p999_ms", "fanout_deliveries"},
	"repl_source": {"followers", "min_acked_seq", "shipped_records", "shipped_bytes",
		"snapshots_sent", "connects"},
	"repl_follower": {"applied_seq", "primary_seq", "seq_lag", "peak_seq_lag",
		"peak_time_lag_ms", "time_lag_p50_ms", "time_lag_p99_ms", "records", "batches",
		"snapshots", "reconnects", "log_bytes"},
	"epp": {"connections", "commands", "codes"},
}

// checkVars asserts that n's published Vars carry exactly the documented
// names in each of sections.
func checkVars(t *testing.T, role string, n *Node, sections ...string) {
	t.Helper()
	raw, err := json.Marshal(n.Vars())
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]map[string]any
	if err := json.Unmarshal(raw, &vars); err != nil {
		t.Fatal(err)
	}
	for _, section := range sections {
		got, want := vars[section], publishedVars[section]
		if got == nil {
			t.Errorf("%s: Vars() has no %q", role, section)
			continue
		}
		for _, k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: Vars()[%q] has no %q", role, section, k)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: Vars()[%q] has %d names, want %d: %v", role, section, len(got), len(want), got)
		}
	}
}

// A promoted replica runs the subsystems a booted primary runs: it accepts
// writes, serves /deltas and /events, fills the EPP poll queue and serves
// followers of its own.
func TestPromotedReplicaRunsThePrimaryStack(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, time.January, 8, 12, 0, 0, 0, time.UTC))

	pcfg := testConfig(t, clock)
	pcfg.ListenReplication = "127.0.0.1:0"
	pcfg.SyncFollowers = 1
	// A fresh semi-sync primary seeds with no follower connected: seeding
	// must not wait for a quorum.
	primary, err := Open(pcfg, seedDue)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	checkVars(t, "primary", primary, "journal", "feed", "repl_source", "epp")

	rcfg := testConfig(t, clock)
	rcfg.ReplicateFrom = primary.Addr("replication").String()
	rcfg.ListenReplication = "127.0.0.1:0"
	replica, err := Open(rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// The semi-sync ack needs the replica, so this create also proves it
	// is connected and acknowledging.
	if err := eppCreate(t, primary, "beforefailover.com"); err != nil {
		t.Fatalf("create on the primary: %v", err)
	}
	if err := eppCreate(t, replica, "onreplica.com"); err == nil {
		t.Fatal("an unpromoted replica accepted a create")
	}
	last := primary.primary.Load().jnl.LastSeq()
	waitFor(t, "the replica to catch up", func() bool { return replica.follower.AppliedSeq() >= last })
	// The replica joined a fresh primary, so it bootstrapped from the
	// snapshot Open took of the seed rather than replaying it from the WAL.
	if sent := primary.primary.Load().source.Metrics().SnapshotsSent; sent != 1 {
		t.Errorf("primary sent %d snapshots to the joining replica, want 1", sent)
	}

	if err := primary.Close(); err != nil {
		t.Fatalf("closing the primary: %v", err)
	}
	if err := replica.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := replica.Promote(); err != ErrNotReplica {
		t.Errorf("second Promote = %v, want ErrNotReplica", err)
	}
	checkVars(t, "promoted replica", replica, "journal", "feed", "repl_source", "repl_follower", "epp")

	if err := eppCreate(t, replica, "afterfailover.com"); err != nil {
		t.Fatalf("create on the promoted replica: %v", err)
	}

	// Feed: a mirror and a live stream opened after promotion both see the
	// post-promotion pending-delete change.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	base := "http://" + replica.Addr("pending-delete list").String()
	polled, streamed := feed.NewMirror(), feed.NewMirror()
	cursor, err := feed.FetchFull(ctx, http.DefaultClient, base, polled)
	if err != nil {
		t.Fatalf("/deltas/full on the promoted replica: %v", err)
	}
	if hasItem(polled, dueName) {
		t.Fatalf("%s listed before its transition", dueName)
	}
	streamed.ResetFull(polled.Items(), cursor)
	sub, err := feed.Subscribe(ctx, nil, base, int64(cursor), streamed)
	if err != nil {
		t.Fatalf("/events on the promoted replica: %v", err)
	}
	defer sub.Close()

	clock.Advance(3 * 24 * time.Hour)
	p := replica.primary.Load()
	k := 0
	for _, lc := range p.lcs {
		k += lc.Tick(clock.Now())
	}
	if k == 0 {
		t.Fatal("the promoted replica's lifecycle made no transition")
	}
	waitFor(t, "/deltas to list "+dueName, func() bool {
		if _, err := feed.SyncDeltas(ctx, http.DefaultClient, base, polled); err != nil {
			t.Fatalf("/deltas: %v", err)
		}
		return hasItem(polled, dueName)
	})
	for !hasItem(streamed, dueName) {
		if _, err := sub.Next(); err != nil {
			t.Fatalf("/events ended before listing %s: %v", dueName, err)
		}
	}

	// Poll: the transition's observer event reached the sponsor's queue.
	d, err := replica.store.Get(dueName)
	if err != nil {
		t.Fatal(err)
	}
	if msg, _, ok := replica.poll.Peek(d.RegistrarID); !ok || !strings.Contains(msg.Text, dueName) {
		t.Fatalf("poll queue of registrar %d = %+v, %v; want the %s transition", d.RegistrarID, msg, ok, dueName)
	}

	// Source: a fresh follower bootstraps from the promoted node.
	fstore := registry.NewStore(clock)
	f, err := repl.NewFollower(fstore, repl.FollowerConfig{Dir: t.TempDir(), Addr: replica.Addr("replication").String()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start()
	last = p.jnl.LastSeq()
	waitFor(t, "a fresh follower to reach the promoted node's LastSeq", func() bool {
		if err := f.Err(); err != nil {
			t.Fatalf("follower: %v", err)
		}
		return f.AppliedSeq() >= last
	})
	for _, name := range []string{"beforefailover.com", "afterfailover.com"} {
		if _, err := fstore.Get(name); err != nil {
			t.Errorf("fresh follower lacks %s: %v", name, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"primary", func(c *Config) {}, true},
		{"semi-sync primary", func(c *Config) { c.ListenReplication = ":0"; c.SyncFollowers = 1 }, true},
		{"semi-sync over an async WAL", func(c *Config) {
			c.Durability = journal.ModeAsync
			c.ListenReplication = ":0"
			c.SyncFollowers = 1
		}, false},
		{"semi-sync without a listener", func(c *Config) { c.SyncFollowers = 1 }, false},
		{"listener without a journal", func(c *Config) { c.Durability = journal.ModeOff; c.ListenReplication = ":0" }, false},
		{"replica", func(c *Config) { c.ReplicateFrom = "127.0.0.1:1" }, true},
		{"replica that serves followers once promoted", func(c *Config) {
			c.ReplicateFrom = "127.0.0.1:1"
			c.ListenReplication = ":0"
		}, true},
		{"unjournaled replica", func(c *Config) { c.ReplicateFrom = "127.0.0.1:1"; c.Durability = journal.ModeOff }, false},
		{"replica without a data directory", func(c *Config) { c.ReplicateFrom = "127.0.0.1:1"; c.DataDir = "" }, false},
		{"replica with zones", func(c *Config) {
			c.ReplicateFrom = "127.0.0.1:1"
			c.Zones = []zone.Config{zone.Default()}
		}, false},
		{"no snapshot interval", func(c *Config) { c.SnapshotEvery = 0 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{DataDir: "data", Durability: journal.ModeSync, SnapshotEvery: time.Minute}
			tc.edit(&cfg)
			if err := cfg.validate(); (err == nil) != tc.ok {
				t.Fatalf("validate() = %v, want ok %v", err, tc.ok)
			}
		})
	}
}
