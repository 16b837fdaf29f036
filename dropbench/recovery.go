package main

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// recovery: setup builds a data directory — a snapshot of a two-zone
// population (so the zone table is in the snapshot) plus a mixed WAL tail —
// and the measurement repeats cold restarts of a copy of it: journal.Open
// into a fresh store, then one Journal.Snapshot. The restart is what a
// registrar waits for and is the gated latency; ops_per_s is restored
// records per second of the whole cycle, restart plus the checkpoint a
// recovered server writes, so a slower snapshot writer moves it too.

const (
	recoveryDomains = 50_000
	recoveryTail    = 20_000
)

// recoveryZone is the extra zone beside the default .com/.net one.
const recoveryZone = "nordic=se+nu:instant@04:00"

type recovery struct {
	dir      string // the pristine data directory
	count    int
	gen      uint64
	samples  map[string]*model.Domain // nil value: must be absent
	lastSeq  uint64
	restored uint64 // records a restart restores: snapshot domains + tail
}

func prepareRecovery(seed int64) func(string) (instance, error) {
	p := genPopulation(seed, popSpec{Total: recoveryDomains, Pending: []int{4000, 4000}, Fresh: recoveryTail, ExtraTLD: "se"})
	tail := genTail(seed, p, recoveryTail)
	return func(dir string) (instance, error) {
		return buildRecovery(filepath.Join(dir, "pristine"), p, tail)
	}
}

// recoveryClock fixes the store clock so creates and renews in the WAL
// tail carry the same timestamps on every run.
func recoveryClock() simtime.Clock { return simtime.NewSimClock(dropDay.At(12, 0, 0)) }

func buildRecovery(dir string, p *population, tail []tailOp) (*recovery, error) {
	zs, err := zone.ParseSpecs(recoveryZone)
	if err != nil {
		return nil, err
	}
	store := registry.NewStoreWithShards(recoveryClock(), 0)
	jnl, _, err := journal.Open(store, journal.Options{Dir: dir, Mode: journal.ModeAsync})
	if err != nil {
		return nil, err
	}
	store.SetJournal(jnl)
	fail := func(err error) (*recovery, error) {
		store.SetJournal(nil)
		jnl.Close()
		return nil, err
	}
	if err := store.AddZone(zs[0]); err != nil {
		return fail(err)
	}
	if err := seedStore(store, p); err != nil {
		return fail(err)
	}
	if err := jnl.Snapshot(nil); err != nil {
		return fail(err)
	}
	snapSeq := jnl.LastSeq()
	runner := registry.NewDropRunner(store, registry.DefaultDropConfig())
	if err := applyTail(store, runner, tail); err != nil {
		return fail(err)
	}
	r := &recovery{dir: dir, count: store.Count(), gen: store.Generation(), lastSeq: jnl.LastSeq(), samples: map[string]*model.Domain{}}
	r.restored = uint64(len(p.Seeds)) + r.lastSeq - snapSeq
	sample := func(name string) {
		d, err := store.Get(name)
		if err != nil {
			d = nil
		}
		r.samples[name] = d
	}
	for i := 0; i < len(p.Seeds); i += 997 {
		sample(p.Seeds[i].Name)
	}
	for i := 0; i < len(tail); i += 101 {
		sample(tail[i].Name)
	}
	store.SetJournal(nil)
	if err := jnl.Close(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *recovery) close() error { return nil }

func (r *recovery) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := newPhase()
	var (
		read, decode, install, replay []float64
		snapBytes, rps, writes, opens []float64
		cycles                        []float64 // Open plus Snapshot
	)
	work := r.dir + ".work"
	start := time.Now()
	for cycle := 0; cycle < 3 || time.Since(start) < d; cycle++ {
		os.RemoveAll(work)
		if err := copyDir(r.dir, work); err != nil {
			return nil, err
		}
		runtime.GC()
		store := registry.NewStoreWithShards(recoveryClock(), 0)
		t0 := time.Now()
		jnl, rec, err := journal.Open(store, journal.Options{Dir: work, Mode: journal.ModeAsync})
		t1 := time.Now()
		ph.attempted++
		if err != nil {
			ph.fail("open: %v", err)
			continue
		}
		r.verify(ph, store, jnl)
		t2 := time.Now()
		err = jnl.Snapshot(nil)
		t3 := time.Now()
		if err != nil {
			ph.fail("snapshot: %v", err)
		}
		if err := jnl.Close(); err != nil {
			ph.fail("close: %v", err)
		}
		opens = append(opens, t1.Sub(t0).Seconds())
		ph.record(t1.Sub(t0))
		tm := rec.Timings
		read = append(read, tm.SnapshotRead.Seconds())
		decode = append(decode, tm.SnapshotDecode.Seconds())
		install = append(install, tm.SnapshotInstall.Seconds())
		replay = append(replay, tm.Replay.Seconds())
		rps = append(rps, rec.ReplayRPS())
		snapBytes = append(snapBytes, float64(rec.SnapshotBytes))
		writes = append(writes, t3.Sub(t2).Seconds())
		cycles = append(cycles, (t1.Sub(t0) + t3.Sub(t2)).Seconds())
		if tr != nil {
			// The phases come from Recovery.Timings as durations; they run in
			// this order, laid end to end from the start of Open.
			key, at := strconv.Itoa(cycle), since(tr, t0)
			tr.root("journal.open", key, roleRestart, true, at, since(tr, t1))
			for _, p := range []struct {
				name string
				d    time.Duration
			}{{"journal.snapshot_read", tm.SnapshotRead}, {"journal.snapshot_decode", tm.SnapshotDecode},
				{"journal.snapshot_install", tm.SnapshotInstall}, {"journal.replay", tm.Replay}} {
				tr.child(p.name, key, roleRestart, at, at+int64(p.d))
				at += int64(p.d)
			}
			tr.root("journal.snapshot", key, roleRestart, err == nil, since(tr, t2), since(tr, t3))
		}
	}
	os.RemoveAll(work)
	// One operation is one restored record; the rate is read at the median
	// cycle, not the mean, so one slow cycle does not move it.
	n := float64(len(cycles))
	ph.ops, ph.opsSecs = n*float64(r.restored), n*median(cycles)
	ph.layers = []metric{
		{Name: "journal.snapshot_read_s", Value: median(read), Unit: "s"},
		{Name: "journal.snapshot_decode_s", Value: median(decode), Unit: "s"},
		{Name: "journal.snapshot_install_s", Value: median(install), Unit: "s"},
		{Name: "journal.replay_s", Value: median(replay), Unit: "s"},
		{Name: "journal.replay_records_per_s", Value: median(rps), Unit: "1/s"},
		{Name: "journal.snapshot_bytes", Value: median(snapBytes), Unit: "B"},
		{Name: "journal.snapshot_write_s", Value: median(writes), Unit: "s"},
	}
	ph.note("restarts: %d cycles, %d records restored each (snapshot of %d domains + WAL tail)", len(opens), r.restored, recoveryDomains)
	ph.note("recovery_s = %.4f s (median of %d: %.3f)", median(opens), len(opens), opens)
	ph.note("snapshot_s = %.4f s (median of %d)", median(writes), len(writes))
	return ph, nil
}

// verify is the recovery gate: count, generation, last sequence and a
// sample of names equal their pre-close values.
func (r *recovery) verify(ph *phase, store *registry.Store, jnl *journal.Journal) {
	if got := store.Count(); got != r.count {
		ph.fail("recovered %d domains, want %d", got, r.count)
	}
	if got := store.Generation(); got != r.gen {
		ph.fail("recovered generation %d, want %d", got, r.gen)
	}
	if got := jnl.LastSeq(); got != r.lastSeq {
		ph.fail("recovered last seq %d, want %d", got, r.lastSeq)
	}
	if _, ok := store.ZoneByName("nordic"); !ok {
		ph.fail("recovered store lost zone nordic")
	}
	for name, want := range r.samples {
		got, err := store.Get(name)
		switch {
		case want == nil && err == nil:
			ph.fail("%s recovered but was purged", name)
		case want != nil && err != nil:
			ph.fail("%s lost: %v", name, err)
		case want != nil && !equalDomain(got, want):
			ph.fail("%s recovered as %+v, want %+v", name, *got, *want)
		}
	}
}

// copyDir makes dst a fresh copy of the regular files of src. Snapshot
// files are hard-linked, not copied: the journal never writes to an
// existing snapshot (a new one is written aside and renamed over), and
// linking keeps a cycle from writing megabytes the kernel must then flush
// on the benchmark's own CPUs. WAL segments are copied, since a reopened
// journal may create (and so truncate) a segment under an existing name.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if strings.HasSuffix(e.Name(), ".snap") {
			if err := os.Link(from, to); err != nil {
				return err
			}
			continue
		}
		if err := copyFile(from, to); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
