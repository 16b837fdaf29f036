package main

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// TestRecoverySurfacesDifferential: a store recovered with the pipelined
// parallel replayer must render every read surface — RDAP bodies and ETags,
// WHOIS replies, the dropscope pending-delete list — byte-identical to the
// sequentially recovered twin and to the original store. Three seeds, with a
// snapshot plus a WAL tail that includes a Drop, so purge ordering (the
// archive rank order dropscope exposes) is covered too. Run under -race this
// doubles as the synchronisation check on the replay pipeline.
func TestRecoverySurfacesDifferential(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 8}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			clock := simtime.NewSimClock(day.At(18, 0, 0))
			store := registry.NewStoreWithShards(clock, 8)
			jnl, _, err := journal.Open(store, journal.Options{Dir: dir, Mode: journal.ModeSync})
			if err != nil {
				t.Fatal(err)
			}
			store.SetJournal(jnl)
			store.AddRegistrar(model.Registrar{IANAID: seedRegistrar, Name: "Recovery Diff Seeder"})
			store.AddRegistrar(model.Registrar{IANAID: catchRegistrar, Name: "Recovery Diff Catcher"})
			rng := rand.New(rand.NewSource(seed))
			var names, dropping []string
			for i := 0; i < 150; i++ {
				name := fmt.Sprintf("rsurf-%04d.com", i)
				at := day.AddDays(-40).At(6, 0, i%60)
				if _, err := store.CreateAt(name, seedRegistrar, 1+rng.Intn(3), at); err != nil {
					t.Fatal(err)
				}
				if i%4 == 0 {
					if err := store.MarkPendingDelete(name, at.Add(time.Hour), day); err != nil {
						t.Fatal(err)
					}
					dropping = append(dropping, name)
				} else {
					names = append(names, name)
				}
			}
			if err := jnl.Snapshot(nil); err != nil {
				t.Fatal(err)
			}
			// The WAL tail: fresh creates plus the Drop itself, so replay has
			// to reproduce purge order, re-registrations and new IDs.
			for i := 0; i < 25; i++ {
				if _, err := store.CreateAt(fmt.Sprintf("rsurf-tail-%03d.com", i), catchRegistrar, 1, day.At(18, 30, i)); err != nil {
					t.Fatal(err)
				}
			}
			clock.Set(day.At(19, 0, 0))
			runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 20})
			if _, err := runner.Run(day, rng); err != nil {
				t.Fatal(err)
			}
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}

			sample := append([]string{}, names[:8]...)
			sample = append(sample, dropping[:4]...)
			want, err := renderSurfaces(store, sample, day)
			if err != nil {
				t.Fatalf("render original: %v", err)
			}
			if len(want) != 26 {
				t.Fatalf("rendered %d surfaces, want 26", len(want))
			}

			recoverAndRender := func(parallelism int) (map[string]surface, uint64) {
				t.Helper()
				s2 := registry.NewStoreWithShards(simtime.NewSimClock(day.At(18, 0, 0)), 8)
				j2, rec, err := journal.Open(s2, journal.Options{
					Dir: dir, Mode: journal.ModeSync, RecoveryParallelism: parallelism,
				})
				if err != nil {
					t.Fatalf("recover (parallelism %d): %v", parallelism, err)
				}
				defer j2.Close()
				if rec.SnapshotSeq == 0 || rec.ReplayedRecords == 0 {
					t.Fatalf("recovery skipped a phase: %+v", rec)
				}
				got, err := renderSurfaces(s2, sample, day)
				if err != nil {
					t.Fatalf("render recovered (parallelism %d): %v", parallelism, err)
				}
				return got, s2.Generation()
			}
			gotSeq, genSeq := recoverAndRender(1)
			gotPar, genPar := recoverAndRender(8)

			if genSeq != store.Generation() || genPar != genSeq {
				t.Errorf("generation diverged: original=%d sequential=%d parallel=%d",
					store.Generation(), genSeq, genPar)
			}
			if err := diffSurfaces(want, gotSeq); err != nil {
				t.Errorf("sequential recovery diverges from original: %v", err)
			}
			if err := diffSurfaces(gotSeq, gotPar); err != nil {
				t.Errorf("parallel recovery diverges from sequential: %v", err)
			}
		})
	}
}
