package repl

import (
	"fmt"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// TestReplicaCarriesZones: zone additions ship through the replication
// stream like any other mutation — via a multi-zone (v3) snapshot bootstrap
// AND via the live WAL tail — and the replica ends up hosting the same
// zones, serving the extra zones' domains byte-identically at the same
// generation.
func TestReplicaCarriesZones(t *testing.T) {
	store, jnl := newPrimary(t, t.TempDir())
	defer jnl.Close()
	names := seedPrimary(t, store, 60)

	// Zone one lands before the snapshot (ships inside the snapshot's zone table);
	// zone two lands after (ships as a WAL-tail MutAddZone record).
	preSnap := zone.Config{
		Name: "nordic", TLDs: []model.TLD{"se", "nu"},
		Lifecycle: zone.DefaultLifecycleConfig(),
		Drop:      zone.DropConfig{StartHour: 4},
		Policy:    zone.PolicyInstant,
	}
	if err := store.AddZone(preSnap); err != nil {
		t.Fatal(err)
	}
	at := testStart.At(5, 0, 0)
	for i := 0; i < 10; i++ {
		if _, err := store.CreateAt(fmt.Sprintf("snapzone-%02d.se", i), testRegistrar, 1, at); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	postSnap := zone.Config{
		Name: "shuffle", TLDs: []model.TLD{"io"},
		Lifecycle: zone.DefaultLifecycleConfig(),
		Drop:      zone.DefaultDropConfig(),
		Policy:    zone.PolicyRandom,
		Salt:      31,
	}
	if err := store.AddZone(postSnap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := store.CreateAt(fmt.Sprintf("tailzone-%02d.io", i), testRegistrar, 1, at.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}

	src := NewSource(jnl, SourceConfig{})
	defer src.Close()
	fstore := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
	f, err := NewFollower(fstore, FollowerConfig{
		Dir:  t.TempDir(),
		Dial: pipeDialer(src, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start()
	waitApplied(t, f, jnl.LastSeq())

	if pg, fg := store.Generation(), fstore.Generation(); pg != fg {
		t.Fatalf("generation diverged: primary %d, replica %d", pg, fg)
	}
	for _, zn := range []string{"core", "nordic", "shuffle"} {
		pz, pok := store.ZoneByName(zn)
		fz, fok := fstore.ZoneByName(zn)
		if !pok || !fok {
			t.Fatalf("zone %s: primary=%v replica=%v", zn, pok, fok)
		}
		if pz.Policy != fz.Policy || pz.Salt != fz.Salt || len(pz.TLDs) != len(fz.TLDs) {
			t.Fatalf("zone %s diverged: primary %+v, replica %+v", zn, pz, fz)
		}
	}
	if !fstore.HostsTLD("nu") || !fstore.HostsTLD("io") {
		t.Fatal("replica missing zone TLDs")
	}

	sample := append([]string{}, names[:4]...)
	sample = append(sample, "snapzone-00.se", "snapzone-09.se", "tailzone-00.io", "tailzone-09.io")
	diffSurfaces(t, renderSurfaces(t, store, sample), renderSurfaces(t, fstore, sample))

	// The replica must accept further extra-zone traffic shipped live.
	if _, err := store.CreateAt("late.nu", testRegistrar, 1, at.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, f, jnl.LastSeq())
	d, err := fstore.Get("late.nu")
	if err != nil || d.TLD != "nu" {
		t.Fatalf("replica missing live extra-zone create: %+v, %v", d, err)
	}
}
