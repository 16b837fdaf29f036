package repl

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/inproc"
	"dropzero/internal/journal"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

// benchPrimary builds a primary with n seeded domains plus a churn burst,
// using an async journal so setup is group-committed, then syncs.
func benchPrimary(b *testing.B, dir string, n int) (*registry.Store, *journal.Journal, []string) {
	b.Helper()
	store := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
	jnl, _, err := journal.Open(store, journal.Options{Dir: dir, Mode: journal.ModeAsync})
	if err != nil {
		b.Fatal(err)
	}
	store.SetJournal(jnl)
	store.AddRegistrar(model.Registrar{IANAID: testRegistrar, Name: "Repl Bench Registrar"})
	names := make([]string, 0, n)
	dropDay := testStart.AddDays(3)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("repl-bench-%06d.com", i)
		at := testStart.At(1, 0, i%60)
		if _, err := store.CreateAt(name, testRegistrar, 1, at); err != nil {
			b.Fatal(err)
		}
		if i%5 == 0 {
			if err := store.MarkPendingDelete(name, at.Add(time.Hour), dropDay); err != nil {
				b.Fatal(err)
			}
		}
		names = append(names, name)
	}
	at := testStart.At(5, 0, 0)
	for _, name := range names {
		if err := store.TouchAt(name, testRegistrar, at); err != nil {
			b.Fatal(err)
		}
	}
	if err := jnl.Sync(); err != nil {
		b.Fatal(err)
	}
	return store, jnl, names
}

// BenchmarkReplicationCatchup measures end-to-end shipped-log throughput: a
// fresh follower bootstrapping the primary's full history over an
// in-process pipe — frame validation, local persistence with fsync, and
// batched apply included. The acceptance floor for the apply loop alone is
// 200k records/sec (BenchmarkReplicaApply in internal/registry); this
// number includes the wire and the disk.
func BenchmarkReplicationCatchup(b *testing.B) {
	const domains = 40_000 // ~80k records with the touch burst
	_, jnl, _ := benchPrimary(b, b.TempDir(), domains)
	defer jnl.Close()
	src := NewSource(jnl, SourceConfig{})
	defer src.Close()
	total := jnl.LastSeq()

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		fstore := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
		f, err := NewFollower(fstore, FollowerConfig{Dir: b.TempDir(), Dial: pipeDialer(src, nil)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		f.Start()
		for f.AppliedSeq() < total {
			if err := f.Err(); err != nil {
				b.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
		b.ReportMetric(float64(total)/time.Since(t0).Seconds(), "records/sec")
		b.StopTimer()
		f.Close()
		b.StartTimer()
	}
}

// BenchmarkReplicaBootstrap measures a fresh replica's time-to-first-serve
// through the snapshot path: the primary holds a snapshot covering ~95%
// of its history plus a WAL tail, and the follower must ship the snapshot,
// restore it in parallel, then catch up the tail before it counts as a hot
// spare. Contrast with BenchmarkReplicationCatchup, which replays the whole
// history record by record.
func BenchmarkReplicaBootstrap(b *testing.B) {
	const domains = 40_000
	store, jnl, names := benchPrimary(b, b.TempDir(), domains)
	defer jnl.Close()
	if err := jnl.Snapshot(nil); err != nil {
		b.Fatal(err)
	}
	at := testStart.At(6, 0, 0)
	for i := 0; i < 4_000; i++ {
		if err := store.TouchAt(names[i%len(names)], testRegistrar, at); err != nil {
			b.Fatal(err)
		}
	}
	if err := jnl.Sync(); err != nil {
		b.Fatal(err)
	}
	src := NewSource(jnl, SourceConfig{})
	defer src.Close()
	total := jnl.LastSeq()

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		fstore := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
		f, err := NewFollower(fstore, FollowerConfig{Dir: b.TempDir(), Dial: pipeDialer(src, nil)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		f.Start()
		for f.AppliedSeq() < total {
			if err := f.Err(); err != nil {
				b.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
		ttfs := time.Since(t0)
		b.ReportMetric(ttfs.Seconds()*1000, "ttfs_ms")
		b.ReportMetric(float64(domains)/ttfs.Seconds(), "domains/sec")
		b.StopTimer()
		f.Close()
		b.StartTimer()
	}
}

// replicaSurfaces bundles one replica's read handlers.
type replicaSurfaces struct {
	rdap  *http.Client
	scope *http.Client
	whois *whois.Server
}

func newSurfaces(store *registry.Store) replicaSurfaces {
	return replicaSurfaces{
		rdap:  inproc.Client(rdap.NewServer(store, rdap.ServerConfig{}).Handler()),
		scope: inproc.Client(dropscope.NewServer(store).Handler()),
		whois: whois.NewServer(store),
	}
}

// drainGet issues one GET and discards the body.
func drainGet(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode >= 500 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// whoisQuery performs one WHOIS exchange over an in-process pipe.
func whoisQuery(srv *whois.Server, name string) error {
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
		return err
	}
	_, err := io.Copy(io.Discard, client)
	client.Close()
	<-done
	return err
}

// BenchmarkReplicaReadScaling measures read-mix throughput against one and
// two caught-up replicas while the primary keeps mutating (the replicas
// keep applying, so response caches keep invalidating — the Drop-second
// shape, where read scaling actually matters). Reported metrics:
// rps_1replica, rps_2replica and scaling_x = the ratio.
func BenchmarkReplicaReadScaling(b *testing.B) {
	const domains = 8_000
	store, jnl, names := benchPrimary(b, b.TempDir(), domains)
	defer jnl.Close()
	src := NewSource(jnl, SourceConfig{})
	defer src.Close()

	newReplica := func() (*Follower, *registry.Store) {
		fstore := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
		f, err := NewFollower(fstore, FollowerConfig{
			Dir: b.TempDir(), Dial: pipeDialer(src, nil),
			AckWithoutFsync: true, // read replicas, never promoted
		})
		if err != nil {
			b.Fatal(err)
		}
		f.Start()
		for f.AppliedSeq() < jnl.LastSeq() {
			time.Sleep(time.Millisecond)
		}
		return f, fstore
	}
	f1, fstore1 := newReplica()
	defer f1.Close()
	f2, fstore2 := newReplica()
	defer f2.Close()
	surfaces := []replicaSurfaces{newSurfaces(fstore1), newSurfaces(fstore2)}

	// Background churn on the primary for the duration of the benchmark:
	// the replicas tail it, so their generations advance and cached
	// responses expire like they would during a real Drop window.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		at := testStart.At(8, 0, 0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := store.TouchAt(names[i%len(names)], testRegistrar, at); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	workers := runtime.GOMAXPROCS(0) * 2
	const total = 24_000
	day := testStart.AddDays(3).String()
	runAgainst := func(replicas []replicaSurfaces) float64 {
		var rr atomic.Uint64
		pick := func() replicaSurfaces {
			return replicas[int(rr.Add(1))%len(replicas)]
		}
		mix := []loadgen.MixItem{
			{Name: "rdap", Weight: 6, Fn: func(i int) error {
				return drainGet(pick().rdap, "http://replica/domain/"+names[i%len(names)])
			}},
			{Name: "whois", Weight: 3, Fn: func(i int) error {
				return whoisQuery(pick().whois, names[(i*7)%len(names)])
			}},
			{Name: "dropscope", Weight: 1, Fn: func(i int) error {
				return drainGet(pick().scope, "http://replica/pendingdelete?date="+day)
			}},
		}
		res, err := loadgen.RunMix(workers, total, mix)
		if err != nil {
			b.Fatal(err)
		}
		if res.Combined.Errors > 0 {
			b.Fatalf("%d read errors during mix", res.Combined.Errors)
		}
		return res.Combined.RPS()
	}

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rps1 := runAgainst(surfaces[:1])
		rps2 := runAgainst(surfaces)
		b.ReportMetric(rps1, "rps_1replica")
		b.ReportMetric(rps2, "rps_2replica")
		b.ReportMetric(rps2/rps1, "scaling_x")
	}
}
