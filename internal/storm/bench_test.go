package storm

import (
	"fmt"
	"testing"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// BenchmarkCreateStorm measures sustained create throughput under an
// open-loop arrival schedule — the registry-side cost of the Drop second.
// Arrivals are paced at 10k/s across 8 sessions; every create targets a
// fresh name so each one takes the full successful-registration path.
// ns/op is elapsed time over b.N, so it reads back the 100 µs pacing
// interval, not a latency; the create latencies, measured from the scheduled
// instant, are p99_ns and p99.9_ns. achieved_rps is the completion rate the
// server actually delivered.
func BenchmarkCreateStorm(b *testing.B) {
	for _, transport := range []string{"inproc", "tcp"} {
		b.Run(transport, func(b *testing.B) {
			clock := simtime.NewSimClock(time.Date(2018, time.March, 8, 19, 0, 0, 0, time.UTC))
			store := registry.NewStoreWithShards(clock, 8)
			const nSessions = 8
			creds := make(map[int]string)
			for i := 0; i < nSessions; i++ {
				id := 1000 + i
				store.AddRegistrar(model.Registrar{IANAID: id, Name: fmt.Sprintf("Bench %d", id)})
				creds[id] = fmt.Sprintf("tok-%d", id)
			}
			srv := epp.NewServer(store, clock, epp.ServerConfig{Credentials: creds})
			defer srv.Close()
			dial := func() (*epp.Client, error) { return srv.ConnectInProc(), nil }
			if transport == "tcp" {
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				dial = func() (*epp.Client, error) { return epp.Dial(addr.String()) }
			}
			sessions := make([]*epp.Client, nSessions)
			for i := range sessions {
				c, err := dial()
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if err := c.Login(1000+i, creds[1000+i]); err != nil {
					b.Fatal(err)
				}
				sessions[i] = c
			}

			names := make([]string, b.N)
			for i := range names {
				names[i] = fmt.Sprintf("storm%07d.com", i)
			}
			const offeredRPS = 10000
			sched := loadgen.UniformSchedule(b.N, time.Duration(b.N)*time.Second/offeredRPS)

			b.ReportAllocs()
			b.ResetTimer()
			res := loadgen.RunOpenLoop(sched, func(i int) (int, error) {
				_, err := sessions[i%nSessions].Create(names[i], 1)
				if err != nil {
					return 0, err
				}
				return epp.CodeOK, nil
			})
			b.StopTimer()
			if res.Errors != 0 {
				b.Fatalf("%d creates failed: %v", res.Errors, res.CodeCounts)
			}
			b.ReportMetric(res.AchievedRPS, "achieved_rps")
			b.ReportMetric(float64(res.P99().Nanoseconds()), "p99_ns")
			b.ReportMetric(float64(res.P999().Nanoseconds()), "p99.9_ns")
		})
	}
}
