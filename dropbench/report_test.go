package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"dropzero/internal/loadgen"
	"dropzero/internal/zone"
)

func mustZones(t *testing.T) []zone.Config {
	t.Helper()
	zs, err := zone.ParseSpecs(recoveryZone)
	if err != nil {
		t.Fatal(err)
	}
	return zs
}

// TestPercentileRule: a tail percentile prints only with at least ten
// samples beyond it; the median always prints; both carry the count.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		p    float64
		want bool
	}{
		{0, 50, false},
		{1, 50, true},
		{3, 50, true},
		{100, 99, false},
		{950, 99, false}, // nearest rank 941: 9 beyond
		{951, 99, true},  // nearest rank 941: 10 beyond
		{1000, 99, true},
		{9000, 99.9, false},
		{10000, 99.9, true},
		{19, 50, true},
	} {
		if got := printable(tc.n, tc.p); got != tc.want {
			t.Errorf("printable(%d, p%g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	// beyond agrees with a brute-force count over the nearest-rank sample.
	for n := uint64(1); n < 1024; n += 3 { // below 1.024 ms the histogram is exact
		var h loadgen.Hist
		for i := uint64(1); i <= n; i++ {
			h.Record(time.Duration(i) * time.Microsecond)
		}
		at := h.Percentile(99)
		var above uint64
		for i := uint64(1); i <= n; i++ {
			if time.Duration(i)*time.Microsecond > at {
				above++
			}
		}
		if b := beyond(n, 99); b != above {
			t.Fatalf("n=%d: beyond=%d, %d samples lie above p99=%v", n, b, above, at)
		}
	}

	var h loadgen.Hist
	for i := 0; i < 500; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	r := &report{}
	r.addPct("x_p50_ms", &h, 50, ms, "ms")
	r.addPct("x_p99_ms", &h, 99, ms, "ms")
	var buf bytes.Buffer
	r.print(&buf)
	out := buf.String()
	if !strings.Contains(out, "x_p50_ms") || !strings.Contains(out, "(n=500)") {
		t.Errorf("median line lacks its value or count:\n%s", out)
	}
	if !strings.Contains(out, "n/a ms     (n=500, fewer than 10 samples beyond)") {
		t.Errorf("p99 of 500 samples was not refused:\n%s", out)
	}
}

// TestBenchmarkJSON: the repository's BENCHMARK.json lists exactly the
// gated workloads and the metrics this program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range cfg.Workloads {
		ws = append(ws, w.Name)
	}
	var want []string
	for _, w := range workloads {
		if w.gated {
			want = append(want, w.name)
		}
	}
	if !slices.Equal(ws, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", ws, want)
	}
	var e2e []string
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, endToEnd)
	}
	if len(cfg.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program prints %d", len(cfg.PerLayer), len(perLayer))
	}
	for i, m := range cfg.PerLayer {
		l := perLayer[i]
		if m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, l)
		}
	}
}
