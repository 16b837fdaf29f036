package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"dropzero/internal/loadgen"
)

// minBeyond is the percentile rule: a tail percentile (above the median) is
// printed only when at least this many samples lie beyond it, so a tail
// figure never rests on a handful of observations. The median is always
// printed, with its sample count.
const minBeyond = 10

// beyond returns how many of n samples lie above the p-th percentile, using
// the nearest-rank rank loadgen.Hist reads the percentile at.
func beyond(n uint64, p float64) uint64 {
	rank := uint64(p/100*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank >= n {
		return 0
	}
	return n - rank
}

// printable reports whether the p-th percentile of n samples may be printed.
func printable(n uint64, p float64) bool {
	if p <= 50 {
		return n > 0
	}
	return beyond(n, p) >= minBeyond
}

// pct reads percentile p of h in the given unit, and whether the percentile
// rule allows printing it. A refused percentile reads as 0.
func pct(h *loadgen.Hist, p float64, unit time.Duration) (float64, bool) {
	if !printable(h.Count(), p) {
		return 0, false
	}
	return float64(h.Percentile(p)) / float64(unit), true
}

// metric is one reported figure.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples uint64 // observations behind Value; 0 for counters and ratios
	Refused bool   // percentile rule refused it: Value is 0
}

// report accumulates one run's metrics and prints them.
type report struct {
	metrics []metric
	notes   []string
}

func (r *report) add(name string, v float64, unit string, samples uint64) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, Samples: samples})
}

// addPct adds percentile p of h, honouring the percentile rule.
func (r *report) addPct(name string, h *loadgen.Hist, p float64, unit time.Duration, unitName string) {
	v, ok := pct(h, p, unit)
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unitName, Samples: h.Count(), Refused: !ok})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// get returns the metric named name.
func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes the human-readable lines: notes, then one line per metric
// with its unit and sample count.
func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range r.metrics {
		switch {
		case m.Refused:
			fmt.Fprintf(w, "%-34s %14s %-6s (n=%d, fewer than %d samples beyond)\n", m.Name, "n/a", m.Unit, m.Samples, minBeyond)
		case m.Samples > 0:
			fmt.Fprintf(w, "%-34s %14.4f %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
		default:
			fmt.Fprintf(w, "%-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the JSON result carrying exactly the named metrics.
func resultLine(r *report, names []string, correct bool, attempted, failed uint64) ([]byte, error) {
	out := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, n := range names {
		m, ok := r.get(n)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		out.Metrics[n] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(out)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const (
	us = time.Microsecond
	ms = time.Millisecond
)
