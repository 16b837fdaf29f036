package main

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"dropzero/internal/loadgen"
)

// Spans are recorded by the benchmark around its calls into each layer's
// public seam — the EPP/RDAP/WHOIS/list clients, DropRunner.Apply, and the
// registry.Journal and registry.Observer decorators the stack installs. They
// are kept in memory and linked after the run: a child belongs to the root
// of the same role and domain name whose interval contains it (the winning
// one when two sessions raced for the name).

// role says which kind of root a span belongs to.
type role uint8

const (
	roleCreate  role = iota + 1 // an EPP create and the mutation it committed
	rolePurge                   // a Drop deletion and the mutation it committed
	roleRead                    // a read request (roots only)
	roleRestart                 // a recovery cycle (roots only)
)

// span is one timed call. Start and End are nanoseconds since the tracer's
// epoch, read from the monotonic clock.
type span struct {
	Name       string
	Key        string
	Role       role
	Root       bool
	OK         bool // roots: the operation succeeded
	Start, End int64
	Parent     int32 // filled by link; -1 for roots and orphans
}

// tracer records spans. A nil tracer records nothing, so untraced runs pay
// only a nil check per seam.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now returns the current offset from the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	s.Parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root records a request-level span.
func (t *tracer) root(name, key string, r role, ok bool, start, end int64) {
	if t != nil {
		t.add(span{Name: name, Key: key, Role: r, Root: true, OK: ok, Start: start, End: end})
	}
}

// child records a layer span caused by the root of role r for key.
func (t *tracer) child(name, key string, r role, start, end int64) {
	if t != nil {
		t.add(span{Name: name, Key: key, Role: r, Start: start, End: end})
	}
}

// since converts a wall instant to the tracer's clock (0 without one).
func since(tr *tracer, t time.Time) int64 {
	if tr == nil {
		return 0
	}
	return int64(t.Sub(tr.epoch))
}

type linkKey struct {
	r   role
	key string
}

// link resolves every child's parent and returns how many children found
// none (a mutation no timed request caused).
func (t *tracer) link() (orphans int) {
	roots := make(map[linkKey][]int32)
	for i, s := range t.spans {
		if s.Root && s.Key != "" {
			k := linkKey{s.Role, s.Key}
			roots[k] = append(roots[k], int32(i))
		}
	}
	for i := range t.spans {
		c := &t.spans[i]
		if c.Root {
			continue
		}
		best := int32(-1)
		for _, ri := range roots[linkKey{c.Role, c.Key}] {
			r := t.spans[ri]
			if r.Start > c.Start || c.End > r.End {
				continue
			}
			if best < 0 || (r.OK && !t.spans[best].OK) {
				best = ri
			}
		}
		c.Parent = best
		if best < 0 {
			orphans++
		}
	}
	return orphans
}

// rootSelf is one root's duration split into self times: the root's own
// layer gets its duration minus what its children cover, each child the part
// of its interval no earlier child covered. The parts sum to the duration.
type rootSelf struct {
	Dur  int64
	Self map[string]int64
}

// selfTimes splits every successful root named name — on drop-storm, the
// creates that won. Call after link.
func (t *tracer) selfTimes(name, rootLayer string) []rootSelf {
	kids := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	var out []rootSelf
	for i, r := range t.spans {
		if !r.Root || !r.OK || r.Name != name {
			continue
		}
		ks := kids[int32(i)]
		slices.SortFunc(ks, func(a, b int32) int { return cmp.Compare(t.spans[a].Start, t.spans[b].Start) })
		rs := rootSelf{Dur: r.End - r.Start, Self: map[string]int64{}}
		covered, edge := int64(0), r.Start
		for _, ki := range ks {
			c := t.spans[ki]
			lo, hi := max(c.Start, edge), min(c.End, r.End)
			if hi > lo {
				rs.Self[c.Name] += hi - lo
				covered += hi - lo
				edge = hi
			}
		}
		rs.Self[rootLayer] = rs.Dur - covered
		out = append(out, rs)
	}
	return out
}

// budget is the layer breakdown of the roots around the median: the roots
// ranked 45%..55% by duration, each layer's mean self time over them. The
// rows sum to Total, the band's mean root duration.
type budget struct {
	Root   string
	Roots  int
	Band   int
	Total  float64 // µs
	Median float64 // µs, the roots' median
	Rows   []budgetRow
}

type budgetRow struct {
	Layer  string
	SelfUs float64
}

func makeBudget(root string, rs []rootSelf) budget {
	b := budget{Root: root, Roots: len(rs)}
	if len(rs) == 0 {
		return b
	}
	sorted := slices.Clone(rs)
	slices.SortFunc(sorted, func(a, c rootSelf) int { return cmp.Compare(a.Dur, c.Dur) })
	b.Median = float64(sorted[len(sorted)/2].Dur) / float64(us)
	lo, hi := len(sorted)*45/100, (len(sorted)*55+99)/100
	if hi <= lo {
		hi = lo + 1
	}
	band := sorted[lo:hi]
	b.Band = len(band)
	sums := map[string]float64{}
	for _, r := range band {
		b.Total += float64(r.Dur)
		for l, v := range r.Self {
			sums[l] += float64(v)
		}
	}
	n := float64(len(band)) * float64(us)
	b.Total /= n
	for l, v := range sums {
		b.Rows = append(b.Rows, budgetRow{Layer: l, SelfUs: v / n})
	}
	slices.SortFunc(b.Rows, func(a, c budgetRow) int { return cmp.Compare(c.SelfUs, a.SelfUs) })
	return b
}

func (b budget) print(w io.Writer) {
	if b.Roots == 0 {
		return
	}
	fmt.Fprintf(w, "budget %s: %d roots, band of %d around p50 (p50 %.1f µs)\n", b.Root, b.Roots, b.Band, b.Median)
	sum := 0.0
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-24s %10.1f µs %6.1f%%\n", r.Layer, r.SelfUs, 100*ratio(r.SelfUs, b.Total))
		sum += r.SelfUs
	}
	fmt.Fprintf(w, "  %-24s %10.1f µs (band mean root latency %.1f µs)\n", "sum of self times", sum, b.Total)
}

// durations returns a histogram of the durations of spans named name.
func (t *tracer) durations(name string) *loadgen.Hist {
	h := new(loadgen.Hist)
	for _, s := range t.spans {
		if s.Name == name {
			h.Record(time.Duration(s.End - s.Start))
		}
	}
	return h
}

// selfHist returns a histogram of one layer's self time across roots.
func selfHist(rs []rootSelf, layer string) *loadgen.Hist {
	h := new(loadgen.Hist)
	for _, r := range rs {
		h.Record(time.Duration(r.Self[layer]))
	}
	return h
}

// dump writes every span as CSV: index, parent, name, key, start and end
// nanoseconds since the epoch.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,key,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", i, s.Parent, s.Name, s.Key, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
