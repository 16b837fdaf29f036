package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// newShardedTestStore returns an empty store with a fixed shard count, so
// the parallel snapshot and replay paths are exercised even on a single-core
// test machine (NewStore derives its shard count from GOMAXPROCS).
func newShardedTestStore(shards int) *registry.Store {
	return registry.NewStoreWithShards(simtime.NewSimClock(testStart.At(0, 0, 0)), shards)
}

func openJournalP(t *testing.T, s *registry.Store, dir string, parallelism int, keepAll bool) (*Journal, Recovery) {
	t.Helper()
	j, rec, err := Open(s, Options{Dir: dir, Mode: ModeSync, KeepAll: keepAll, RecoveryParallelism: parallelism})
	if err != nil {
		t.Fatalf("open journal (parallelism %d): %v", parallelism, err)
	}
	return j, rec
}

// latestSnapshotBytes reads dir's newest snapshot file.
func latestSnapshotBytes(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	path, _, ok, err := LatestSnapshotPath(dir)
	if err != nil || !ok {
		t.Fatalf("no snapshot in %s: %v", dir, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestSnapshotV2RoundTrip: a snapshot written by a multi-shard store must
// carry the snapshot magic and restore byte-identically into stores of
// *different* shard counts, both sequentially and in parallel — the
// writer's shard split is an encoding detail, not a restore contract.
func TestSnapshotV2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newShardedTestStore(8)
	j, _ := openJournalP(t, s, dir, 8, false)
	s.SetJournal(j)
	workout(t, s, 21, 200)
	if err := j.Snapshot([]byte("v2-app-state")); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Post-snapshot traffic becomes the WAL tail recovery must stitch on.
	for i := 0; i < 25; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("v2tail%03d.com", i), 901, 1, testStart.At(14, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, data := latestSnapshotBytes(t, dir)
	if got := string(data[:len(snapMagic)]); got != snapMagic {
		t.Fatalf("new snapshot magic %q, want %q", got, snapMagic)
	}

	for _, tc := range []struct {
		name        string
		shards      int
		parallelism int
	}{
		{"parallel-2shards", 2, 4},
		{"parallel-32shards", 32, 8},
		{"sequential-8shards", 8, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s2 := newShardedTestStore(tc.shards)
			j2, rec := openJournalP(t, s2, dir, tc.parallelism, false)
			defer j2.Close()
			if rec.SnapshotSeq == 0 {
				t.Fatal("recovery did not load the snapshot")
			}
			if string(rec.AppState) != "v2-app-state" {
				t.Fatalf("app state corrupted: %q", rec.AppState)
			}
			if rec.ReplayedRecords != 25 {
				t.Fatalf("replayed %d records, want the 25-record tail", rec.ReplayedRecords)
			}
			if got := dumpVisible(s2); got != want {
				t.Error("v2 snapshot recovery differs from original")
			}
			if rec.Timings.Total <= 0 {
				t.Error("recovery timings not populated")
			}
		})
	}
}

// snapCorruptions mutate a pristine snapshot image into one flavour of
// damage. Every variant must make restore fail loudly with the store
// untouched.
var snapCorruptions = []struct {
	name   string
	mangle func(data []byte) []byte
}{
	{"flip-section-body", func(data []byte) []byte {
		out := append([]byte(nil), data...)
		out[len(out)/2] ^= 0x20 // interior of some section body
		return out
	}},
	{"truncate-tail", func(data []byte) []byte {
		return append([]byte(nil), data[:len(data)-7]...) // torn mid-section
	}},
	{"truncate-mid-header", func(data []byte) []byte {
		return append([]byte(nil), data[:len(snapMagic)+3]...) // partial first header
	}},
	{"oversized-length", func(data []byte) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(out[len(snapMagic):], 1<<30) // meta claims a body past EOF
		return out
	}},
	{"flip-crc", func(data []byte) []byte {
		out := append([]byte(nil), data...)
		out[len(snapMagic)+4] ^= 0xff // meta section's stored CRC
		return out
	}},
}

// TestSnapshotV2CorruptionFailsLoudly: every flavour of torn or corrupt
// section must fail verification before the store is touched — no partial
// restore — and with no older snapshot to fall back to, recovery must
// refuse to open.
func TestSnapshotV2CorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s := newShardedTestStore(8)
	j, _ := openJournalP(t, s, dir, 8, false)
	s.SetJournal(j)
	workout(t, s, 22, 120)
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path, pristine := latestSnapshotBytes(t, dir)

	for _, tc := range snapCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			cdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(cdir, filepath.Base(path)), tc.mangle(pristine), 0o666); err != nil {
				t.Fatal(err)
			}
			// Direct restore: the error must surface with the store empty.
			s2 := newShardedTestStore(4)
			sr, err := restoreLatestSnapshot(s2, cdir, 4)
			if err == nil {
				t.Fatal("corrupt snapshot restored without error")
			}
			if sr.found {
				t.Error("restore reported found despite failing")
			}
			if s2.Count() != 0 || s2.Generation() != 0 || len(s2.Registrars()) != 0 {
				t.Errorf("partial restore leaked into the store: count=%d gen=%d regs=%d",
					s2.Count(), s2.Generation(), len(s2.Registrars()))
			}
			// Full recovery: the only snapshot is broken, so Open must fail
			// loudly rather than silently serve pre-snapshot state.
			if _, _, err := Open(newShardedTestStore(4), Options{Dir: cdir, Mode: ModeSync}); err == nil {
				t.Fatal("Open succeeded over a solitary corrupt snapshot")
			}
		})
	}
}

// TestRetiredSnapshotFormatsRefused: a datadir whose only snapshot is in a
// retired format — DZSNAP1 (gob) or DZSNAP2 (no zone table) — must make
// Open fail loudly with the store still empty. Starting empty would
// silently drop the state the file holds.
func TestRetiredSnapshotFormatsRefused(t *testing.T) {
	s := newShardedTestStore(4)
	workout(t, s, 25, 80)
	sh := s.CaptureSnapshot()
	const seq = 4242
	path, err := writeSnapshot(t.TempDir(), seq, nil, &sh, 2)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// DZSNAP2 is the current layout without the meta section's trailing
	// zone count, which is 0 on this default-only store.
	metaEnd := len(snapMagic) + secHeader + int(binary.LittleEndian.Uint32(cur[len(snapMagic):]))
	metaBody := cur[len(snapMagic)+secHeader : metaEnd]
	if metaBody[len(metaBody)-1] != 0 {
		t.Fatal("default-only snapshot carries a zone table")
	}
	v2 := appendSection([]byte("DZSNAP2\n"), metaBody[:len(metaBody)-1])
	v2 = append(v2, cur[metaEnd:]...)

	// DZSNAP1 is the magic, a gob stream and a CRC-32 of both.
	var v1 bytes.Buffer
	v1.WriteString("DZSNAP1\n")
	if err := gob.NewEncoder(&v1).Encode(struct {
		Seq      uint64
		AppState []byte
	}{Seq: seq, AppState: []byte("v1-app")}); err != nil {
		t.Fatal(err)
	}
	v1b := binary.LittleEndian.AppendUint32(v1.Bytes(), crc32.ChecksumIEEE(v1.Bytes()))

	for _, tc := range []struct {
		name string
		data []byte
	}{{"DZSNAP1", v1b}, {"DZSNAP2", v2}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapName(seq)), tc.data, 0o666); err != nil {
				t.Fatal(err)
			}
			s2 := newShardedTestStore(4)
			if _, _, err := Open(s2, Options{Dir: dir, Mode: ModeSync}); err == nil {
				t.Fatal("Open succeeded over a retired-format snapshot")
			}
			if s2.Count() != 0 || s2.Generation() != 0 || len(s2.Registrars()) != 0 {
				t.Errorf("refused snapshot leaked into the store: count=%d gen=%d regs=%d",
					s2.Count(), s2.Generation(), len(s2.Registrars()))
			}
		})
	}
}

// TestSnapshotV2FallbackToOlder: a corrupt newest snapshot (the signature of
// a crash racing the rename) is skipped in favour of the older one, whose
// WAL tail still covers everything — recovered state must be identical.
func TestSnapshotV2FallbackToOlder(t *testing.T) {
	dir := t.TempDir()
	s := newShardedTestStore(8)
	j, _ := openJournalP(t, s, dir, 8, true) // KeepAll retains the older snapshot
	s.SetJournal(j)
	workout(t, s, 23, 100)
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	olderSeq := j.LastSeq()
	for i := 0; i < 30; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("between%03d.com", i), 902, 1, testStart.At(15, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("after%03d.com", i), 902, 1, testStart.At(16, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	path, data := latestSnapshotBytes(t, dir)
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := newShardedTestStore(8)
	j2, rec := openJournalP(t, s2, dir, 8, false)
	defer j2.Close()
	if rec.SnapshotSeq != olderSeq {
		t.Fatalf("recovered from snapshot seq %d, want fallback to %d", rec.SnapshotSeq, olderSeq)
	}
	if got := dumpVisible(s2); got != want {
		t.Error("fallback recovery differs from original")
	}
}

// TestParallelReplayDifferential: for several seeds, recovering the same WAL
// with the pipelined parallel replayer must produce a store byte-identical
// to the sequential replay — generation counter, IDs, deletion archive and
// all. Run under -race this also exercises the pipeline's synchronisation.
func TestParallelReplayDifferential(t *testing.T) {
	for _, seed := range []int64{31, 32, 33} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s := newShardedTestStore(8)
			j, _ := openJournalP(t, s, dir, 1, false)
			s.SetJournal(j)
			workout(t, s, seed, 250)
			want := dumpVisible(s)
			wantSeq := j.LastSeq()
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			recover := func(parallelism int) string {
				t.Helper()
				s2 := newShardedTestStore(8)
				j2, rec := openJournalP(t, s2, dir, parallelism, false)
				defer j2.Close()
				if rec.ReplayedRecords == 0 {
					t.Fatalf("parallelism %d: no records replayed", parallelism)
				}
				if j2.LastSeq() != wantSeq {
					t.Fatalf("parallelism %d: recovered to seq %d, want %d", parallelism, j2.LastSeq(), wantSeq)
				}
				return dumpVisible(s2)
			}
			seq := recover(1)
			par := recover(8)
			if seq != want {
				t.Error("sequential replay differs from original store")
			}
			if par != seq {
				t.Error("parallel replay differs from sequential replay")
			}
		})
	}
}

// snapFuzzBase builds one pristine snapshot image plus the canonical dump
// of the state it encodes, shared by every FuzzSnapshotDecode execution.
var snapFuzzBase struct {
	once sync.Once
	err  error
	data []byte
	seq  uint64
	dump string
}

func buildSnapFuzzBase() {
	dir, err := os.MkdirTemp("", "dzsnapfuzz")
	if err != nil {
		snapFuzzBase.err = err
		return
	}
	defer os.RemoveAll(dir)
	s := registry.NewStoreWithShards(simtime.NewSimClock(testStart.At(0, 0, 0)), 4)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Fuzz Reg", Service: "svc"})
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("sf%03d.com", i)
		if i%3 == 0 {
			if _, err := s.SeedAt(name, 900, testStart.At(1, 0, i), testStart.At(2, 0, i), testStart.At(3, 0, i),
				model.StatusPendingDelete, testStart.AddDays(1)); err != nil {
				snapFuzzBase.err = err
				return
			}
		} else if _, err := s.CreateAt(name, 900, 1, testStart.At(4, 0, i)); err != nil {
			snapFuzzBase.err = err
			return
		}
	}
	sh := s.CaptureSnapshot()
	path, err := writeSnapshot(dir, 77, []byte("fuzz-app"), &sh, 2)
	if err != nil {
		snapFuzzBase.err = err
		return
	}
	if snapFuzzBase.data, err = os.ReadFile(path); err != nil {
		snapFuzzBase.err = err
		return
	}
	snapFuzzBase.seq = 77
	snapFuzzBase.dump = dumpVisible(s)
}

// FuzzSnapshotDecode corrupts a snapshot image at arbitrary offsets —
// truncation, bit flips — and asserts the restore invariant: verification
// either rejects the image loudly (store untouched), or it accepts and the
// restored store is exactly the original state. Silent partial or divergent
// restores are the bug class this hunts.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(uint16(0), uint16(0), byte(0))      // pristine: must restore exactly
	f.Add(uint16(0), uint16(0), byte(0x04))   // flip inside the magic
	f.Add(uint16(6), uint16(0), byte(0x03))   // magic becomes DZSNAP0: an unknown format's magic
	f.Add(uint16(8), uint16(0), byte(0xff))   // meta section length field
	f.Add(uint16(12), uint16(0), byte(0x80))  // meta section CRC field
	f.Add(uint16(17), uint16(0), byte(0x01))  // meta body
	f.Add(uint16(999), uint16(0), byte(0x40)) // some section body
	f.Add(uint16(0), uint16(1), byte(0))      // truncate the final byte
	f.Add(uint16(0), uint16(200), byte(0))    // torn mid-section
	f.Add(uint16(0), uint16(9999), byte(0))   // truncate to (near) nothing
	f.Fuzz(func(t *testing.T, off uint16, trunc uint16, flip byte) {
		snapFuzzBase.once.Do(buildSnapFuzzBase)
		if snapFuzzBase.err != nil {
			t.Fatalf("building snapshot fuzz base: %v", snapFuzzBase.err)
		}
		data := append([]byte(nil), snapFuzzBase.data...)
		if trunc > 0 {
			keep := len(data) - int(trunc)
			if keep < 0 {
				keep = 0
			}
			data = data[:keep]
		}
		if flip != 0 && len(data) > 0 {
			data[int(off)%len(data)] ^= flip
		}

		s := registry.NewStoreWithShards(simtime.NewSimClock(testStart.At(0, 0, 0)), 4)
		seq, err := RestoreShippedSnapshot(s, data)
		if err != nil {
			// Loud rejection must leave the store untouched: recovery falls
			// back to an older snapshot assuming exactly that.
			if s.Count() != 0 || s.Generation() != 0 || len(s.Registrars()) != 0 {
				t.Fatalf("rejected snapshot leaked state: count=%d gen=%d regs=%d",
					s.Count(), s.Generation(), len(s.Registrars()))
			}
			return
		}
		if seq != snapFuzzBase.seq {
			t.Fatalf("corrupted snapshot restored with seq %d, want %d", seq, snapFuzzBase.seq)
		}
		if got := dumpVisible(s); got != snapFuzzBase.dump {
			t.Error("corrupted snapshot restored silently wrong state")
		}
	})
}

// TestAddRegistrarGobFallback: pre-upgrade segments carried MutAddRegistrar
// as wire kind 1 with a gob-encoded registrar blob. That spelling is retired:
// the decoder must reject it as corrupt, while new appends use the binary
// wire kind and round-trip the registrar.
func TestAddRegistrarGobFallback(t *testing.T) {
	reg := model.Registrar{
		IANAID: 7788, Name: "Legacy & Sons", Service: "https://legacy.example",
		Contact: model.Contact{
			Org: "Legacy Org", Email: "ops@legacy.example", Street: "1 Drop Way",
			City: "Registryville", Country: "NL", Phone: "+31.5551212",
		},
	}
	m := registry.Mutation{Kind: registry.MutAddRegistrar, Registrar: reg}

	// New appends must claim the binary wire kind, not gob's kind byte.
	b, err := appendMutation(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != wireAddRegistrarBin {
		t.Fatalf("new append wrote wire kind %#x, want %#x", b[0], wireAddRegistrarBin)
	}
	got, err := decodeMutation(b)
	if err != nil {
		t.Fatalf("binary: decode: %v", err)
	}
	if got.Kind != registry.MutAddRegistrar || got.Registrar != reg {
		t.Errorf("binary: registrar did not round-trip:\n in: %+v\nout: %+v", reg, got.Registrar)
	}

	// Reconstruct the pre-upgrade encoding byte-for-byte: kind byte 1, the
	// common field block, then the registrar as a length-prefixed gob blob.
	old := []byte{byte(registry.MutAddRegistrar)}
	old = appendString(old, m.Name)
	old = binary.AppendUvarint(old, m.ID)
	old = binary.AppendVarint(old, int64(m.RegistrarID))
	old = appendTime(old, m.Created)
	old = appendTime(old, m.Updated)
	old = appendTime(old, m.Expiry)
	old = append(old, byte(m.Status))
	old = binary.AppendVarint(old, int64(m.DeleteDay.Year))
	old = append(old, byte(m.DeleteDay.Month), byte(m.DeleteDay.Dom))
	old = appendTime(old, m.Time)
	old = binary.AppendVarint(old, int64(m.Rank))
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(reg); err != nil {
		t.Fatal(err)
	}
	old = appendString(old, blob.String())

	// The refusal rests on the kind byte, not on the gob blob failing to
	// parse: kind 1 is corrupt even with a well-formed binary registrar.
	for _, tc := range []struct {
		name string
		b    []byte
	}{{"gob-blob", old}, {"kind1-binary", append([]byte{byte(registry.MutAddRegistrar)}, b[1:]...)}} {
		if got, err := decodeMutation(tc.b); err == nil {
			t.Errorf("%s: retired kind-1 MutAddRegistrar accepted: %+v", tc.name, got)
		}
	}
}
