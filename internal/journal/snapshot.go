package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/par"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// Snapshot files are named snap-<seq>.snap, where <seq> is the WAL sequence
// number the captured state includes: recovery restores the snapshot, then
// replays records with sequence numbers strictly greater. Every snapshot is
// written to a temp name, fsynced and renamed, so a half-written snapshot
// never shadows a complete older one.
//
// The format is per-shard sections with the same hand-rolled binary codec
// as the WAL (encode.go). Sections encode and decode with plain varint
// walks, and — the point — independently, so a worker per shard
// parallelises both directions. Layout, little-endian:
//
//	magic "DZSNAP3\n"
//	section* — u32 body length · u32 CRC-32 (IEEE) of body · body
//
// Every section body starts with a kind byte. The first section must be
// the meta section (kind 1):
//
//	seq uvarint · gen uvarint · nextID uvarint
//	appState: present u8 (0/1) · uvarint-len + bytes when present
//	registrars: uvarint count · registrar fields (appendRegistrar)
//	domainSections uvarint · deletionSections uvarint
//	zones: uvarint count · zone configs (appendZone)
//
// followed by exactly domainSections domain sections (kind 2: writer shard
// index uvarint, domain count uvarint, then per domain name/ID/TLD/
// registrarID/created/updated/expiry/status/deleteDay/authInfo) and
// deletionSections deletion-archive sections (kind 3: day count uvarint,
// then per day year varint, month u8, dom u8, event count uvarint and the
// events in archive order). No trailing bytes.
//
// The zone table lists the zones installed beyond the implicit default
// .com/.net one (count 0 on a default-only store); the default zone is
// never written, just as the WAL never journals it.
//
// Readers validate structure and every section CRC *before* touching the
// store: a torn or corrupt section fails the whole file loudly with no
// partial restore, which lets recovery fall back to an older snapshot with
// the store still empty. The writer-side shard split is just an encoding
// parallelism choice — restore re-routes every domain by name hash, so a
// snapshot written at one shard count restores at any other. Any other
// magic — including the retired DZSNAP1 (gob) and DZSNAP2 (no zone table)
// formats — is rejected as unreadable.
const (
	snapMagic = "DZSNAP3\n"
	secHeader = 8 // u32 body length + u32 CRC-32 of body

	secMeta      byte = 1
	secDomains   byte = 2
	secDeletions byte = 3
)

func snapName(seq uint64) string { return fmt.Sprintf("snap-%020d.snap", seq) }

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSnapshots returns dir's snapshot files in ascending sequence order.
func listSnapshots(dir string) (names []string, seqs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type snap struct {
		name string
		seq  uint64
	}
	var snaps []snap
	for _, e := range entries {
		if seq, ok := parseSnapName(e.Name()); ok {
			snaps = append(snaps, snap{e.Name(), seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	for _, s := range snaps {
		names = append(names, s.name)
		seqs = append(seqs, s.seq)
	}
	return names, seqs, nil
}

// snapMeta is the decoded meta section of a snapshot.
type snapMeta struct {
	seq              uint64
	gen              uint64
	nextID           uint64
	appState         []byte // nil when the writer stored none
	registrars       []model.Registrar
	domainSections   int
	deletionSections int
	zones            []zone.Config
}

// snapBufPool recycles section encode buffers across snapshots; a section
// is one shard's worth of domains, so buffers stabilise at store-size/
// shard-count bytes.
var snapBufPool = sync.Pool{New: func() any { return []byte(nil) }}

func appendSection(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

func appendMetaSection(b []byte, seq uint64, appState []byte, st *registry.ShardedSnapshot, delSections int) []byte {
	b = append(b, secMeta)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, st.Gen)
	b = binary.AppendUvarint(b, st.NextID)
	if appState == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(len(appState)))
		b = append(b, appState...)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Registrars)))
	for i := range st.Registrars {
		b = appendRegistrar(b, &st.Registrars[i])
	}
	b = binary.AppendUvarint(b, uint64(len(st.Shards)))
	b = binary.AppendUvarint(b, uint64(delSections))
	b = binary.AppendUvarint(b, uint64(len(st.Zones)))
	for i := range st.Zones {
		b = appendZone(b, &st.Zones[i])
	}
	return b
}

func appendDomainSection(b []byte, shard int, ds []registry.SnapshotDomain) []byte {
	b = append(b, secDomains)
	b = binary.AppendUvarint(b, uint64(shard))
	b = binary.AppendUvarint(b, uint64(len(ds)))
	for i := range ds {
		d := &ds[i].Domain
		b = appendString(b, d.Name)
		b = binary.AppendUvarint(b, d.ID)
		b = appendString(b, string(d.TLD))
		b = binary.AppendVarint(b, int64(d.RegistrarID))
		b = appendTime(b, d.Created)
		b = appendTime(b, d.Updated)
		b = appendTime(b, d.Expiry)
		b = append(b, byte(d.Status))
		b = binary.AppendVarint(b, int64(d.DeleteDay.Year))
		b = append(b, byte(d.DeleteDay.Month), byte(d.DeleteDay.Dom))
		b = appendString(b, ds[i].AuthInfo)
	}
	return b
}

func appendDeletionsSection(b []byte, dels map[simtime.Day][]model.DeletionEvent) []byte {
	b = append(b, secDeletions)
	days := make([]simtime.Day, 0, len(dels))
	for day := range dels {
		days = append(days, day)
	}
	// Deterministic day order so identical states produce identical files.
	sort.Slice(days, func(i, j int) bool {
		a, b := days[i], days[j]
		if a.Year != b.Year {
			return a.Year < b.Year
		}
		if a.Month != b.Month {
			return a.Month < b.Month
		}
		return a.Dom < b.Dom
	})
	b = binary.AppendUvarint(b, uint64(len(days)))
	for _, day := range days {
		b = binary.AppendVarint(b, int64(day.Year))
		b = append(b, byte(day.Month), byte(day.Dom))
		evs := dels[day]
		b = binary.AppendUvarint(b, uint64(len(evs)))
		for i := range evs {
			ev := &evs[i]
			b = binary.AppendUvarint(b, ev.DomainID)
			b = appendString(b, ev.Name)
			b = appendString(b, string(ev.TLD))
			b = appendTime(b, ev.Time)
			b = binary.AppendVarint(b, int64(ev.Rank))
		}
	}
	return b
}

// publishSnapshot installs snapshot seq into dir atomically: write fills a
// temp file, which is fsynced, renamed over the canonical name and made
// durable with a directory sync, so a crash at any point leaves either the
// complete new file or none. It returns the final path.
func publishSnapshot(dir string, seq uint64, write func(f *os.File) error) (string, error) {
	final := filepath.Join(dir, snapName(seq))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("journal: snapshot: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("journal: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("journal: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", fmt.Errorf("journal: sync dir: %w", err)
	}
	return final, nil
}

// writeSnapshot persists st atomically into dir and returns the final path.
// Section bodies (one per shard, plus the deletion archive) are encoded and
// checksummed concurrently on up to workers goroutines into pooled buffers,
// then written in section order.
func writeSnapshot(dir string, seq uint64, appState []byte, st *registry.ShardedSnapshot, workers int) (string, error) {
	type section struct {
		body []byte
		crc  uint32
	}
	n := len(st.Shards) + 1 // + deletion archive
	secs := par.Do(par.Workers(workers), n, func(i int) section {
		buf := snapBufPool.Get().([]byte)[:0]
		if i < len(st.Shards) {
			buf = appendDomainSection(buf, i, st.Shards[i])
		} else {
			buf = appendDeletionsSection(buf, st.Deletions)
		}
		return section{body: buf, crc: crc32.ChecksumIEEE(buf)}
	})

	return publishSnapshot(dir, seq, func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		if _, err := io.WriteString(bw, snapMagic); err != nil {
			return err
		}
		meta := appendSection(nil, appendMetaSection(nil, seq, appState, st, 1))
		if _, err := bw.Write(meta); err != nil {
			return err
		}
		var hdr [secHeader]byte
		for i := range secs {
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(secs[i].body)))
			binary.LittleEndian.PutUint32(hdr[4:8], secs[i].crc)
			if _, err := bw.Write(hdr[:]); err != nil {
				return err
			}
			if _, err := bw.Write(secs[i].body); err != nil {
				return err
			}
			snapBufPool.Put(secs[i].body)
			secs[i].body = nil
		}
		return bw.Flush()
	})
}

// parsedSnapshot is a parsed, CRC-verified snapshot: the decoded meta
// section plus the still-encoded domain and deletion section bodies (kind
// byte stripped), ready for concurrent decode+install.
type parsedSnapshot struct {
	meta     snapMeta
	domains  [][]byte
	deletion [][]byte
}

// parseSnapshot validates the whole file image — magic, framing, every
// section CRC, the meta section's contents, the section census — without
// touching any store. All-or-nothing by construction: install starts only
// after this succeeds, so a torn or corrupt section can never leave a
// partial restore.
func parseSnapshot(data []byte, name string) (*parsedSnapshot, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("journal: snapshot %s: "+format, append([]any{name}, args...)...)
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, bad("bad header %q: not a %q snapshot", data[:min(len(data), len(snapMagic))], snapMagic)
	}
	ps := &parsedSnapshot{}
	off := len(snapMagic)
	for off < len(data) {
		rest := len(data) - off
		if rest < secHeader {
			return nil, bad("%d trailing bytes at offset %d", rest, off)
		}
		ln := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if ln < 1 || ln > rest-secHeader {
			return nil, bad("bad section length %d at offset %d", ln, off)
		}
		body := data[off+secHeader : off+secHeader+ln]
		if crc32.ChecksumIEEE(body) != crc {
			return nil, bad("section CRC mismatch at offset %d", off)
		}
		kind := body[0]
		first := off == len(snapMagic)
		switch {
		case first:
			if kind != secMeta {
				return nil, bad("first section has kind %d, want meta", kind)
			}
			meta, err := decodeMetaSection(body[1:])
			if err != nil {
				return nil, bad("meta section: %w", err)
			}
			ps.meta = meta
		case kind == secDomains:
			ps.domains = append(ps.domains, body[1:])
		case kind == secDeletions:
			ps.deletion = append(ps.deletion, body[1:])
		default:
			return nil, bad("unknown section kind %d at offset %d", kind, off)
		}
		off += secHeader + ln
	}
	if off == len(snapMagic) {
		return nil, bad("no sections")
	}
	if len(ps.domains) != ps.meta.domainSections || len(ps.deletion) != ps.meta.deletionSections {
		return nil, bad("have %d domain + %d deletion sections, meta promises %d + %d",
			len(ps.domains), len(ps.deletion), ps.meta.domainSections, ps.meta.deletionSections)
	}
	return ps, nil
}

// decodeMetaSection parses the meta section body, strictly checked for
// trailing bytes.
func decodeMetaSection(body []byte) (snapMeta, error) {
	var m snapMeta
	d := &decoder{b: body}
	var err error
	if m.seq, err = d.uvarint(); err != nil {
		return m, err
	}
	if m.gen, err = d.uvarint(); err != nil {
		return m, err
	}
	if m.nextID, err = d.uvarint(); err != nil {
		return m, err
	}
	present, err := d.byte()
	if err != nil {
		return m, err
	}
	switch present {
	case 0:
	case 1:
		blob, err := d.str()
		if err != nil {
			return m, err
		}
		m.appState = []byte(blob)
	default:
		return m, fmt.Errorf("bad appState flag %d", present)
	}
	nreg, err := d.uvarint()
	if err != nil {
		return m, err
	}
	for i := uint64(0); i < nreg; i++ {
		r, err := d.registrar()
		if err != nil {
			return m, err
		}
		m.registrars = append(m.registrars, r)
	}
	nd, err := d.uvarint()
	if err != nil {
		return m, err
	}
	ndel, err := d.uvarint()
	if err != nil {
		return m, err
	}
	const maxSections = 1 << 20 // far beyond MaxShards; bounds a hostile count
	if nd > maxSections || ndel > maxSections {
		return m, fmt.Errorf("unreasonable section counts %d/%d", nd, ndel)
	}
	m.domainSections, m.deletionSections = int(nd), int(ndel)
	nz, err := d.uvarint()
	if err != nil {
		return m, err
	}
	if nz > 1<<16 {
		return m, fmt.Errorf("unreasonable zone count %d", nz)
	}
	for i := uint64(0); i < nz; i++ {
		z, err := d.zone()
		if err != nil {
			return m, err
		}
		m.zones = append(m.zones, z)
	}
	if len(d.b) != 0 {
		return m, fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return m, nil
}

// installDomainSection streams one domain section into the store in chunks,
// so a worker never materialises its whole shard before installing.
func installDomainSection(store *registry.Store, body []byte) error {
	d := &decoder{b: body}
	if _, err := d.uvarint(); err != nil { // writer shard index, informational
		return err
	}
	count, err := d.uvarint()
	if err != nil {
		return err
	}
	const chunkSize = 4096
	chunk := make([]registry.SnapshotDomain, 0, min(count, chunkSize))
	for i := uint64(0); i < count; i++ {
		var sd registry.SnapshotDomain
		dom := &sd.Domain
		if dom.Name, err = d.str(); err != nil {
			return err
		}
		if dom.ID, err = d.uvarint(); err != nil {
			return err
		}
		tld, err := d.str()
		if err != nil {
			return err
		}
		dom.TLD = model.TLD(tld)
		rid, err := d.varint()
		if err != nil {
			return err
		}
		dom.RegistrarID = int(rid)
		if dom.Created, err = d.time(); err != nil {
			return err
		}
		if dom.Updated, err = d.time(); err != nil {
			return err
		}
		if dom.Expiry, err = d.time(); err != nil {
			return err
		}
		st, err := d.byte()
		if err != nil {
			return err
		}
		dom.Status = model.Status(st)
		year, err := d.varint()
		if err != nil {
			return err
		}
		month, err := d.byte()
		if err != nil {
			return err
		}
		dayDom, err := d.byte()
		if err != nil {
			return err
		}
		dom.DeleteDay = simtime.Day{Year: int(year), Month: time.Month(month), Dom: int(dayDom)}
		if sd.AuthInfo, err = d.str(); err != nil {
			return err
		}
		chunk = append(chunk, sd)
		if len(chunk) == chunkSize {
			if err := store.InstallRestoredDomains(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return store.InstallRestoredDomains(chunk)
}

func decodeDeletionsSection(body []byte) (map[simtime.Day][]model.DeletionEvent, error) {
	d := &decoder{b: body}
	days, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	dels := make(map[simtime.Day][]model.DeletionEvent, int(min(days, 4096)))
	for i := uint64(0); i < days; i++ {
		year, err := d.varint()
		if err != nil {
			return nil, err
		}
		month, err := d.byte()
		if err != nil {
			return nil, err
		}
		dom, err := d.byte()
		if err != nil {
			return nil, err
		}
		day := simtime.Day{Year: int(year), Month: time.Month(month), Dom: int(dom)}
		count, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		evs := dels[day]
		for j := uint64(0); j < count; j++ {
			var ev model.DeletionEvent
			if ev.DomainID, err = d.uvarint(); err != nil {
				return nil, err
			}
			if ev.Name, err = d.str(); err != nil {
				return nil, err
			}
			tld, err := d.str()
			if err != nil {
				return nil, err
			}
			ev.TLD = model.TLD(tld)
			if ev.Time, err = d.time(); err != nil {
				return nil, err
			}
			rank, err := d.varint()
			if err != nil {
				return nil, err
			}
			ev.Rank = int(rank)
			evs = append(evs, ev)
		}
		dels[day] = evs
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return dels, nil
}

// installSnapshot decodes ps's sections and installs them into the empty
// store on up to workers goroutines. Each worker decodes its section
// incrementally and routes domains through InstallRestoredDomains, which
// locks exactly the shards that section's names hash to. An error poisons
// the store (partial install) — the caller must discard it, never retry.
func installSnapshot(store *registry.Store, ps *parsedSnapshot, workers int) error {
	if err := store.RestoreZones(ps.meta.zones); err != nil {
		return fmt.Errorf("journal: snapshot restore: %w", err)
	}
	store.RestoreRegistrars(ps.meta.registrars)
	n := len(ps.domains) + len(ps.deletion)
	errs := par.Do(par.Workers(workers), n, func(i int) error {
		if i < len(ps.domains) {
			if err := installDomainSection(store, ps.domains[i]); err != nil {
				return fmt.Errorf("domain section %d: %w", i, err)
			}
			return nil
		}
		dels, err := decodeDeletionsSection(ps.deletion[i-len(ps.domains)])
		if err != nil {
			return fmt.Errorf("deletion section %d: %w", i-len(ps.domains), err)
		}
		store.MergeRestoredDeletions(dels)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("journal: snapshot restore: %w", err)
		}
	}
	store.FinishRestore(ps.meta.gen, ps.meta.nextID)
	return nil
}

// snapRestore reports what restoreLatestSnapshot installed, with the phase
// timings recovery logging wants.
type snapRestore struct {
	found    bool
	seq      uint64
	appState []byte
	bytes    int64

	read    time.Duration // file read
	decode  time.Duration // framing+CRC validation pass
	install time.Duration // decode-and-install into the store
}

// restoreLatestSnapshot installs the newest snapshot in dir that verifies
// into the empty store. A snapshot that fails verification is skipped in
// favour of the next older one — it can only be the product of a crash
// mid-write racing the rename, and the WAL still covers everything since
// the older snapshot; because parseSnapshot fully validates before
// installing, the store is still untouched when the fallback happens. An
// *install* failure is fatal: the file verified, so its content disagreeing
// with the store is data loss, and the store is part-filled.
func restoreLatestSnapshot(store *registry.Store, dir string, workers int) (snapRestore, error) {
	var sr snapRestore
	names, _, err := listSnapshots(dir)
	if err != nil {
		return sr, fmt.Errorf("journal: list snapshots: %w", err)
	}
	var firstErr error
	for i := len(names) - 1; i >= 0; i-- {
		t0 := time.Now()
		data, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("journal: read snapshot: %w", err)
			}
			continue
		}
		sr.read = time.Since(t0)
		sr.bytes = int64(len(data))
		t1 := time.Now()
		ps, err := parseSnapshot(data, names[i])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sr.decode = time.Since(t1)
		t2 := time.Now()
		if err := installSnapshot(store, ps, workers); err != nil {
			return sr, err
		}
		sr.install = time.Since(t2)
		sr.found, sr.seq, sr.appState = true, ps.meta.seq, ps.meta.appState
		return sr, nil
	}
	if firstErr != nil && len(names) > 0 {
		// Every snapshot present is broken: that is not a crash artefact
		// (rename is atomic), it is data loss. Refuse to guess.
		return snapRestore{}, firstErr
	}
	return snapRestore{}, nil
}

// pruneAfterSnapshot removes snapshots older than snapSeq and every WAL
// segment fully covered by position segSeq: a segment is removable when its
// successor's first record is still ≤ segSeq+1, meaning no record after
// segSeq lives in it. The current append segment is never covered by
// construction (its records are newer than any snapshot). segSeq is
// normally snapSeq, lowered to the replication retain floor while followers
// are mid-stream — they read records from the segment files directly, so
// segments must outlive the snapshot that supersedes them for state
// rebuilding.
func pruneAfterSnapshot(dir string, snapSeq, segSeq uint64) error {
	snapNames, snapSeqs, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for i, name := range snapNames {
		if snapSeqs[i] < snapSeq {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	segNames, firstSeqs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segNames); i++ {
		if firstSeqs[i+1] <= segSeq+1 {
			if err := os.Remove(filepath.Join(dir, segNames[i])); err != nil {
				return err
			}
		}
	}
	return syncDir(dir)
}

// LatestSnapshotPath returns dir's newest snapshot file and its sequence
// number, with ok=false when the directory holds none. The replication
// source streams this file's raw bytes to a fresh follower; it relies on
// POSIX unlink semantics (an opened file survives a concurrent prune), so
// callers open the path before doing anything slow.
func LatestSnapshotPath(dir string) (path string, seq uint64, ok bool, err error) {
	names, seqs, err := listSnapshots(dir)
	if err != nil {
		return "", 0, false, fmt.Errorf("journal: list snapshots: %w", err)
	}
	if len(names) == 0 {
		return "", 0, false, nil
	}
	i := len(names) - 1
	return filepath.Join(dir, names[i]), seqs[i], true, nil
}

// RestoreShippedSnapshot verifies a raw snapshot file image (as shipped
// over replication), installs it into the empty store with a worker per
// core and returns the WAL sequence it covers. Verification completes
// before the store is touched; on error the store is unchanged.
func RestoreShippedSnapshot(store *registry.Store, data []byte) (uint64, error) {
	ps, err := parseSnapshot(data, "shipped")
	if err != nil {
		return 0, err
	}
	return ps.meta.seq, installSnapshot(store, ps, par.Workers(0))
}

// WriteRawSnapshot installs a raw snapshot file image into dir under its
// canonical name, with the same temp-fsync-rename dance writeSnapshot uses.
// A follower persists the shipped snapshot this way so its own restart can
// recover locally instead of re-fetching.
func WriteRawSnapshot(dir string, seq uint64, data []byte) error {
	_, err := publishSnapshot(dir, seq, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	return err
}
