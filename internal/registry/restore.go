package registry

import (
	"fmt"
	"sort"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// This file is the parallel recovery seam: sharded snapshot capture, a
// restore API whose pieces are safe for concurrent use, and a per-shard
// replay entry point. The journal's snapshot codec encodes one section per
// shard and its pipelined WAL replayer partitions records by the same name
// hash the live store routes with, so every recovery worker locks exactly
// the shard it is filling.

// ShardedSnapshot is a full copy of the store's durable state — everything
// recovery needs to rebuild an identical store, and nothing process-local
// (caches, observers) — with the registrations still grouped by the
// capturing store's shard index: the shape the parallel snapshot codec
// wants, one independently encodable (and restorable) section per shard.
// Shards has ShardCount() entries; entry order within a shard is
// map-iteration order, which no consumer may rely on (restore re-routes
// every domain by name hash anyway).
type ShardedSnapshot struct {
	Gen        uint64
	NextID     uint64
	Registrars []model.Registrar
	Shards     [][]SnapshotDomain
	Deletions  map[simtime.Day][]model.DeletionEvent
	// Zones are the zones installed beyond the implicit default .com/.net
	// one, which is never captured (the WAL never journals it either).
	// Empty on a default-only store.
	Zones []zone.Config
}

// DomainCount sums the per-shard registration counts.
func (st *ShardedSnapshot) DomainCount() int {
	n := 0
	for _, sh := range st.Shards {
		n += len(sh)
	}
	return n
}

// CaptureSnapshot copies the store's durable state, visiting the shards one
// at a time under read locks — it never stops the world. The copy is NOT by
// itself consistent under concurrent mutation: the snapshotter brackets the
// call with two Generation() reads and discards the copy unless they match
// (the same read-render-reread discipline the response caches use), which
// proves no mutation committed while the copy was taken.
func (s *Store) CaptureSnapshot() ShardedSnapshot {
	st := ShardedSnapshot{
		Registrars: s.Registrars(),
		Shards:     make([][]SnapshotDomain, len(s.shards)),
		Deletions:  make(map[simtime.Day][]model.DeletionEvent),
		Zones:      s.ExtraZones(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sec := make([]SnapshotDomain, 0, len(sh.domains))
		for name, d := range sh.domains {
			sec = append(sec, SnapshotDomain{Domain: *d, AuthInfo: sh.authInfo[name]})
		}
		sh.mu.RUnlock()
		st.Shards[i] = sec
	}
	s.delMu.Lock()
	for day, evs := range s.deletions {
		st.Deletions[day] = append([]model.DeletionEvent(nil), evs...)
	}
	s.delMu.Unlock()
	st.NextID = s.nextID.Load()
	st.Gen = s.gen.Load()
	return st
}

// CaptureSnapshotQuiesced copies the store's durable state under a full
// write quiesce: the registrar table and every shard stay read-locked for
// the whole copy, so no mutation can commit anywhere in the store while it
// runs (readers are unaffected — mutators briefly queue behind the held
// read locks). walSeq is invoked while the quiesce holds; because every
// journal append happens inside a mutating critical section, the value it
// returns identifies exactly the last record the copy contains — the
// consistency CaptureSnapshot gets optimistically from generation
// bracketing, guaranteed here at the cost of stalling writers for the
// duration of one full-store copy.
//
// Lock order is regMu < shards (ascending index) < delMu, consistent with
// every other path (mutators take a single shard lock, and only after any
// regMu use is finished; purge takes delMu inside its shard critical
// section), so the quiesce introduces no lock-order cycle. This is the
// snapshotter's fallback when sustained write load keeps defeating the
// optimistic capture; it is not a hot-path API.
func (s *Store) CaptureSnapshotQuiesced(walSeq func() uint64) (ShardedSnapshot, uint64) {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	for i := range s.shards {
		s.shards[i].mu.RLock()
		defer s.shards[i].mu.RUnlock()
	}
	st := ShardedSnapshot{
		Registrars: s.registrarsLocked(),
		Shards:     make([][]SnapshotDomain, len(s.shards)),
		Deletions:  make(map[simtime.Day][]model.DeletionEvent),
		Zones:      s.ExtraZones(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sec := make([]SnapshotDomain, 0, len(sh.domains))
		for name, d := range sh.domains {
			sec = append(sec, SnapshotDomain{Domain: *d, AuthInfo: sh.authInfo[name]})
		}
		st.Shards[i] = sec
	}
	s.delMu.Lock()
	for day, evs := range s.deletions {
		st.Deletions[day] = append([]model.DeletionEvent(nil), evs...)
	}
	s.delMu.Unlock()
	st.NextID = s.nextID.Load()
	st.Gen = s.gen.Load()
	return st, walSeq()
}

// RestoreRegistrars installs the registrar table during recovery, replacing
// nothing (the store is empty). Call once, before serving.
func (s *Store) RestoreRegistrars(rs []model.Registrar) {
	s.regMu.Lock()
	for _, r := range rs {
		s.registrars[r.IANAID] = r
	}
	s.regMu.Unlock()
}

// InstallRestoredDomains loads one batch of snapshot registrations into a
// store under recovery. It is safe for concurrent use — parallel restore
// workers each call it with their own decoded section — because it groups
// the batch by the *receiving* store's name hash and takes each shard's
// write lock once per group. The writer's shard layout is irrelevant: a
// snapshot captured at one shard count restores correctly at any other.
// Duplicate names (within the batch or across batches) mean the snapshot is
// not a faithful store copy and fail loudly.
func (s *Store) InstallRestoredDomains(ds []SnapshotDomain) error {
	groups := make(map[uint64][]int)
	for i := range ds {
		si := s.shardIndex(ds[i].Domain.Name)
		groups[si] = append(groups[si], i)
	}
	for si, idxs := range groups {
		sh := &s.shards[si]
		sh.mu.Lock()
		for _, i := range idxs {
			d := ds[i].Domain
			if _, taken := sh.domains[d.Name]; taken {
				sh.mu.Unlock()
				return fmt.Errorf("registry: restore: %w: %q", ErrExists, d.Name)
			}
			c := d
			sh.domains[d.Name] = &c
			sh.byID[c.ID] = &c
			if ds[i].AuthInfo != "" {
				sh.authInfo[d.Name] = ds[i].AuthInfo
			}
			sh.dueAdd(&c)
		}
		sh.mu.Unlock()
	}
	return nil
}

// MergeRestoredDeletions appends snapshot deletion-archive days into the
// store. Safe for concurrent use (the archive lock serialises); each day's
// events must arrive in archive order within one call, and a given day must
// come from a single caller (the snapshot codec keeps the whole archive in
// one section, so this holds trivially).
func (s *Store) MergeRestoredDeletions(dels map[simtime.Day][]model.DeletionEvent) {
	s.delMu.Lock()
	for day, evs := range dels {
		s.deletions[day] = append(s.deletions[day], evs...)
	}
	s.delMu.Unlock()
}

// FinishRestore seals a restore: installs the ID allocator and generation
// counter captured with the snapshot. Call after every InstallRestoredDomains
// worker has returned and before WAL replay starts.
func (s *Store) FinishRestore(gen, nextID uint64) {
	s.nextID.Store(nextID)
	s.gen.Store(gen)
}

// SeqMutation pairs a replayed mutation with its WAL sequence number, so
// per-shard appliers can reassemble globally ordered artefacts (the
// deletion archive) after applying out of global order.
type SeqMutation struct {
	Seq uint64
	M   Mutation
}

// ReplayPurge is one Drop deletion produced by replay, tagged with the WAL
// position of its purge record.
type ReplayPurge struct {
	Seq uint64
	Ev  model.DeletionEvent
}

// ShardIndexFor exposes the store's name-to-shard routing for replay
// partitioning: the parallel replayer must group records exactly the way
// the store's own mutators serialised them, and this is that function.
func (s *Store) ShardIndexFor(name string) int {
	return int(s.shardIndex(name))
}

// ApplyShardSequence replays a run of domain mutations that all route to
// shard si (per ShardIndexFor — the caller owns that invariant), in
// ascending sequence order, under one acquisition of that shard's write
// lock. It is the parallel-replay sibling of ApplyBatch's per-shard groups:
// concurrent callers touching *different* shards reproduce sequential
// replay exactly, because every pair of same-name records shares a shard
// and therefore a caller, and the generation counter advances by the run
// length regardless of interleaving. Purge events are returned with their
// sequence numbers; the caller rebuilds the deletion archive in global
// order with AppendReplayPurges once replay completes. MutAddRegistrar and
// MutAddZone are rejected — those records commit under their own leaf locks
// and act as replay barriers, applied inline via Apply.
//
// An error leaves the run partially applied (generation covers the applied
// prefix); as with ApplyBatch, errors mean the log is not a faithful
// history and the caller must discard the store.
func (s *Store) ApplyShardSequence(si int, ms []SeqMutation) ([]ReplayPurge, error) {
	if len(ms) == 0 {
		return nil, nil
	}
	if si < 0 || si >= len(s.shards) {
		return nil, fmt.Errorf("registry: replay: shard index %d out of range", si)
	}
	var (
		purges  []ReplayPurge
		applied int
		err     error
	)
	sh := &s.shards[si]
	sh.mu.Lock()
	for i := range ms {
		m := &ms[i].M
		if m.Kind == MutAddRegistrar || m.Kind == MutAddZone {
			err = fmt.Errorf("registry: replay seq %d: %s in shard sequence", ms[i].Seq, m.Kind)
			break
		}
		ev, isPurge, aerr := s.applyDomainLocked(sh, m)
		if aerr != nil {
			err = aerr
			break
		}
		if isPurge {
			purges = append(purges, ReplayPurge{Seq: ms[i].Seq, Ev: ev})
		}
		applied++
	}
	s.gen.Add(uint64(applied))
	sh.mu.Unlock()
	return purges, err
}

// AppendReplayPurges rebuilds the deletion archive from the purge events
// the per-shard appliers collected: sorted by WAL sequence number, the
// events land in exactly the order sequential replay would have appended
// them (the archive's per-day rank order is observable through dropscope).
// Call once, after every applier has finished.
func (s *Store) AppendReplayPurges(ps []ReplayPurge) {
	sort.Slice(ps, func(a, b int) bool { return ps[a].Seq < ps[b].Seq })
	s.delMu.Lock()
	for _, p := range ps {
		day := simtime.DayOf(p.Ev.Time)
		s.deletions[day] = append(s.deletions[day], p.Ev)
	}
	s.delMu.Unlock()
}
