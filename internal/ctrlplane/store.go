// Package ctrlplane is the daemon's crash-resumable control plane: a
// transactional embedded cluster store holding tenants, quotas, device
// and node membership, plus a pending-operation engine that makes every
// mutating administrative action survive daemon crashes.
//
// The store is a record schema over the durable log in internal/wal —
// the same log the checkpoint journal uses — for an arbitrary keyed
// state space: a commit is one transaction record (one frame, so a
// multi-key commit is atomic by construction), and compaction folds the
// key/value mirror into a snapshot of entry records. Recovery
// quarantines (skips and counts) a record whose payload fails its CRC
// or does not decode: for a keyed store the affected keys are
// unknowable, so the record is lost as a unit.
//
// On top of the store, ops.go models every mutation as a journaled
// pending operation (heketi's pending-operations pattern): recorded
// before execution, executed in idempotent steps, committed together
// with the removal of its pending record, and on daemon restart either
// resumed or rolled back and quarantined.
package ctrlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"gvrt/internal/faultinject"
	"gvrt/internal/wal"
)

// File names inside a store directory.
const (
	snapName = "store.snap"
	walName  = "store.wal"
)

// DefaultCompactBytes is the WAL growth (bytes appended since the last
// compaction) that triggers an automatic compaction.
const DefaultCompactBytes = 1 << 20

// Record kinds inside the store's frames. Zero is invalid so a zeroed
// frame can never masquerade as a record.
const (
	kindHeader uint8 = iota + 1 // snapshot header (wal owns its payload)
	kindEntry                   // snapshot key/value entry (payload: kvRec)
	kindTxn                     // WAL transaction (payload: txnRec)
)

// layout names the store's files and crash points.
var layout = wal.Layout{
	Name:         "ctrlplane",
	Log:          walName,
	Snapshot:     snapName,
	Tmp:          "store.tmp",
	HeaderKind:   kindHeader,
	PreSync:      faultinject.PointStorePreSync,
	PostSync:     faultinject.PointStorePostSync,
	Compact:      faultinject.PointStoreCompact,
	CompactBytes: DefaultCompactBytes,
}

// kvRec is one snapshot entry.
type kvRec struct {
	Key string
	Val []byte
}

// txnRec is one committed transaction: all puts and deletes applied
// atomically (they travel in one frame, so a crash either keeps the
// whole transaction or none of it).
type txnRec struct {
	Puts    []kvRec
	Deletes []string
}

// Txn is a batch of mutations committed atomically.
type Txn struct {
	rec txnRec
}

// Put stages a key write.
func (t *Txn) Put(key string, val []byte) *Txn {
	t.rec.Puts = append(t.rec.Puts, kvRec{Key: key, Val: append([]byte(nil), val...)})
	return t
}

// Delete stages a key removal.
func (t *Txn) Delete(key string) *Txn {
	t.rec.Deletes = append(t.rec.Deletes, key)
	return t
}

// empty reports whether the transaction stages nothing.
func (t *Txn) empty() bool { return len(t.rec.Puts) == 0 && len(t.rec.Deletes) == 0 }

// Event describes one committed transaction to a store watcher, or —
// when Kind is non-empty — a synthetic event injected onto the stream
// (SLO burn-rate transitions). Synthetic events carry no Seq: they are
// liveness signals, not store state.
type Event struct {
	// Seq is the commit's sequence number (0 for synthetic events).
	Seq uint64 `json:"seq"`
	// Puts / Deletes list the affected keys.
	Puts    []string `json:"puts,omitempty"`
	Deletes []string `json:"deletes,omitempty"`
	// Kind tags a synthetic event ("slo"); empty for commits.
	Kind string `json:"kind,omitempty"`
	// Detail is the synthetic event's JSON payload.
	Detail json.RawMessage `json:"detail,omitempty"`
}

// Options tunes a Store.
type Options = wal.Options

// Stats is a snapshot of a store's counters.
type Stats struct {
	// Commits is the number of transactions committed this run.
	Commits int64 `json:"commits"`
	// Syncs is the number of fsync barriers issued.
	Syncs int64 `json:"syncs"`
	// Bytes is the number of WAL bytes appended this run.
	Bytes int64 `json:"bytes"`
	// Compactions counts snapshot compactions completed this run.
	Compactions int64 `json:"compactions"`
	// TornBytes is the torn-tail length truncated during recovery.
	TornBytes int64 `json:"torn_bytes"`
	// Quarantined counts WAL records skipped during recovery because
	// their payload failed its CRC or did not decode.
	Quarantined int64 `json:"quarantined"`
	// Keys is the number of keys currently held.
	Keys int `json:"keys"`
}

// Store is an open control-plane store: the durable log plus the
// in-memory mirror of the keyed state its records encode. Safe for
// concurrent use; one mutex serialises commits so transactions land in a
// total order.
type Store struct {
	opts Options

	mu          sync.Mutex
	log         *wal.Log
	kv          map[string][]byte
	quarantined int64

	watchMu  sync.Mutex
	watchers map[int]chan Event
	nextW    int
}

// ErrCorruptSnapshot reports an unrecoverable snapshot header: the
// sequence fence is gone, so replaying the WAL over a fresh mirror
// could double-apply folded records. Operators must restore the
// directory or move it aside.
var ErrCorruptSnapshot = fmt.Errorf("ctrlplane: store %w", wal.ErrCorruptSnapshot)

// Open opens (creating if absent) the store in dir, recovering its
// state from the snapshot and WAL. A torn WAL tail is truncated; a
// record with an intact header but corrupt payload is quarantined
// (skipped and counted) and the scan continues. Only a corrupt snapshot
// header is unrecoverable, because it carries the sequence fence.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		opts:     opts,
		kv:       make(map[string][]byte),
		watchers: make(map[int]chan Event),
	}
	log, err := wal.Open(dir, layout, opts, s.replay)
	if errors.Is(err, wal.ErrCorruptSnapshot) {
		return nil, ErrCorruptSnapshot
	}
	if err != nil {
		return nil, err
	}
	s.log = log
	return s, nil
}

// replay applies one recovered record to the mirror. A record that is
// corrupt, undecodable, or part of an unreadable snapshot region is
// quarantined as a unit: skipped, counted, reported.
func (s *Store) replay(r wal.Replayed) {
	var err error
	switch {
	case r.Class == wal.Torn:
		err = errors.New("rest of snapshot unreadable")
	case r.Class == wal.CorruptPayload:
		err = errors.New("payload failed CRC")
	case r.Kind == kindEntry:
		var kv kvRec
		if err = wal.DecodeGob(r.Payload, &kv); err == nil {
			s.kv[kv.Key] = kv.Val
		}
	case r.Kind == kindTxn:
		var txn txnRec
		if err = wal.DecodeGob(r.Payload, &txn); err == nil {
			s.applyLocked(txn)
		}
	}
	if err != nil {
		s.quarantined++
		s.opts.Printf("record seq %d quarantined (snapshot=%v): %v", r.Seq, r.Snapshot, err)
	}
}

// applyLocked applies a transaction to the mirror. Caller holds s.mu
// (or is in single-threaded recovery).
func (s *Store) applyLocked(t txnRec) {
	for _, kv := range t.Puts {
		s.kv[kv.Key] = kv.Val
	}
	for _, k := range t.Deletes {
		delete(s.kv, k)
	}
}

// Healthy reports whether the store can still commit (no persistent
// write error, not closed).
func (s *Store) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Healthy()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.log.Stats()
	return Stats{
		Commits:     ls.Appends,
		Syncs:       ls.Syncs,
		Bytes:       ls.Bytes,
		Compactions: ls.Compactions,
		TornBytes:   ls.TornBytes,
		Quarantined: s.quarantined,
		Keys:        len(s.kv),
	}
}

// Seq returns the latest committed sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Seq()
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.kv[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// List returns every key with the given prefix, sorted, with values.
func (s *Store) List(prefix string) []KV {
	s.mu.Lock()
	var out []KV
	for k, v := range s.kv {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, KV{Key: k, Val: append([]byte(nil), v...)})
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// KV is one listed key/value pair.
type KV struct {
	Key string
	Val []byte
}

// Commit durably applies the transaction: one record appended and
// fsynced (through the armed crash points), then applied to the mirror
// and broadcast to watchers. The multi-key atomicity is physical — the
// puts and deletes travel in a single frame, so recovery sees all of
// them or none.
func (s *Store) Commit(t *Txn) error {
	if t.empty() {
		return nil
	}
	payload, err := wal.EncodeGob(t.rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	seq, err := s.log.Append(kindTxn, 0, payload)
	if err == nil {
		err = s.log.Sync()
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.applyLocked(t.rec)
	ev := Event{Seq: seq}
	for _, kv := range t.rec.Puts {
		ev.Puts = append(ev.Puts, kv.Key)
	}
	ev.Deletes = append(ev.Deletes, t.rec.Deletes...)
	needCompact := s.log.CompactDue()
	s.mu.Unlock()

	s.broadcast(ev)
	if needCompact {
		if err := s.Compact(); err != nil {
			s.opts.Printf("auto-compaction failed: %v", err)
		}
	}
	return nil
}

// Compact folds the WAL into a fresh snapshot of the mirror, one entry
// record per key (wal.Log.Compact is the crash-atomic protocol).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.kv))
	for k := range s.kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return s.log.Compact(func(add func(kind uint8, id int64, payload []byte)) error {
		for _, k := range keys {
			payload, err := wal.EncodeGob(kvRec{Key: k, Val: s.kv[k]})
			if err != nil {
				return err
			}
			add(kindEntry, 0, payload)
		}
		return nil
	})
}

// Close syncs and closes the store. The files remain for the next Open.
func (s *Store) Close() error {
	s.mu.Lock()
	err := s.log.Close()
	s.mu.Unlock()

	s.watchMu.Lock()
	for id, ch := range s.watchers {
		close(ch)
		delete(s.watchers, id)
	}
	s.watchMu.Unlock()
	return err
}

// Subscribe registers a watcher fed one Event per committed
// transaction. The channel is buffered; a watcher that falls more than
// buf events behind loses the oldest (watchers observe liveness, the
// store itself is the source of truth). cancel unregisters and closes
// the channel; Close closes every watcher's channel.
func (s *Store) Subscribe(buf int) (ch <-chan Event, cancel func()) {
	if buf <= 0 {
		buf = 64
	}
	c := make(chan Event, buf)
	s.watchMu.Lock()
	id := s.nextW
	s.nextW++
	if s.watchers == nil {
		s.watchers = make(map[int]chan Event)
	}
	s.watchers[id] = c
	s.watchMu.Unlock()
	return c, func() {
		s.watchMu.Lock()
		if c, ok := s.watchers[id]; ok {
			delete(s.watchers, id)
			close(c)
		}
		s.watchMu.Unlock()
	}
}

// Inject broadcasts a synthetic event to every watcher without
// touching the store: the observability plane uses it to push SLO
// burn-rate transitions onto the same /events stream commits ride.
func (s *Store) Inject(ev Event) {
	s.broadcast(ev)
}

// Watchers reports how many subscribers are currently registered — the
// observable the SSE reap path is tested against.
func (s *Store) Watchers() int {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return len(s.watchers)
}

// broadcast fans one commit event out to every watcher, dropping the
// oldest buffered event for a slow one.
func (s *Store) broadcast(ev Event) {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	for _, ch := range s.watchers {
		for {
			select {
			case ch <- ev:
			default:
				select {
				case <-ch:
					continue // dropped the oldest; retry
				default:
				}
			}
			break
		}
	}
}
