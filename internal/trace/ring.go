package trace

import "sync"

// Ring is a bounded ring of the most recent values put into it, safe
// for concurrent use: one mutex acquisition and one slot write per Put,
// evicting the oldest value once full. It backs the event and span
// rings of a Recorder and the flight recorder's black box. The buffer
// is allocated on the first Put, so an armed but idle ring costs only
// its header.
type Ring[T any] struct {
	mu    sync.Mutex
	size  int
	buf   []T
	next  int
	total uint64
}

// NewRing creates a ring keeping the most recent capacity values
// (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{size: max(capacity, 1)}
}

// Put appends v, evicting the oldest value when the ring is full.
func (r *Ring[T]) Put(v T) {
	r.mu.Lock()
	r.put(v)
	r.mu.Unlock()
}

// put is Put for a caller holding r.mu.
func (r *Ring[T]) put(v T) {
	if r.buf == nil {
		r.buf = make([]T, r.size)
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.size
	r.total++
}

// Len reports how many values are currently retained.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.total, uint64(r.size)))
}

// Total reports how many values were ever put, evicted ones included.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the retained values oldest first, together with
// Total at the same instant: the i-th value is the
// (total-len+i+1)-th ever put.
func (r *Ring[T]) Snapshot() ([]T, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(r.size) {
		return append([]T(nil), r.buf[:r.total]...), r.total
	}
	out := make([]T, 0, r.size)
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...), r.total
}
