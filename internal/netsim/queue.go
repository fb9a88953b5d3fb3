package netsim

// Queue is a bounded FIFO. The kernel uses it for listen-socket SYN and
// accept queues and for per-process protocol queues. A zero capacity
// means unbounded (used for the baseline interrupt queue, whose unbounded
// growth is exactly the receive-livelock failure mode).
//
// The queue is a ring buffer: Push, PushFront, Pop and Peek are all O(1).
// The backing array grows on demand. When the queue drains, an array of
// more than keepCap slots is released, so a transient backlog cannot pin
// memory forever; a smaller one is kept, so a queue that oscillates
// between empty and a few items does not reallocate.
type Queue[T any] struct {
	buf   []T
	head  int // index of the oldest item
	n     int // number of queued items
	cap   int // capacity bound (0 = unbounded)
	hi    int // high-water mark of n
	drops uint64
}

// NewQueue returns a queue bounded at capacity (0 = unbounded).
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{cap: capacity}
}

// grow ensures room for one more item.
func (q *Queue[T]) grow() {
	if q.n < len(q.buf) {
		return
	}
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// Push appends v, or drops it (counting the drop) when the queue is full.
// It reports whether the item was accepted.
func (q *Queue[T]) Push(v T) bool {
	if q.cap > 0 && q.n >= q.cap {
		q.drops++
		return false
	}
	q.grow()
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	if q.n > q.hi {
		q.hi = q.n
	}
	return true
}

// PushFront prepends v. It deliberately BYPASSES the capacity bound: it
// exists to return borrowed (partially processed) work to the head of the
// queue, and rejecting that work would lose it. The queue may therefore
// briefly exceed Cap() — by at most the number of items concurrently
// borrowed (one per servicing thread) — and Full() reports true for it,
// so subsequent Push calls drop as usual. Invariant checkers watching the
// bound must allow that slack.
func (q *Queue[T]) PushFront(v T) {
	q.grow()
	q.head = (q.head - 1 + len(q.buf)) % len(q.buf)
	q.buf[q.head] = v
	q.n++
	if q.n > q.hi {
		q.hi = q.n
	}
}

// Pop removes and returns the oldest item.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // release reference
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	if q.n == 0 {
		// Release a large backing array so a drained queue cannot pin the
		// memory of its worst-case backlog. Small buffers are kept: queues
		// that oscillate between empty and a few items (the steady-state
		// pattern for protocol queues) must not reallocate on every cycle.
		if len(q.buf) > keepCap {
			q.buf = nil
		}
		q.head = 0
	}
	return v, true
}

// keepCap is the largest backing array a drained queue retains.
const keepCap = 64

// PopInto removes up to len(dst) of the oldest items into dst and
// returns how many it delivered — batched event delivery, one call
// instead of a Pop per item for servers draining a deep backlog.
func (q *Queue[T]) PopInto(dst []T) int {
	var zero T
	n := len(dst)
	if n > q.n {
		n = q.n
	}
	for i := 0; i < n; i++ {
		dst[i] = q.buf[q.head]
		q.buf[q.head] = zero // release reference
		q.head = (q.head + 1) % len(q.buf)
	}
	q.n -= n
	if q.n == 0 {
		if len(q.buf) > keepCap {
			q.buf = nil
		}
		q.head = 0
	}
	return n
}

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest item without removing it; i must be in
// [0, Len()).
func (q *Queue[T]) At(i int) T { return q.buf[(q.head+i)%len(q.buf)] }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the capacity (0 = unbounded). PushFront may briefly exceed
// it; see PushFront.
func (q *Queue[T]) Cap() int { return q.cap }

// Full reports whether a Push would drop.
func (q *Queue[T]) Full() bool { return q.cap > 0 && q.n >= q.cap }

// Drops returns how many items have been rejected.
func (q *Queue[T]) Drops() uint64 { return q.drops }

// HighWater returns the deepest the queue has ever been — the worst-case
// backlog a telemetry sample between drains would otherwise miss.
func (q *Queue[T]) HighWater() int { return q.hi }

// Clear empties the queue without counting drops.
func (q *Queue[T]) Clear() {
	q.buf = nil
	q.head = 0
	q.n = 0
}
