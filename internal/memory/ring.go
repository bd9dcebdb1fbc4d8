package memory

// slot is one queued request: the index of its transfer in Controller.xfers
// (the transfer carries the kind, stream, tag and enqueue time every request
// of that transfer shares) and its own size, at most RequestGranularity (the
// last request of a transfer may be a partial tail). Queues hold slots by
// value, so a request costs no heap object. A slot is 8 bytes, as wide as a
// pointer: the channel rings are the simulator's largest working set, and a
// 16-byte pointer-and-size slot measured 8–10% more CPU on the catalogue.
type slot struct {
	xf    uint32
	bytes uint32
}

// reqRing is a FIFO of request slots backed by a power-of-two circular
// buffer. It replaces the earlier slice queues whose dequeue was a
// copy(q, q[1:]) shift — O(queue length) per issued request on the hottest
// loop in the simulator. Push and pop here are O(1), and once the buffer has
// grown to the episode's high-water mark the queue allocates nothing.
type reqRing struct {
	buf  []slot // len(buf) is zero or a power of two
	head int    // index of the oldest element
	n    int    // number of queued elements
}

// len returns the number of queued requests.
func (q *reqRing) len() int { return q.n }

// push appends s at the tail, growing the buffer if full.
func (q *reqRing) push(s slot) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = s
	q.n++
}

// pop removes and returns the oldest slot. It panics on an empty ring,
// mirroring a slice-queue's out-of-range panic.
func (q *reqRing) pop() slot {
	if q.n == 0 {
		panic("memory: pop from empty ring")
	}
	s := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return s
}

// reserve sizes an empty ring to hold n slots before it first grows: the
// smallest power of two, at least 8, that is at least n.
func (q *reqRing) reserve(n int) {
	size := 8
	for size < n {
		size *= 2
	}
	q.buf = make([]slot, size)
}

// grow doubles the buffer, unwrapping the live window to the front.
func (q *reqRing) grow() {
	cap2 := len(q.buf) * 2
	if cap2 == 0 {
		cap2 = 8
	}
	nb := make([]slot, cap2)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}
