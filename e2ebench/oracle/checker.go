package oracle

// Checker verifies that every datagram of every flow was delivered exactly
// once, intact and in per-flow order. Senders number each flow's datagrams
// 0, 1, 2, ...; the receiver reports each arrival with Observe and the
// final per-flow send counts with Finish. It is not safe for concurrent use.
type Checker struct {
	next    []uint64 // per flow: next sequence number expected
	ok      uint64   // arrivals that were the next expected of their flow
	skipped uint64   // sequence numbers jumped over (lost, or to arrive late)
	late    uint64   // arrivals below the next expected: duplicate or reordered
	corrupt uint64   // arrivals that failed to decode or named no known flow
}

// NewChecker tracks flows 0..flows-1.
func NewChecker(flows int) *Checker { return &Checker{next: make([]uint64, flows)} }

// Observe records one arrival.
func (c *Checker) Observe(flow uint32, seq uint64) {
	if int(flow) >= len(c.next) {
		c.corrupt++
		return
	}
	switch n := c.next[flow]; {
	case seq == n:
		c.ok++
		c.next[flow] = n + 1
	case seq > n:
		c.ok++
		c.skipped += seq - n
		c.next[flow] = seq + 1
	default:
		c.late++
	}
}

// Corrupt records an arrival that failed to decode.
func (c *Checker) Corrupt() { c.corrupt++ }

// Delivered is the number of arrivals accepted so far.
func (c *Checker) Delivered() uint64 { return c.ok }

// Report is the checker's verdict.
type Report struct {
	Attempted uint64 // datagrams sent
	Failed    uint64 // sent but not delivered exactly once, intact and in order
	Skipped   uint64 // of which: overtaken by a later datagram of their flow
	Late      uint64 // arrivals that were duplicates or out of order
	Corrupt   uint64 // arrivals that failed to decode
	Missing   uint64 // datagrams sent but never seen at all
}

// Finish compares the arrivals with sent, the per-flow count of datagrams
// sent. Every sent datagram that was not accepted in order counts as
// failed; an accepted arrival the sender never sent counts as corrupt.
func (c *Checker) Finish(sent []uint64) Report {
	r := Report{Skipped: c.skipped, Late: c.late, Corrupt: c.corrupt}
	for f, n := range sent {
		r.Attempted += n
		var next uint64
		if f < len(c.next) {
			next = c.next[f]
		}
		if next > n {
			r.Corrupt += next - n
			next = n
		}
		r.Missing += n - next
	}
	ok := c.ok
	if ok > r.Attempted {
		ok = r.Attempted
	}
	r.Failed = r.Attempted - ok
	return r
}
