package netsim

import (
	"math/bits"
	"slices"
)

// calendar files IDs 0..n−1 by the step they next come due at. Each step
// holds one circular, doubly linked list (its head's prev is its tail), so
// filing or moving an ID costs O(1), a step's take costs its own IDs, and
// no stale entry is left to skip. The caller keeps the step each ID is
// filed at and passes it back to move the ID.
type calendar struct {
	head []int32 // per step: 1 + the first ID filed there, or 0
	// link holds each ID's next in its first half and its prev in its
	// second; a graph's IDs stay far below 2^31.
	link []int32
}

// newCalendar makes a calendar of ids IDs and steps steps in one allocation.
func newCalendar(ids, steps int) *calendar {
	b := make([]int32, steps+1+2*ids)
	return &calendar{head: b[:steps+1], link: b[steps+1:]}
}

// file moves id from step from to the end of step to's list, 0 standing
// for neither.
func (c *calendar) file(id, from, to int) {
	next, prev := c.link[:len(c.link)/2], c.link[len(c.link)/2:]
	if from != 0 {
		n, p := next[id], prev[id]
		next[p], prev[n] = n, p
		switch {
		case n == int32(id):
			c.head[from] = 0 // id was alone
		case c.head[from] == int32(id)+1:
			c.head[from] = n + 1
		}
	}
	if to != 0 {
		first := c.head[to] - 1
		if first < 0 { // a list of one: id is its own neighbour
			c.head[to], first, prev[id] = int32(id)+1, int32(id), int32(id)
		}
		last := prev[first]
		next[last], prev[id], next[id], prev[first] = int32(id), last, first, int32(id)
	}
}

// take empties step's list and returns its IDs in ascending order in *buf,
// the caller's reused buffer; a nil calendar holds none. A list filed out
// of order is sorted by a sweep of a bitmap over its ID range when it
// holds 64 IDs or more and at least one per word (a retransmission wave's
// interleaved runs), else in place (fault clocks filed on other steps).
func (c *calendar) take(step int, buf *[]int) []int {
	if c == nil {
		return nil
	}
	h, due := int(c.head[step])-1, (*buf)[:0]
	c.head[step] = 0
	for id := h; id >= 0; {
		due = append(due, id)
		if id = int(c.link[id]); id == h { // its next
			break
		}
	}
	if *buf = due; slices.IsSorted(due) {
		return due
	}
	lo, hi := slices.Min(due)&^63, slices.Max(due)
	if len(due) < 64 || (hi-lo)>>6 >= len(due) {
		slices.Sort(due)
		return due
	}
	mark := make([]uint64, (hi-lo)>>6+1)
	for _, id := range due {
		mark[(id-lo)>>6] |= 1 << ((id - lo) & 63)
	}
	due = due[:0]
	for w, m := range mark {
		for ; m != 0; m &= m - 1 {
			due = append(due, lo+w<<6+bits.TrailingZeros64(m))
		}
	}
	return due
}

// dueStep returns the first step in [from, steps] whose time, float64(step)
// × dt as Run computes it, reaches t, or 0 if none does (t past the last
// step, +Inf or NaN). t/dt rounds to below that step plus one, so the
// count starts at or before it.
func dueStep(t, dt float64, from, steps int) int {
	if !(t <= float64(steps)*dt) || from > steps {
		return 0
	}
	at := max(int(t/dt), from)
	for float64(at)*dt < t {
		at++
	}
	return at
}
