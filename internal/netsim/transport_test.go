package netsim

import (
	"reflect"
	"testing"
)

// ackResult classifies what a segment's arrival at a sink meant to its
// source.
type ackResult int

const (
	// ackDelivered: first copy to arrive, segment still outstanding.
	ackDelivered ackResult = iota
	// ackDuplicate: an earlier copy already arrived.
	ackDuplicate
	// ackLateAbandoned: first copy to arrive, but only after the source
	// exhausted the attempt budget and abandoned the segment.
	ackLateAbandoned
)

// ack records one copy's arrival at a sink through ackRun. The first copy
// of an outstanding segment is a delivery; a copy of a segment the timeout
// path already abandoned is a late-after-abandon arrival (no earlier copy
// made it); anything else is a true duplicate. A late-after-abandon
// arrival consumes the abandoned record, so further copies of the same
// segment count as duplicates of it.
func (s *source) ack(seq int64) ackResult {
	delivered, late, _ := s.ackRun(segRun{segment{seq: seq}, 1})
	switch {
	case delivered > 0:
		return ackDelivered
	case late > 0:
		return ackLateAbandoned
	}
	return ackDuplicate
}

// TestWindowRetransmitsLiveStretches drives one source's window through
// partial acks, timeouts, a satellite outage and abandonment. A group's
// live segments share one timer, so a timeout retransmits exactly the
// still-live ones, one run per stretch of consecutive sequence numbers,
// and leaves acked ones alone.
func TestWindowRetransmitsLiveStretches(t *testing.T) {
	cfg := TransportConfig{RTOSec: 1, Backoff: 2, MaxAttempts: 3}
	s := newSource(7, &flowParams{5e6, 1e6, cfg})
	collect := func(runs *[]segRun) func(segRun) {
		return func(r segRun) { *runs = append(*runs, r) }
	}

	var runs []segRun
	if n := s.refGenerate(0, 1, true, collect(&runs)); n != 5 {
		t.Fatalf("generated %d segments, want 5", n)
	}
	s.ack(2)
	s.ack(4)

	// Nothing is due before the group's deadline.
	runs = nil
	if retx, aband := s.expire(0.5, true, collect(&runs)); retx+aband != 0 || len(runs) != 0 {
		t.Fatalf("expire before the deadline retransmitted %d, abandoned %d, emitted %v", retx, aband, runs)
	}

	// At the deadline the live segments 1, 3 and 5 leave as three runs
	// born at 0, and the group's timer backs off to now + 2·RTO.
	retx, _ := s.expire(1, true, collect(&runs))
	want := []segRun{
		{segment{flow: 7, seq: 1, bits: 1e6, born: 0}, 1},
		{segment{flow: 7, seq: 3, bits: 1e6, born: 0}, 1},
		{segment{flow: 7, seq: 5, bits: 1e6, born: 0}, 1},
	}
	if retx != 3 || !reflect.DeepEqual(runs, want) {
		t.Fatalf("first timeout retransmitted %d as %+v, want 3 as %+v", retx, runs, want)
	}
	if g := s.groups[s.head]; g.deadline != 3 || g.attempts != 2 || g.live != 3 {
		t.Fatalf("group after first timeout = %+v, want deadline 3, attempts 2, 3 live", g)
	}

	// A second group opens behind the first; a down satellite holds the
	// first group's timer one RTO out without spending an attempt.
	s.refGenerate(1, 1, true, func(segRun) {})
	runs = nil
	if retx, aband := s.expire(3, false, collect(&runs)); retx+aband != 0 || len(runs) != 0 {
		t.Fatalf("down satellite retransmitted %d, abandoned %d, emitted %v", retx, aband, runs)
	}
	if g := s.groups[s.head]; g.deadline != 4 || g.attempts != 2 {
		t.Fatalf("held group = %+v, want deadline 4, attempts 2", g)
	}

	// The outage held the second group (6–10) to t=4 as well. Acking 3
	// and 5 leaves 1 live, so at t=4 the first group retransmits a run of
	// seq 1 and the second one run of five.
	s.ack(3)
	s.ack(5)
	runs = nil
	retx, _ = s.expire(4, true, collect(&runs))
	want = []segRun{
		{segment{flow: 7, seq: 1, bits: 1e6, born: 0}, 1},
		{segment{flow: 7, seq: 6, bits: 1e6, born: 1}, 5},
	}
	if retx != 6 || !reflect.DeepEqual(runs, want) {
		t.Fatalf("second timeout retransmitted %d as %+v, want 6 as %+v", retx, runs, want)
	}

	// The first group has spent its three attempts: its timeout abandons
	// seq 1, whose straggling copy is then late, not a duplicate.
	runs = nil
	_, aband := s.expire(8, true, collect(&runs))
	if aband != 1 || len(s.abandoned) != 1 || s.abandoned[0] != 1 {
		t.Fatalf("third timeout abandoned %d (record %v), want seq 1", aband, s.abandoned)
	}
	if got := s.ack(1); got != ackLateAbandoned {
		t.Errorf("copy of abandoned seq 1 classified %v, want ackLateAbandoned", got)
	}
	if s.groups[s.head].first != 6 {
		t.Errorf("window front is seq %d after the first group died, want 6", s.groups[s.head].first)
	}
}

// TestWindowBitmapTrimsAcrossWords acks a window spanning several bitmap
// words out of order. Dead groups pop off the front with the words that
// held only them, later groups keep their live bits, and an emptied
// window restarts at the next sequence number.
func TestWindowBitmapTrimsAcrossWords(t *testing.T) {
	s := newSource(1, &flowParams{100e6, 1e6, TransportConfig{RTOSec: 10, Backoff: 2, MaxAttempts: 5}})
	var runs []segRun
	for step := 0; step < 3; step++ {
		s.refGenerate(float64(step), 1, true, func(r segRun) { runs = append(runs, r) })
	}
	// Three groups of 100: seqs 1–100, 101–200, 201–300.
	if len(s.groups) != 3 || s.seq != 300 {
		t.Fatalf("window holds %d groups up to seq %d, want 3 up to 300", len(s.groups), s.seq)
	}

	// The middle group arrives first, whole: the front group still holds
	// the window open.
	if d, l, dup := s.ackRun(runs[1]); d != 100 || l+dup != 0 {
		t.Fatalf("middle group acked %d/%d/%d, want 100 delivered", d, l, dup)
	}
	if s.head != 0 {
		t.Fatalf("window front moved to group %d while group 0 is live", s.head)
	}

	// A run straddling groups 0 and 2 is classified segment by segment:
	// 91–100 delivered, 101–200 duplicates, 201–210 delivered.
	if d, l, dup := s.ackRun(segRun{segment{flow: 1, seq: 91}, 120}); d != 20 || l != 0 || dup != 100 {
		t.Fatalf("straddling run acked %d/%d/%d, want 20/0/100", d, l, dup)
	}

	// The rest of group 0 pops it and its middle neighbour; the bitmap
	// drops the words below seq 201.
	s.ackRun(segRun{segment{flow: 1, seq: 1}, 90})
	if g := s.groups[s.head]; g.first != 201 || g.live != 90 {
		t.Fatalf("window front = %+v, want group at 201 with 90 live", g)
	}
	if s.bitBase > 201 || s.bitBase+64 <= 201 {
		t.Errorf("bitmap starts at seq %d, want the word holding 201", s.bitBase)
	}
	for seq := int64(201); seq <= 300; seq++ {
		if want := seq > 210; s.isLive(seq) != want {
			t.Errorf("isLive(%d) = %v, want %v", seq, !want, want)
		}
	}

	// Emptying the window resets it; the next group starts a fresh bitmap.
	s.ackRun(segRun{segment{flow: 1, seq: 211}, 90})
	if len(s.groups) != 0 || len(s.live) != 0 {
		t.Fatalf("empty window kept %d groups and %d words", len(s.groups), len(s.live))
	}
	s.refGenerate(3, 1, true, func(segRun) {})
	if s.bitBase != 301 || !s.isLive(301) || !s.isLive(400) || s.isLive(401) {
		t.Errorf("restarted window: bitBase %d, live(301)=%v live(400)=%v live(401)=%v",
			s.bitBase, s.isLive(301), s.isLive(400), s.isLive(401))
	}
}
