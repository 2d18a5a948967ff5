package oracle

import "testing"

func TestCheckerCleanRun(t *testing.T) {
	c := NewChecker(2)
	for s := uint64(0); s < 5; s++ {
		c.Observe(0, s)
		c.Observe(1, s)
	}
	r := c.Finish([]uint64{5, 5})
	if r.Attempted != 10 || r.Failed != 0 || r.Missing != 0 || r.Late != 0 {
		t.Fatalf("clean run reported %+v", r)
	}
}

func TestCheckerCountsEachFaultOnce(t *testing.T) {
	c := NewChecker(3)
	// Flow 0: seq 1 lost.
	c.Observe(0, 0)
	c.Observe(0, 2)
	// Flow 1: seq 0 and 1 swapped.
	c.Observe(1, 1)
	c.Observe(1, 0)
	// Flow 2: seq 0 duplicated, seq 1 never arrives, one corrupt arrival.
	c.Observe(2, 0)
	c.Observe(2, 0)
	c.Corrupt()
	r := c.Finish([]uint64{3, 2, 2})
	// Accepted in order: f0 {0,2}, f1 {1}, f2 {0} = 4 of 7 sent.
	if r.Attempted != 7 || r.Failed != 3 {
		t.Fatalf("attempted %d failed %d, want 7 and 3 (%+v)", r.Attempted, r.Failed, r)
	}
	if r.Skipped != 2 || r.Late != 2 || r.Missing != 1 || r.Corrupt != 1 {
		t.Fatalf("fault breakdown %+v, want skipped 2, late 2, missing 1, corrupt 1", r)
	}
}

func TestCheckerUnknownFlowAndPhantomArrival(t *testing.T) {
	c := NewChecker(1)
	c.Observe(7, 0) // no such flow
	c.Observe(0, 0)
	c.Observe(0, 1) // never sent
	r := c.Finish([]uint64{1})
	if r.Failed != 0 || r.Corrupt != 2 {
		t.Fatalf("report %+v, want failed 0 and corrupt 2", r)
	}
}
