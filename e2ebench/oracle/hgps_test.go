package oracle

import (
	"math"
	"testing"
)

// fig1 is the paper's Fig. 1 agency tree: A1 takes half the link and splits
// it 60/40 between a real-time and a best-effort class; ten more agencies
// take 5 % each.
func fig1(rtDemand float64) *Tree {
	a1 := &Tree{Name: "A1", Weight: 50, Children: []*Tree{
		{Name: "RT", Weight: 60, Class: 0, Demand: rtDemand},
		{Name: "BE", Weight: 40, Class: 1, Demand: Greedy},
	}}
	root := &Tree{Name: "root", Weight: 1, Children: []*Tree{a1}}
	for i := 2; i <= 11; i++ {
		root.Children = append(root.Children, &Tree{Name: "A", Weight: 5, Class: i, Demand: Greedy})
	}
	return root
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestHGPSFig1HalfRT(t *testing.T) {
	got, err := HGPSShares(fig1(0.15))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{0: 0.15, 1: 0.35}
	for i := 2; i <= 11; i++ {
		want[i] = 0.05
	}
	for c, w := range want {
		if !near(got[c], w) {
			t.Errorf("class %d: share %v, want %v", c, got[c], w)
		}
	}
}

func TestHGPSAllGreedyIsWeightProduct(t *testing.T) {
	got, err := HGPSShares(fig1(Greedy))
	if err != nil {
		t.Fatal(err)
	}
	if !near(got[0], 0.30) || !near(got[1], 0.20) || !near(got[7], 0.05) {
		t.Errorf("greedy Fig. 1 shares %v, want RT 0.30, BE 0.20, agencies 0.05", got)
	}
}

// An idle agency's share goes to its siblings by weight, across levels.
func TestHGPSIdleSubtreeRedistributes(t *testing.T) {
	tr := fig1(Greedy)
	for _, c := range tr.Children[1:] {
		c.Demand = 0
	}
	got, err := HGPSShares(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !near(got[0], 0.6) || !near(got[1], 0.4) {
		t.Errorf("shares with idle agencies %v, want RT 0.6, BE 0.4", got)
	}
}

func TestHGPSRejectsBadWeight(t *testing.T) {
	tr := fig1(Greedy)
	tr.Children[3].Weight = 0
	if _, err := HGPSShares(tr); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestDepth(t *testing.T) {
	if d := fig1(Greedy).Depth(); d != 2 {
		t.Fatalf("Fig. 1 depth %d, want 2", d)
	}
}
