// Package oracle holds the benchmark's reference computations. None of it
// calls into hpfq: the share calculator, the payload codec and the delivery
// checker are written apart from the program they judge, so a fault in the
// program cannot hide behind the same fault in its checker.
package oracle

import (
	"fmt"
	"math"
)

// Tree is a link-sharing tree as the oracle sees it: a weight relative to
// its siblings and, for a leaf, a class id and an offered load.
type Tree struct {
	Name     string
	Weight   float64
	Class    int     // leaves only
	Demand   float64 // leaves only: offered share of the link; +Inf = greedy
	Children []*Tree
}

// Greedy is the demand of a leaf that always has work queued.
var Greedy = math.Inf(1)

// HGPSShares returns each leaf's share of the link under H-GPS: every node
// divides what it receives among its children in proportion to their
// weights, and a child that wants less than its proportion keeps only what
// it wants, the rest going to its siblings by weight (hierarchical max-min
// fairness). Shares are fractions of the link and sum to min(1, total
// demand).
func HGPSShares(root *Tree) (map[int]float64, error) {
	if err := root.validate(); err != nil {
		return nil, err
	}
	out := make(map[int]float64)
	root.allocate(1, out)
	return out, nil
}

func (t *Tree) validate() error {
	if !(t.Weight > 0) || math.IsInf(t.Weight, 0) {
		return fmt.Errorf("oracle: node %q: weight %v must be positive and finite", t.Name, t.Weight)
	}
	if len(t.Children) == 0 && !(t.Demand >= 0) {
		return fmt.Errorf("oracle: leaf %q: demand %v must be non-negative", t.Name, t.Demand)
	}
	for _, c := range t.Children {
		if err := c.validate(); err != nil {
			return err
		}
	}
	return nil
}

// want is the most the subtree can use: the sum of its leaves' demands.
func (t *Tree) want() float64 {
	if len(t.Children) == 0 {
		return t.Demand
	}
	var s float64
	for _, c := range t.Children {
		s += c.want()
	}
	return s
}

// allocate hands capacity c to t's subtree by weighted water-filling.
func (t *Tree) allocate(c float64, out map[int]float64) {
	if len(t.Children) == 0 {
		out[t.Class] = math.Min(c, t.Demand)
		return
	}
	open := append([]*Tree(nil), t.Children...)
	for {
		var wsum float64
		for _, ch := range open {
			wsum += ch.Weight
		}
		// Children whose whole want fits in their proportion are satisfied
		// and leave the rest to the others; repeat until none is.
		var keep []*Tree
		for _, ch := range open {
			if w := ch.want(); w <= c*ch.Weight/wsum {
				ch.allocate(w, out)
				c -= w
			} else {
				keep = append(keep, ch)
			}
		}
		if len(keep) == len(open) {
			for _, ch := range open {
				ch.allocate(c*ch.Weight/wsum, out)
			}
			return
		}
		if open = keep; len(open) == 0 {
			return
		}
	}
}

// Depth is the number of scheduling levels above the deepest leaf.
func (t *Tree) Depth() int {
	d := 0
	for _, c := range t.Children {
		if cd := c.Depth() + 1; cd > d {
			d = cd
		}
	}
	return d
}
