package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hpfq"
	"hpfqbench/oracle"
)

// Workload names.
const (
	wFlat   = "gw-flat-small"
	wFig1   = "gw-fig1-paced"
	wEngine = "engine-tree-10k"
)

var workloadNames = []string{wFlat, wFig1, wEngine}

// Fig. 1 of the paper: A1 takes half of a 45 Mbit/s link and splits it 60/40
// between a real-time class (RT, class 0) and a best-effort class (BE,
// class 1); ten more agencies (classes 2..11) take 5 % each.
const (
	fig1Rate     = 45e6
	fig1Classes  = 12
	fig1FlowsPer = 80  // client flows per class: 960 in all, under hpfqgw's default -maxflows 1024
	fig1Size     = 500 // bytes per datagram
	// fig1Greedy bounds the greedy datagrams in flight. hpfqgw's listen
	// socket (the kernel default, 208 KB) holds about 166 datagrams of
	// 500 B; with this many in flight, the RT source has to fall some
	// 55 ms behind before a bunching of the load could overrun it. Each
	// class still holds about 7 ms of its service.
	fig1Greedy = 72
	// fig1RTLoad is RT's offered load as a share of the link: half of its
	// 0.5 × 0.6 = 0.30 guarantee, so RT is never backlogged for long and
	// its unused guarantee goes to BE.
	fig1RTLoad = 0.15
	// gatewayBurst is hpfqgw's token-bucket depth: 5 ms of the link.
	gatewayBurstSec = 0.005
)

// flat-small: bare forwarding of the smallest datagrams with no pacing.
const (
	flatFlows  = 16
	flatSize   = 64
	flatWindow = 64 // datagrams in flight, over all flows
	flatRate   = 1e12
)

// engine-tree-10k: a seeded three-level tree of 16 × 25 × 25 leaves.
const (
	engFanout1, engFanout2, engFanout3 = 16, 25, 25
	engMinSize, engMaxSize             = 64, 1400
	engDepth                           = 3 // datagrams staged per leaf
	engRate                            = 1e12
	// engBurst bounds one pump release to about 44 datagrams of the mean
	// size, so a release takes a small slice of a 30 000-datagram backlog
	// and every leaf stays backlogged while it is written.
	engBurst = 256e3
)

func fig1Spec() string {
	var b strings.Builder
	b.WriteString("root=1(A1=50(RT=60:0,BE=40:1)")
	for c := 2; c < fig1Classes; c++ {
		fmt.Fprintf(&b, ",A%d=5:%d", c, c)
	}
	b.WriteString(")")
	return b.String()
}

// fig1Oracle is the same tree as the oracle sees it, with RT's offered load.
func fig1Oracle() *oracle.Tree {
	root := &oracle.Tree{Name: "root", Weight: 1, Children: []*oracle.Tree{
		{Name: "A1", Weight: 50, Children: []*oracle.Tree{
			{Name: "RT", Weight: 60, Class: 0, Demand: fig1RTLoad},
			{Name: "BE", Weight: 40, Class: 1, Demand: oracle.Greedy},
		}},
	}}
	for c := 2; c < fig1Classes; c++ {
		root.Children = append(root.Children, &oracle.Tree{Name: fmt.Sprintf("A%d", c), Weight: 5, Class: c, Demand: oracle.Greedy})
	}
	return root
}

// fig1Windows gives each greedy class a window in proportion to its
// H-GPS share, about fig1Greedy datagrams in all: every class then holds
// about the same time of service, so a stall of the generator drains them
// all together and leaves their shares alone.
func fig1Windows() map[uint16]int {
	shares, err := oracle.HGPSShares(fig1Oracle())
	if err != nil {
		panic(err)
	}
	greedy := 1 - shares[0]
	w := make(map[uint16]int)
	for c := 1; c < fig1Classes; c++ {
		w[uint16(c)] = int(math.Round(fig1Greedy * shares[c] / greedy))
	}
	return w
}

// genFlow is one client flow of a gateway workload.
type genFlow struct {
	Class    uint16
	ClassIdx uint8 // index in the gateway's sorted class list (byte0 classifier)
	Size     int
	Greedy   bool // closed loop; otherwise part of the open-loop CBR source
}

// genSpec is everything the load generator needs; the orchestrator builds
// it from the seed and hands it over as JSON.
type genSpec struct {
	Flows   []genFlow
	Windows map[uint16]int // datagrams in flight per greedy class
	RTPPS   float64        // open-loop rate over the non-greedy flows
	// Warm-up and ramp: flows are warmed WarmGroup at a time, each group
	// delivered before the next; windows then open RampChunk credits every
	// RampEveryMS, so no burst of new-flow datagrams overruns the gateway's
	// socket buffer.
	WarmGroup   int
	RampChunk   int
	RampEveryMS float64
	SettleMS    float64 // after the ramp, before the measured window
	// SliceMS is the slice length: short enough that some slices miss the
	// machine's bursts of lost CPU, long enough to hold more than a
	// thousand latency samples, so a slice's p99 has ten beyond it.
	SliceMS float64
	// SendCapPPS caps the generator's send rate (0 = none); see throttle.
	SendCapPPS float64
}

// gatewayArgs are the hpfqgw flags of a workload.
func gatewayArgs(w, upstream string, metrics bool) []string {
	args := []string{"-listen", "127.0.0.1:0", "-upstream", upstream}
	switch w {
	case wFlat:
		args = append(args, "-rate", fmt.Sprint(flatRate), "-classes", fmt.Sprintf("0=%g", flatRate))
	case wFig1:
		args = append(args, "-rate", fmt.Sprint(fig1Rate), "-topo", fig1Spec(), "-classify", "byte0")
		metrics = true
	}
	if metrics {
		args = append(args, "-metrics")
	}
	return args
}

func gatewaySpec(w string, seed int64) genSpec {
	rng := rand.New(rand.NewSource(seed))
	switch w {
	case wFlat:
		s := genSpec{Windows: map[uint16]int{0: flatWindow}, WarmGroup: flatFlows, RampChunk: flatWindow, RampEveryMS: 1, SettleMS: 200, SliceMS: 100}
		for range flatFlows {
			s.Flows = append(s.Flows, genFlow{Size: flatSize, Greedy: true})
		}
		return s
	case wFig1:
		// Exactly fig1FlowsPer flows per class; which flow (source port
		// order) gets which class is drawn from the seed.
		classes := make([]int, 0, fig1Classes*fig1FlowsPer)
		for c := range fig1Classes {
			for range fig1FlowsPer {
				classes = append(classes, c)
			}
		}
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		s := genSpec{
			Windows:     fig1Windows(),
			RTPPS:       fig1RTLoad * fig1Rate / (fig1Size * 8),
			WarmGroup:   48,
			RampChunk:   24,
			RampEveryMS: 2,
			SettleMS:    300,
			SliceMS:     1000,
			// Twice the link's datagram rate: never reached in steady
			// state, but it spreads out the catch-up after a stall.
			SendCapPPS: 2 * fig1Rate / (fig1Size * 8),
		}
		for _, c := range classes {
			s.Flows = append(s.Flows, genFlow{Class: uint16(c), ClassIdx: uint8(c), Size: fig1Size, Greedy: c != 0})
		}
		return s
	}
	panic("gatewaySpec: not a gateway workload: " + w)
}

// engineTree is a workload's scheduling tree for the in-process engine:
// the program's topology, the oracle's copy of it, and each leaf's
// datagram size and staging depth.
type engineTree struct {
	top    *hpfq.Topology // nil: flat mode, one AddClass per leaf
	oracle *oracle.Tree
	leaves []engLeaf // indexed by class id
	depth  int       // datagrams kept staged per leaf
}

type engLeaf struct {
	class int
	size  int
}

// tenKTree draws the engine workload's tree from the seed: three levels
// with weights uniform in [1, 4) at every node and a datagram size uniform
// in [64, 1400] B per leaf.
func tenKTree(seed int64) engineTree {
	rng := rand.New(rand.NewSource(seed))
	weight := func() float64 { return 1 + 3*rng.Float64() }
	var (
		leaves []engLeaf
		top    []*hpfq.Topology
		orc    []*oracle.Tree
	)
	for i := range engFanout1 {
		var t2 []*hpfq.Topology
		var o2 []*oracle.Tree
		for j := range engFanout2 {
			var t3 []*hpfq.Topology
			var o3 []*oracle.Tree
			for k := range engFanout3 {
				class := len(leaves)
				name := fmt.Sprintf("l%d.%d.%d", i, j, k)
				w := weight()
				t3 = append(t3, hpfq.Leaf(name, w, class))
				o3 = append(o3, &oracle.Tree{Name: name, Weight: w, Class: class, Demand: oracle.Greedy})
				leaves = append(leaves, engLeaf{class: class, size: engMinSize + rng.Intn(engMaxSize-engMinSize+1)})
			}
			name := fmt.Sprintf("n%d.%d", i, j)
			w := weight()
			t2 = append(t2, hpfq.Interior(name, w, t3...))
			o2 = append(o2, &oracle.Tree{Name: name, Weight: w, Children: o3})
		}
		name := fmt.Sprintf("n%d", i)
		w := weight()
		top = append(top, hpfq.Interior(name, w, t2...))
		orc = append(orc, &oracle.Tree{Name: name, Weight: w, Children: o2})
	}
	return engineTree{
		top:    hpfq.Interior("root", 1, top...),
		oracle: &oracle.Tree{Name: "root", Weight: 1, Children: orc},
		leaves: leaves,
		depth:  engDepth,
	}
}

// engineTreeOf is the tree a workload's datagrams meet inside the engine,
// every leaf kept backlogged: the in-process layer measurements of the
// gateway workloads run on it.
func engineTreeOf(w string, seed int64) engineTree {
	switch w {
	case wFlat:
		// hpfqgw -classes runs the engine in flat mode.
		return engineTree{
			oracle: &oracle.Tree{Name: "root", Weight: 1, Children: []*oracle.Tree{{Name: "c0", Weight: 1, Demand: oracle.Greedy}}},
			leaves: []engLeaf{{class: 0, size: flatSize}},
			depth:  flatWindow,
		}
	case wFig1:
		top, err := hpfq.ParseTopology(fig1Spec())
		if err != nil {
			panic(err)
		}
		orc := fig1Oracle()
		orc.Children[0].Children[0].Demand = oracle.Greedy
		t := engineTree{top: top, oracle: orc, depth: fig1FlowsPer}
		for c := range fig1Classes {
			t.leaves = append(t.leaves, engLeaf{class: c, size: fig1Size})
		}
		return t
	}
	return tenKTree(seed)
}

func (t engineTree) meanSize() int {
	s := 0
	for _, l := range t.leaves {
		s += l.size
	}
	return s / len(t.leaves)
}
