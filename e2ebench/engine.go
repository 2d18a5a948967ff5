package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hpfq"
	"hpfqbench/oracle"
)

// engineOpts configures one in-process engine run.
type engineOpts struct {
	setups  int           // set-ups timed; the last one goes on to the measured phase
	warm    time.Duration // after the backlog is built, before the window
	measure time.Duration // the measured window
	metrics bool          // WithDataplaneMetrics
	trace   bool          // alternate traced and untraced 1 s slices
}

// engineResult is what one engine run measured.
type engineResult struct {
	SetupS, NewS   []float64
	RSSAfterSetup  float64
	Delivered      int64   // datagrams written in the window
	Seconds        float64 // window length
	CPU            time.Duration
	User, Sys      time.Duration
	Ctxsw          int64
	Mallocs, Bytes uint64
	SlicePPS       []float64 // per one-second slice of the window
	SliceCPU       []float64 // µs of process CPU per datagram, per slice
	SliceP50Us     []float64
	SliceP99Us     []float64
	LatN           uint64
	Batches        int64
	BatchPkts      int64
	PumpGapNs      int64
	Report         oracle.Report
	IngestFailed   uint64
	FairWorst      float64 // worst |W_i − φ_i W| as a share of the WF²Q+ bound
	FairLeaf       int
	// Traced slices only.
	IngestNs, IngestN     int64
	HarnessNs, HarnessPkt int64
	Lag                   *hist
	OverheadPct           float64
	spans                 *spanLog
}

// engWriter is the engine's PacketBatchWriter. It checks every datagram it
// is handed, counts it, and refills its leaf with the same buffer, so every
// leaf keeps its backlog. Everything but the atomics belongs to the pump
// goroutine once refilling is on.
type engWriter struct {
	dp      *hpfq.Dataplane
	tree    engineTree
	bufs    [][][]byte // [leaf][depth]: each leaf's buffers, fill in place
	fillSum []uint64
	sent    []uint64
	chk     *oracle.Checker
	epoch   time.Time

	// refill turns on re-ingesting each written datagram's leaf; while
	// topping is set the main goroutine is still building the backlog and
	// both sides take mu around sequence numbering and Ingest.
	refill, topping atomic.Bool
	mu              sync.Mutex

	first     []bool
	firstLeft int
	allFirst  chan struct{}

	winStart, winEnd atomic.Int64
	delivered        atomic.Int64
	calls            atomic.Int64 // WriteBatch calls
	traceOn          atomic.Bool
	spans            *spanLog

	sliceLat                              []*hist // latency per slice of the window
	lag                                   *hist
	leafBits                              []float64
	batches, batchPkts, pumpGap, lastEnd  int64
	ingestNs, ingestN, harnessNs, harnPkt int64
	ingestFailed                          uint64
}

func (w *engWriter) now() int64 { return int64(time.Since(w.epoch)) }

func (w *engWriter) inWindow(t int64) bool {
	s, e := w.winStart.Load(), w.winEnd.Load()
	return s > 0 && t >= s && (e == 0 || t < e)
}

// WritePacket completes the PacketWriter contract; the pump prefers
// WriteBatch.
func (w *engWriter) WritePacket(b []byte) (int, error) {
	_, err := w.WriteBatch([]hpfq.PacketDatagram{{B: b}})
	return len(b), err
}

func (w *engWriter) WriteBatch(pkts []hpfq.PacketDatagram) (int, error) {
	t := w.now()
	in := w.inWindow(t)
	traced := in && w.traceOn.Load()
	if in && w.lastEnd > 0 {
		w.pumpGap += t - w.lastEnd
		w.batches++
		w.batchPkts += int64(len(pkts))
	}
	var ingestNs int64
	for i := range pkts {
		b := pkts[i].B
		h, err := oracle.Decode(b)
		if err != nil {
			w.chk.Corrupt()
			continue
		}
		w.chk.Observe(h.Flow, h.Seq)
		leaf := int(h.Flow)
		if in {
			w.sliceLat[(t-w.winStart.Load())/engineSlice].add(t - h.Due)
			w.leafBits[leaf] += float64(8 * len(b))
		}
		if !w.first[leaf] {
			w.first[leaf] = true
			if w.firstLeft--; w.firstLeft == 0 {
				close(w.allFirst)
			}
		}
		if w.refill.Load() {
			if traced {
				w.lag.add(w.now() - t)
				w.spans.add(datagramID(h.Flow, h.Seq), "dataplane.staged", "dataplane.Ingest", h.Due, t)
			}
			ingestNs += w.ingest(leaf, b, traced)
		}
	}
	end := w.now()
	if in {
		w.delivered.Add(int64(len(pkts)))
	}
	if traced {
		if len(pkts) > 0 {
			h, _ := oracle.Decode(pkts[0].B)
			w.spans.add(datagramID(h.Flow, h.Seq), "writer.WriteBatch", "", t, end)
		}
		w.harnessNs += end - t - ingestNs
		w.harnPkt += int64(len(pkts))
	}
	w.lastEnd = end
	w.calls.Add(1)
	return len(pkts), nil
}

// ingest stamps b as leaf's next datagram and stages it; it returns the
// time spent inside Ingest when traced.
func (w *engWriter) ingest(leaf int, b []byte, traced bool) int64 {
	if w.topping.Load() {
		w.mu.Lock()
		defer w.mu.Unlock()
	}
	seq := w.sent[leaf]
	l := w.tree.leaves[leaf]
	oracle.Encode(b, oracle.Header{Class: uint16(l.class), Flow: uint32(leaf), Seq: seq, Due: w.now()}, w.fillSum[leaf])
	t0 := w.now()
	err := w.dp.Ingest(l.class, b)
	t1 := w.now()
	if err != nil {
		w.ingestFailed++
		return 0
	}
	w.sent[leaf]++
	if !traced {
		return 0
	}
	w.ingestNs += t1 - t0
	w.ingestN++
	w.spans.add(datagramID(uint32(leaf), seq), "dataplane.Ingest", "", t0, t1)
	return t1 - t0
}

// engineSlice is the engine workload's slice: a second holds some 200 000
// datagrams, and its p99 latency (most of a second) fits in it.
const engineSlice = int64(time.Second)

// runEngine drives hpfq.NewDataplane over tree with no pacing: the link
// rate is far above what one CPU can push, and the burst bounds each
// release to a small slice of the backlog.
func runEngine(tree engineTree, o engineOpts) (*engineResult, error) {
	n := len(tree.leaves)
	w := &engWriter{
		tree:     tree,
		bufs:     make([][][]byte, n),
		fillSum:  make([]uint64, n),
		sent:     make([]uint64, n),
		chk:      oracle.NewChecker(n),
		epoch:    time.Now(),
		lag:      new(hist),
		leafBits: make([]float64, n),
	}
	w.spans = newSpanLog()
	for i, l := range tree.leaves {
		w.bufs[i] = make([][]byte, tree.depth)
		for k := range w.bufs[i] {
			b := make([]byte, l.size)
			oracle.Fill(b, uint32(i))
			w.bufs[i][k] = b
		}
		w.fillSum[i] = oracle.FillSum(w.bufs[i][0])
	}
	opts := []hpfq.DataplaneOption{hpfq.WithBurst(engBurst), hpfq.WithQueueCap(0)}
	if tree.top != nil {
		opts = append(opts, hpfq.WithTopology(tree.top))
	}
	if o.metrics {
		opts = append(opts, hpfq.WithDataplaneMetrics())
	}
	res := &engineResult{Lag: w.lag, spans: w.spans}
	for k := range o.setups {
		runtime.GC()
		w.first = make([]bool, n)
		w.firstLeft = n
		w.allFirst = make(chan struct{})
		t := time.Now()
		dp, err := hpfq.NewDataplane(hpfq.WF2QPlus, engRate, opts...)
		if err != nil {
			return nil, err
		}
		res.NewS = append(res.NewS, time.Since(t).Seconds())
		if tree.top == nil {
			for _, l := range tree.leaves {
				if err := dp.AddClass(l.class, engRate); err != nil {
					return nil, err
				}
			}
		}
		w.dp = dp
		if err := dp.Start(w); err != nil {
			return nil, err
		}
		for leaf := range n {
			w.ingest(leaf, w.bufs[leaf][0], false)
		}
		select {
		case <-w.allFirst:
		case <-time.After(60 * time.Second):
			return nil, fmt.Errorf("engine set-up: not every leaf written within 60 s")
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
		if k < o.setups-1 {
			if err := dp.Close(); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if res.RSSAfterSetup, err = procRSSMB(0); err != nil {
		return nil, err
	}

	// Build the backlog: depth datagrams per leaf, refilled as written.
	w.topping.Store(true)
	w.refill.Store(true)
	for leaf := range n {
		for k := range tree.depth {
			w.ingest(leaf, w.bufs[leaf][k], false)
		}
	}
	w.topping.Store(false)
	time.Sleep(o.warm)

	// The window is whole one-second slices; per-run figures are medians
	// over them. Traced runs trace every odd slice, and tracing's cost is
	// the difference in CPU per datagram between odd and even slices.
	nSlices := max(1, int(int64(o.measure)/engineSlice))
	w.sliceLat = make([]*hist, nSlices)
	for i := range w.sliceLat {
		w.sliceLat[i] = new(hist)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u0 := selfUsage()
	t0 := w.now() + int64(time.Millisecond)
	w.winEnd.Store(t0 + int64(nSlices)*engineSlice)
	w.winStart.Store(t0)
	time.Sleep(time.Duration(t0 - w.now()))
	var on, off []float64
	cpuMark, delMark := selfCPU(), w.delivered.Load()
	for i := range nSlices {
		w.traceOn.Store(o.trace && i%2 == 1)
		time.Sleep(time.Duration(t0 + int64(i+1)*engineSlice - w.now()))
		c, dl := selfCPU(), w.delivered.Load()
		per := float64((c - cpuMark).Nanoseconds()) / 1e3 / float64(max(1, dl-delMark))
		res.SlicePPS = append(res.SlicePPS, float64(dl-delMark)*1e9/float64(engineSlice))
		res.SliceCPU = append(res.SliceCPU, per)
		if i%2 == 1 {
			on = append(on, per)
		} else {
			off = append(off, per)
		}
		cpuMark, delMark = c, dl
	}
	w.traceOn.Store(false)
	if o.trace && len(on) > 0 {
		res.OverheadPct = 100 * (median(on) - median(off)) / median(off)
	}
	res.Seconds = float64(nSlices)
	u1 := selfUsage()
	runtime.ReadMemStats(&ms1)

	// Stop refilling before Close: wait for two more WriteBatch calls, so
	// the pump has seen refill off and no refill can race the close.
	w.refill.Store(false)
	for c := w.calls.Load() + 2; w.calls.Load() < c; {
		time.Sleep(100 * time.Microsecond)
	}
	if err := w.dp.Close(); err != nil {
		return nil, err
	}
	res.Delivered = w.delivered.Load()
	for _, h := range w.sliceLat {
		res.SliceP50Us = append(res.SliceP50Us, h.quantile(0.5)/1e3)
		res.SliceP99Us = append(res.SliceP99Us, h.quantile(0.99)/1e3)
		res.LatN += h.n
	}
	res.User, res.Sys = u1.user-u0.user, u1.sys-u0.sys
	res.CPU = res.User + res.Sys
	res.Ctxsw = u1.ctxsw - u0.ctxsw
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.Bytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.Batches, res.BatchPkts, res.PumpGapNs = w.batches, w.batchPkts, w.pumpGap
	res.IngestNs, res.IngestN = w.ingestNs, w.ingestN
	res.HarnessNs, res.HarnessPkt = w.harnessNs, w.harnPkt
	res.IngestFailed = w.ingestFailed
	res.Report = w.chk.Finish(w.sent)

	// WF²Q+ fairness while every leaf was backlogged: a leaf's service may
	// stray from its H-GPS share of the total by at most one maximum-size
	// datagram per scheduling level, plus its own datagram in flight.
	shares, err := oracle.HGPSShares(tree.oracle)
	if err != nil {
		return nil, err
	}
	var total float64
	maxSize := 0
	for i, b := range w.leafBits {
		total += b
		maxSize = max(maxSize, tree.leaves[i].size)
	}
	bound := float64(tree.oracle.Depth()+1) * float64(8*maxSize)
	res.FairLeaf = -1
	for i, b := range w.leafBits {
		if dev := math.Abs(b-shares[tree.leaves[i].class]*total) / bound; dev > res.FairWorst {
			res.FairWorst, res.FairLeaf = dev, i
		}
	}
	return res, nil
}
