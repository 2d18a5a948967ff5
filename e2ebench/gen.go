package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hpfqbench/oracle"
)

// The load generator is a child process with one sending and one receiving
// goroutine. Every client flow is its own connected UDP socket, so each
// has a distinct source port at the gateway; the sink is one socket the
// orchestrator bound and passed down as file descriptor 3. The
// orchestrator drives it through stdin (one command a line) and reads one
// reply line per command from stdout:
//
//	warm ADDR   open every flow toward the gateway at ADDR and deliver one
//	            datagram on each, a group at a time → "warmed"
//	reset       close the flow sockets (the gateway is being replaced) → "reset"
//	run SECS    ramp the windows open, print "t0", measure SECS, print "t1",
//	            stop sending, wait for every datagram, print the genStats JSON
//
// A datagram's due time is when it was sent (closed loop) or when the
// open-loop schedule called for it; latency at the sink counts from it.

// A credit lets a greedy class send one datagram: the closed loops keep a
// fixed window per class, and each send goes to the class's next flow in
// turn, so every flow stays active while the datagrams in flight stay
// bounded.
type credit struct {
	class uint16
	at    int64 // ns: when the credit was returned (or the window opened)
}

// genStats is the generator's report for one run.
type genStats struct {
	Report        oracle.Report
	WindowNs      int64
	ClassPkts     map[uint16]int64 // in the window
	ClassBytes    map[uint16]int64 // in the window
	InstClass     map[uint16]int64 // since the last warm: the gateway instance's whole life
	SliceArr      []int64          // arrivals per slice
	SliceP50Us    []float64        // latency per slice
	SliceP99Us    []float64
	LatN          uint64
	LagP99Us      float64 // open-loop send lateness; without one, credit-to-send delay
	SliceLagP99Us []float64
	LagMaxUs      float64
	CPUUsPerPkt   float64 // generator CPU per datagram sent: median over slices
	DrainMs       float64
	OverheadPct   float64 // traced vs untraced slices: generator CPU per datagram
}

type gen struct {
	spec    genSpec
	sink    *net.UDPConn
	conns   []*net.UDPConn
	bufs    [][]byte
	fillSum []uint64
	sent    []uint64
	epoch   time.Time
	// epochUnix is epoch on the wall clock, to place the kernel's
	// CLOCK_REALTIME receive stamps on the monotonic run clock.
	epochUnix int64

	credits    chan credit
	classFlows map[uint16][]int // greedy flows per class (sender)
	cursor     map[uint16]int   // next flow per class (sender)
	loop       atomic.Bool      // receiver returns credits of greedy flows
	arrived    chan struct{}    // nudged on every arrival
	inst       atomic.Int64     // arrivals since the last warm
	instSent   int64

	capTokens float64 // send cap token bucket (sender goroutine)
	capLast   int64

	winStart, winEnd atomic.Int64 // planned window, set before the ramp
	slice            int64        // slice length, ns
	tracing          bool         // alternate traced and untraced slices
	traceOn          atomic.Bool
	sendSpans        *spanLog

	// Receiver-owned; read only after the receiver has exited.
	chk        *oracle.Checker
	sliceArr   []int64 // arrivals per slice of the window
	sliceLat   []*hist // latency per slice
	classPkts  map[uint16]int64
	classBytes map[uint16]int64
	instClass  [1 << 16]atomic.Int64
	recvSpans  *spanLog
	recvDone   chan struct{}
}

func (g *gen) now() int64 { return int64(time.Since(g.epoch)) }

func runGen(specJSON, tracePath string) error {
	var spec genSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("gen: spec: %v", err)
	}
	fc, err := net.FilePacketConn(os.NewFile(3, "sink"))
	if err != nil {
		return fmt.Errorf("gen: sink: %v", err)
	}
	sink := fc.(*net.UDPConn)
	// A deep sink buffer (up to net.core.rmem_max) so a stall of the
	// receiving goroutine cannot cost datagrams the gateway delivered.
	if err := sink.SetReadBuffer(4 << 20); err != nil {
		return fmt.Errorf("gen: sink buffer: %v", err)
	}
	if err := setTimestamping(sink); err != nil {
		return fmt.Errorf("gen: sink timestamps: %v", err)
	}
	n := len(spec.Flows)
	g := &gen{
		spec:       spec,
		sink:       sink,
		conns:      make([]*net.UDPConn, n),
		bufs:       make([][]byte, n),
		fillSum:    make([]uint64, n),
		sent:       make([]uint64, n),
		epoch:      time.Now(),
		credits:    make(chan credit, windowTotal(spec.Windows)), // every credit fits
		arrived:    make(chan struct{}, 1),
		chk:        oracle.NewChecker(n),
		classPkts:  make(map[uint16]int64),
		classBytes: make(map[uint16]int64),
		recvDone:   make(chan struct{}),
		tracing:    tracePath != "",
	}
	g.epochUnix = g.epoch.UnixNano()
	g.sendSpans = newSpanLog()
	g.recvSpans = newSpanLog()
	for i, f := range spec.Flows {
		b := make([]byte, f.Size)
		oracle.Fill(b, uint32(i))
		g.bufs[i], g.fillSum[i] = b, oracle.FillSum(b)
	}
	go g.receive()

	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	reply := func(s string) {
		fmt.Fprintln(out, s)
		out.Flush()
	}
	for in.Scan() {
		cmd, arg, _ := strings.Cut(in.Text(), " ")
		switch cmd {
		case "warm":
			if err := g.warm(arg); err != nil {
				return err
			}
			reply("warmed")
		case "reset":
			g.closeFlows()
			reply("reset")
		case "run":
			secs, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return fmt.Errorf("gen: run %q: %v", arg, err)
			}
			st, err := g.run(time.Duration(secs*float64(time.Second)), reply)
			if err != nil {
				return err
			}
			if tracePath != "" {
				if err := writeSpans(tracePath, g.sendSpans, g.recvSpans); err != nil {
					return err
				}
			}
			b, err := json.Marshal(st)
			if err != nil {
				return err
			}
			reply(string(b))
			return nil
		default:
			return fmt.Errorf("gen: unknown command %q", in.Text())
		}
	}
	return in.Err()
}

func windowTotal(w map[uint16]int) int {
	n := 0
	for _, k := range w {
		n += k
	}
	return n
}

func (g *gen) closeFlows() {
	for i, c := range g.conns {
		if c != nil {
			c.Close()
			g.conns[i] = nil
		}
	}
}

// send stamps flow f's next datagram with due and writes it, first
// waiting for the send cap when the spec sets one.
func (g *gen) send(f int, due int64) error {
	if g.spec.SendCapPPS > 0 {
		g.throttle()
	}
	fl := g.spec.Flows[f]
	seq := g.sent[f]
	oracle.Encode(g.bufs[f], oracle.Header{ClassIdx: fl.ClassIdx, Class: fl.Class, Flow: uint32(f), Seq: seq, Due: due}, g.fillSum[f])
	traced := g.traceOn.Load()
	var t0 int64
	if traced {
		t0 = g.now()
	}
	if _, err := g.conns[f].Write(g.bufs[f]); err != nil {
		return fmt.Errorf("gen: flow %d: %v", f, err)
	}
	if traced {
		g.sendSpans.add(datagramID(uint32(f), seq), "udp.Write", "", t0, g.now())
	}
	g.sent[f]++
	g.instSent++
	return nil
}

// throttle holds the sender to spec.SendCapPPS with bursts of at most
// sendCapBurst: after the generator loses its CPU for a while, its catch-up
// must not overrun the gateway's socket buffer.
func (g *gen) throttle() {
	const sendCapBurst = 32
	for {
		now := g.now()
		g.capTokens = min(sendCapBurst, g.capTokens+float64(now-g.capLast)*g.spec.SendCapPPS/1e9)
		g.capLast = now
		if g.capTokens >= 1 {
			g.capTokens--
			return
		}
		time.Sleep(time.Duration((1 - g.capTokens) * 1e9 / g.spec.SendCapPPS))
	}
}

// waitDelivered blocks until every datagram sent to the current gateway
// instance has arrived, or the deadline passes.
func (g *gen) waitDelivered(deadline time.Duration) error {
	t := time.NewTimer(deadline)
	defer t.Stop()
	for g.inst.Load() < g.instSent {
		select {
		case <-g.arrived:
		case <-t.C:
			return fmt.Errorf("gen: %d of %d datagrams undelivered after %v", g.instSent-g.inst.Load(), g.instSent, deadline)
		}
	}
	return nil
}

// warm opens every flow toward the gateway and delivers one datagram on
// each, WarmGroup flows at a time.
func (g *gen) warm(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("gen: warm %q: %v", addr, err)
	}
	g.inst.Store(0)
	g.instSent = 0
	for i := range g.instClass {
		g.instClass[i].Store(0)
	}
	for lo := 0; lo < len(g.conns); lo += g.spec.WarmGroup {
		hi := min(lo+g.spec.WarmGroup, len(g.conns))
		for f := lo; f < hi; f++ {
			if g.conns[f], err = net.DialUDP("udp", nil, ua); err != nil {
				return fmt.Errorf("gen: flow %d: %v", f, err)
			}
			if err := g.send(f, g.now()); err != nil {
				return err
			}
		}
		if err := g.waitDelivered(10 * time.Second); err != nil {
			return err
		}
	}
	return nil
}

// run is the measured phase; see the type comment. The window is cut into
// slices of spec.SliceMS; besides "t0" and "t1" it prints "s" at every
// inner slice boundary, so the orchestrator can read the gateway's CPU
// time per slice.
func (g *gen) run(measure time.Duration, reply func(string)) (*genStats, error) {
	sp := g.spec
	var rtFlows []int
	g.classFlows = make(map[uint16][]int)
	g.cursor = make(map[uint16]int)
	for f, fl := range sp.Flows {
		if fl.Greedy {
			g.classFlows[fl.Class] = append(g.classFlows[fl.Class], f)
		} else {
			rtFlows = append(rtFlows, f)
		}
	}
	// Window credits not yet opened, interleaved across classes so the
	// ramp opens every class at the same pace.
	classes := make([]uint16, 0, len(sp.Windows))
	for c := range sp.Windows {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	var pending []uint16
	for i, more := 0, true; more; i++ {
		more = false
		for _, c := range classes {
			if i < sp.Windows[c] {
				pending = append(pending, c)
				more = true
			}
		}
	}
	slice := int64(sp.SliceMS * float64(time.Millisecond))
	nSlices := max(1, int(int64(measure)/slice))
	g.sliceArr = make([]int64, nSlices)
	g.sliceLat = make([]*hist, nSlices)
	for i := range g.sliceLat {
		g.sliceLat[i] = new(hist)
	}
	g.loop.Store(true)
	start := g.now()
	rampEvery := int64(sp.RampEveryMS * float64(time.Millisecond))
	nextRamp := start
	rampEnd := start + int64(len(pending)/max(1, sp.RampChunk)+1)*rampEvery
	t0 := rampEnd + int64(sp.SettleMS*float64(time.Millisecond))
	t1 := t0 + int64(nSlices)*slice
	g.winEnd.Store(t1)
	g.slice = slice
	g.winStart.Store(t0) // published last: the receiver reads winStart first
	var interval float64
	nextDue := int64(1<<63 - 1)
	if len(rtFlows) > 0 && sp.RTPPS > 0 {
		interval = float64(time.Second) / sp.RTPPS
		nextDue = start
	}
	rtSent := 0
	lag := &lagRec{slices: make([]*hist, nSlices)}
	for i := range lag.slices {
		lag.slices[i] = new(hist)
	}
	// Generator CPU per datagram sent, per slice; traced runs trace every
	// odd slice, and tracing's cost is the difference between the two.
	var perOn, perOff, perAll []float64
	var cpuMark time.Duration
	var sentMark int64
	boundary := t0 // next slice boundary
	cur := -1      // current slice; -1 before the window
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()

	for {
		now := g.now()
		// Open-loop datagrams first: everything due by now goes out, late
		// or not, and its lateness is recorded.
		for ; nextDue <= now; nextDue = start + int64(float64(rtSent)*interval) {
			if cur >= 0 && nextDue < t1 {
				lag.add(cur, now-nextDue)
			}
			if err := g.send(rtFlows[rtSent%len(rtFlows)], nextDue); err != nil {
				return nil, err
			}
			rtSent++
		}
		if now >= boundary {
			c := selfCPU()
			if cur >= 0 {
				per := float64(c-cpuMark) / 1e3 / float64(max(1, g.instSent-sentMark))
				perAll = append(perAll, per)
				if cur%2 == 1 {
					perOn = append(perOn, per)
				} else {
					perOff = append(perOff, per)
				}
			}
			cpuMark, sentMark = c, g.instSent
			cur++
			switch {
			case cur == 0:
				reply("t0")
			case cur == nSlices:
				reply("t1")
			default:
				reply("s")
			}
			if cur == nSlices {
				break
			}
			g.traceOn.Store(g.tracing && cur%2 == 1)
			boundary += slice
		}
		for len(pending) > 0 && now >= nextRamp {
			for _, f := range pending[:min(sp.RampChunk, len(pending))] {
				g.credits <- credit{class: f, at: now}
			}
			pending = pending[min(sp.RampChunk, len(pending)):]
			nextRamp += rampEvery
		}
		select {
		case c := <-g.credits:
			if err := g.sendCredit(c, cur, lag); err != nil {
				return nil, err
			}
			continue
		default:
		}
		wake := min(nextDue, boundary)
		if len(pending) > 0 {
			wake = min(wake, nextRamp)
		}
		if d := wake - g.now(); d > 0 {
			timer.Reset(time.Duration(d))
			select {
			case c := <-g.credits:
				timer.Stop() // go ≥ 1.23: no stale tick survives Stop
				if err := g.sendCredit(c, cur, lag); err != nil {
					return nil, err
				}
			case <-timer.C:
			}
		}
	}
	g.traceOn.Store(false)
	g.loop.Store(false)

	drainStart := time.Now()
	if err := g.waitDelivered(10 * time.Second); err != nil {
		// Not fatal: the checker counts what never arrived as failed.
		fmt.Fprintln(os.Stderr, err)
	}
	drain := time.Since(drainStart)
	g.closeFlows()
	g.sink.Close()
	<-g.recvDone

	st := &genStats{
		Report:      g.chk.Finish(g.sent),
		WindowNs:    t1 - t0,
		ClassPkts:   g.classPkts,
		ClassBytes:  g.classBytes,
		InstClass:   make(map[uint16]int64),
		SliceArr:    g.sliceArr,
		LagP99Us:    sliceQuantileUs(&lag.all, 0.99),
		LagMaxUs:    float64(lag.max) / 1e3,
		CPUUsPerPkt: median(perAll),
		DrainMs:     float64(drain) / 1e6,
	}
	for _, h := range lag.slices {
		st.SliceLagP99Us = append(st.SliceLagP99Us, sliceQuantileUs(h, 0.99))
	}
	for _, h := range g.sliceLat {
		st.SliceP50Us = append(st.SliceP50Us, sliceQuantileUs(h, 0.5))
		st.SliceP99Us = append(st.SliceP99Us, sliceQuantileUs(h, 0.99))
		st.LatN += h.n
	}
	for c := range g.instClass {
		if v := g.instClass[c].Load(); v > 0 {
			st.InstClass[uint16(c)] = v
		}
	}
	if len(perOn) > 0 && len(perOff) > 0 {
		st.OverheadPct = 100 * (median(perOn) - median(perOff)) / median(perOff)
	}
	return st, nil
}

// sliceQuantileUs is a slice's q-quantile in µs, or -1 when a stall left
// the slice without samples (JSON carries no NaN).
func sliceQuantileUs(h *hist, q float64) float64 {
	if h.n == 0 {
		return -1
	}
	return h.quantile(q) / 1e3
}

// sendCredit sends on a returned closed-loop credit. Its delay counts as
// lag only when there is no open-loop schedule to be late for.
func (g *gen) sendCredit(c credit, slice int, lag *lagRec) error {
	if slice >= 0 && g.spec.RTPPS == 0 {
		lag.add(slice, g.now()-c.at)
	}
	fl := g.classFlows[c.class]
	f := fl[g.cursor[c.class]%len(fl)]
	g.cursor[c.class]++
	return g.send(f, g.now())
}

// lagRec records how late the generator ran, over the window and per
// slice.
type lagRec struct {
	all    hist
	slices []*hist
	max    int64
}

func (l *lagRec) add(slice int, d int64) {
	l.all.add(d)
	l.slices[slice].add(d)
	l.max = max(l.max, d)
}

// arrival is when the kernel queued a datagram on the sink (its
// SO_TIMESTAMPNS control message), on the generator's clock. The open-loop
// source's latency ends there: time the datagram then waits for the
// receiving goroutine is the generator's, not the gateway's. A closed loop
// keeps its window split between the gateway and the generator, so its
// latency ends when the sink reads the datagram, which keeps the sum of
// both sides and reads steadier. Without the message it is now.
func (g *gen) arrival(oob []byte) int64 {
	// One cmsghdr (len, level, type) followed by a timespec.
	const hdr = 16
	if len(oob) >= hdr+16 &&
		int32(binary.LittleEndian.Uint32(oob[8:])) == syscall.SOL_SOCKET &&
		int32(binary.LittleEndian.Uint32(oob[12:])) == syscall.SCM_TIMESTAMPNS {
		sec := int64(binary.LittleEndian.Uint64(oob[hdr:]))
		nsec := int64(binary.LittleEndian.Uint64(oob[hdr+8:]))
		return sec*1e9 + nsec - g.epochUnix
	}
	return g.now()
}

// receive is the sink: it checks and counts every arrival, records
// latency, and returns closed-loop credits.
func (g *gen) receive() {
	defer close(g.recvDone)
	buf := make([]byte, 64<<10)
	oob := make([]byte, 64)
	for {
		traced := g.traceOn.Load()
		var t0 int64
		if traced {
			t0 = g.now()
		}
		n, oobn, _, _, err := g.sink.ReadMsgUDPAddrPort(buf, oob)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "gen: sink:", err)
			}
			return
		}
		now := g.now()
		if g.spec.RTPPS > 0 {
			now = g.arrival(oob[:oobn])
		}
		h, err := oracle.Decode(buf[:n])
		if err != nil {
			g.chk.Corrupt()
			continue
		}
		g.chk.Observe(h.Flow, h.Seq)
		g.instClass[h.Class].Add(1)
		if s := g.winStart.Load(); s > 0 && now >= s && now < g.winEnd.Load() {
			g.classPkts[h.Class]++
			g.classBytes[h.Class] += int64(n)
			i := (now - s) / g.slice
			g.sliceArr[i]++
			if int(h.Flow) < len(g.spec.Flows) && (g.spec.RTPPS == 0 || !g.spec.Flows[h.Flow].Greedy) {
				g.sliceLat[i].add(now - h.Due)
			}
		}
		if traced {
			id := datagramID(h.Flow, h.Seq)
			g.recvSpans.add(id, "hpfqgw.forward", "udp.Write", h.Due, now)
			g.recvSpans.add(id, "udp.Read", "hpfqgw.forward", t0, now)
		}
		if g.loop.Load() && int(h.Flow) < len(g.spec.Flows) && g.spec.Flows[h.Flow].Greedy {
			g.credits <- credit{class: h.Class, at: g.now()}
		}
		g.inst.Add(1)
		select {
		case g.arrived <- struct{}{}:
		default:
		}
	}
}
