package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hpfqbench/oracle"
)

// gwProc is one hpfqgw child process.
type gwProc struct {
	cmd    *exec.Cmd
	addr   string       // its listen address
	stdout bytes.Buffer // the -metrics dump lands here at shutdown
	mu     sync.Mutex
	stderr bytes.Buffer
	errc   chan error // stderr reader's end
}

var listenLine = regexp.MustCompile(`^hpfqgw: \S+ (\S+) → `)

// spawnGateway starts hpfqgw on the CPUs in m and waits for it to report
// its listen address.
func spawnGateway(bin string, args []string, m cpuMask, n int) (*gwProc, error) {
	p := &gwProc{cmd: exec.Command(bin, args...), errc: make(chan error, 1)}
	p.cmd.Stdout = &p.stdout
	errPipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := startPinned(p.cmd, m, n); err != nil {
		return nil, fmt.Errorf("start hpfqgw: %v", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			if mm := listenLine.FindStringSubmatch(line); mm != nil {
				select {
				case addrc <- mm[1]:
				default:
				}
			}
			p.mu.Lock()
			p.stderr.WriteString(line + "\n")
			p.mu.Unlock()
		}
		p.errc <- sc.Err()
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		p.cmd.Wait()
		return nil, fmt.Errorf("hpfqgw did not report its listen address:\n%s", p.stderrText())
	}
}

func (p *gwProc) stderrText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// kill ends the gateway on an error path and waits for it.
func (p *gwProc) kill() {
	p.cmd.Process.Kill()
	<-p.errc
	p.cmd.Wait()
}

// stop sends SIGTERM (hpfqgw drains, prints its -metrics dump and exits)
// and waits, killing it if it outlives the deadline.
func (p *gwProc) stop() (childUsage, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return childUsage{}, err
	}
	t := time.AfterFunc(30*time.Second, func() { p.cmd.Process.Kill() })
	<-p.errc // stderr closed: the process is gone or going
	err := p.cmd.Wait()
	t.Stop()
	if err != nil {
		return childUsage{}, fmt.Errorf("hpfqgw: %v\n%s", err, p.stderrText())
	}
	return usageOf(p.cmd.ProcessState), nil
}

// genProc is the load generator child and its command channel.
type genProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	lines chan string
}

func startGen(self, specJSON, tracePath string, sink *os.File, m cpuMask, n int) (*genProc, error) {
	args := []string{"gen", "-spec", specJSON}
	if tracePath != "" {
		args = append(args, "-trace-out", tracePath)
	}
	g := &genProc{cmd: exec.Command(self, args...), lines: make(chan string, 4)}
	g.cmd.ExtraFiles = []*os.File{sink}
	g.cmd.Stderr = os.Stderr
	var err error
	if g.in, err = g.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := g.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startPinned(g.cmd, m, n); err != nil {
		return nil, fmt.Errorf("start generator: %v", err)
	}
	go func() {
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			g.lines <- sc.Text()
		}
		close(g.lines)
	}()
	return g, nil
}

func (g *genProc) send(cmd string) error {
	_, err := io.WriteString(g.in, cmd+"\n")
	return err
}

// expect reads the generator's next reply line.
func (g *genProc) expect(timeout time.Duration) (string, error) {
	select {
	case l, ok := <-g.lines:
		if !ok {
			return "", errors.New("generator exited")
		}
		return l, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("generator silent for %v", timeout)
	}
}

func (g *genProc) do(cmd, want string, timeout time.Duration) error {
	if err := g.send(cmd); err != nil {
		return err
	}
	l, err := g.expect(timeout)
	if err != nil {
		return fmt.Errorf("%s: %v", cmd, err)
	}
	if l != want {
		return fmt.Errorf("%s: generator replied %q, want %q", cmd, l, want)
	}
	return nil
}

func (g *genProc) close() {
	g.in.Close()
	t := time.AfterFunc(30*time.Second, func() { g.cmd.Process.Kill() })
	for range g.lines {
	}
	g.cmd.Wait()
	t.Stop()
}

// dumpClass is one class row of hpfqgw's -metrics shutdown dump.
type dumpClass struct{ enq, deq, drop int64 }

type dump struct {
	drops     int64
	batchAvg  float64
	conserved bool
	classes   map[int]dumpClass
}

var (
	dumpHeader = regexp.MustCompile(`^# \S+: .*\bdrop=(\d+) .*\bconserved=(\w+)`)
	dumpBatch  = regexp.MustCompile(`^# batches: writes=\d+ packets=\d+ avg=([\d.]+)`)
)

// parseDump reads the egress-scheduler table of hpfqgw's -metrics dump
// (the lines before the first per-node table).
func parseDump(s string) (*dump, error) {
	d := &dump{classes: make(map[int]dumpClass)}
	seenHeader := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "# node ") {
			break
		}
		if m := dumpHeader.FindStringSubmatch(line); m != nil && !seenHeader {
			seenHeader = true
			d.drops, _ = strconv.ParseInt(m[1], 10, 64)
			d.conserved = m[2] == "true"
			continue
		}
		if m := dumpBatch.FindStringSubmatch(line); m != nil {
			d.batchAvg, _ = strconv.ParseFloat(m[1], 64)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 5 || !seenHeader {
			continue
		}
		id, err := strconv.Atoi(f[0])
		if err != nil {
			continue // column header
		}
		var c dumpClass
		c.enq, _ = strconv.ParseInt(f[2], 10, 64)
		c.deq, _ = strconv.ParseInt(f[3], 10, 64)
		c.drop, _ = strconv.ParseInt(f[4], 10, 64)
		d.classes[id] = c
	}
	if !seenHeader {
		return nil, fmt.Errorf("no -metrics dump in hpfqgw's output:\n%s", s)
	}
	return d, nil
}

const gwSetups = 7

// runGateway runs a gateway workload end to end.
func runGateway(w string, seed int64, seconds float64, trace bool, gwBin, self, traceDir string, gwExtra []string) (*result, error) {
	a, b, na, nb, err := cpuHalves()
	if err != nil {
		return nil, err
	}
	drops0, err := udpKernelDrops()
	if err != nil {
		return nil, err
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	sinkAddr := sink.LocalAddr().String()
	sinkFile, err := sink.File()
	sink.Close()
	if err != nil {
		return nil, err
	}
	spec := gatewaySpec(w, seed)
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	tracePath := ""
	if trace {
		tracePath = fmt.Sprintf("%s/%s-seed%d.jsonl", traceDir, w, seed)
	}
	g, err := startGen(self, string(specJSON), tracePath, sinkFile, b, nb)
	sinkFile.Close()
	if err != nil {
		return nil, err
	}
	defer g.close()

	args := append(gatewayArgs(w, sinkAddr, trace), gwExtra...)
	var setups []float64
	var gw *gwProc
	for k := range gwSetups {
		t := time.Now()
		if gw, err = spawnGateway(gwBin, args, a, na); err != nil {
			return nil, err
		}
		if err := g.do("warm "+gw.addr, "warmed", 60*time.Second); err != nil {
			gw.kill()
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if k < gwSetups-1 {
			if _, err := gw.stop(); err != nil {
				return nil, err
			}
			if err := g.do("reset", "reset", 10*time.Second); err != nil {
				return nil, err
			}
		}
	}
	pid := gw.cmd.Process.Pid
	rssSetup, err := procRSSMB(pid)
	if err != nil {
		return nil, err
	}
	// The gateway's CPU time at the window's edges (user/system split) and
	// at every slice boundary (to the nanosecond).
	var u0, s0, u1, s1 time.Duration
	var marks []time.Duration
	mark := func() error {
		c, err := procSchedCPU(pid)
		marks = append(marks, c)
		return err
	}
	err = func() error {
		if err := g.do(fmt.Sprintf("run %g", seconds), "t0", 60*time.Second); err != nil {
			return err
		}
		if err := mark(); err != nil {
			return err
		}
		if u0, s0, err = procCPU(pid); err != nil {
			return err
		}
		for {
			l, err := g.expect(60 * time.Second)
			if err != nil {
				return err
			}
			if err := mark(); err != nil {
				return err
			}
			switch l {
			case "s":
				continue
			case "t1":
				u1, s1, err = procCPU(pid)
				return err
			}
			return fmt.Errorf("run: generator replied %q", l)
		}
	}()
	line, err := g.expect(60 * time.Second)
	if err != nil {
		gw.kill()
		return nil, err
	}
	var st genStats
	if err := json.Unmarshal([]byte(line), &st); err != nil {
		gw.kill()
		return nil, fmt.Errorf("generator stats %q: %v", line, err)
	}
	sockDrops := udpSocketDrops()
	usage, err := gw.stop()
	if err != nil {
		return nil, err
	}
	drops1, err := udpKernelDrops()
	if err != nil {
		return nil, err
	}

	r := newResult()
	r.attempted, r.failed = st.Report.Attempted, st.Report.Failed
	var winPkts, winBytes, lifePkts int64
	for _, v := range st.ClassPkts {
		winPkts += v
	}
	for _, v := range st.ClassBytes {
		winBytes += v
	}
	for _, v := range st.InstClass {
		lifePkts += v
	}
	win := float64(st.WindowNs) / 1e9
	d := float64(max(1, winPkts))
	if len(marks) != len(st.SliceArr)+1 {
		return nil, fmt.Errorf("%d CPU marks for %d slices", len(marks), len(st.SliceArr))
	}
	var pps, cpuPer []float64
	for i, n := range st.SliceArr {
		pps = append(pps, float64(n)*1e3/spec.SliceMS)
		cpuPer = append(cpuPer, float64((marks[i+1]-marks[i]).Nanoseconds())/1e3/float64(max(1, n)))
	}

	r.e2e("setup_s", median(setups))
	r.e2e("delivered_pps", quietQuartile(pps, false))
	r.e2e("cpu_us_per_pkt", quietQuartile(cpuPer, true))
	// Latency counts from when a datagram was due, so a slice in which the
	// generator itself ran late describes the generator.
	keep, onSchedule := latencySlices(&st, spec.RTPPS > 0)
	var p50, p99 []float64
	for _, i := range keep {
		p50 = append(p50, st.SliceP50Us[i])
		p99 = append(p99, st.SliceP99Us[i])
	}
	r.e2e("lat_p50_us", quietQuartile(p50, true))
	r.e2e("lat_p99_us", quietQuartile(p99, true))
	r.e2e("peak_rss_mb", usage.maxRSSMB)

	r.layer("hpfqgw.user_us_per_pkt", float64((u1-u0).Microseconds())/d)
	r.layer("hpfqgw.sys_us_per_pkt", float64((s1-s0).Microseconds())/d)
	r.layer("hpfqgw.ctxsw_per_kpkt", 1000*float64(usage.ctxsw)/float64(max(1, lifePkts)))
	r.layer("hpfqgw.flow_setup_us", 1e6*median(setups)/float64(len(spec.Flows)))
	r.layer("hpfqgw.rss_after_setup_mb", rssSetup)
	r.layer("loadgen.lag_p99_us", st.LagP99Us)
	r.layer("loadgen.cpu_us_per_pkt", st.CPUUsPerPkt)
	r.layer("loadgen.kernel_drops", float64(drops1-drops0))
	r.layer("trace.overhead_pct", st.OverheadPct)

	r.notef("window %.3f s: %d datagrams, %.1f Mbit/s payload; %d latency samples; drain %.0f ms",
		win, winPkts, float64(winBytes)*8/win/1e6, st.LatN, st.DrainMs)
	r.notef("checker: %+v", st.Report)
	r.notef("slices: pkt/s %.0f", pps)
	r.notef("slices: gateway µs/pkt %.3f", cpuPer)
	r.notef("slices: p99 µs %.0f", st.SliceP99Us)
	r.notef("harness: loadgen.lag_p99_us=%.1f lag_max_us=%.1f loadgen.cpu_us_per_pkt=%.3f kernel_drops=%d",
		st.LagP99Us, st.LagMaxUs, st.CPUUsPerPkt, drops1-drops0)
	r.notef("gateway: setups %v, lifetime cpu user %v sys %v, ctxsw %d, max rss %.1f MB",
		fmtSecs(setups), usage.user, usage.sys, usage.ctxsw, usage.maxRSSMB)
	if len(sockDrops) > 0 {
		r.notef("sockets with drops (port:drops): %v; gateway listens on %s, sink on %s", sockDrops, gw.addr, sinkAddr)
	}
	if n := len(st.SliceP99Us); spec.RTPPS > 0 && onSchedule < n {
		how := "latency from the slices on schedule"
		if len(keep) > onSchedule {
			how = fmt.Sprintf("fewer than a quarter on schedule, latency from the %d slices that ran least late", len(keep))
		}
		r.notef("generator behind schedule (lag p99 > %d µs) in %d of %d slices; %s; slice lag p99 µs %.0f",
			maxLagUs, n-onSchedule, n, how, st.SliceLagP99Us)
	}

	if trace || w == wFig1 {
		dm, err := parseDump(gw.stdout.String())
		if err != nil {
			return nil, err
		}
		r.layer("dataplane.batch_avg", dm.batchAvg)
		r.check(dm.drops == 0, "hpfqgw -metrics dump shows %d drops, want 0", dm.drops)
		r.check(dm.conserved, "hpfqgw -metrics dump is not conserved")
		for id, c := range dm.classes {
			sinkN := st.InstClass[uint16(id)]
			r.check(c.deq == sinkN, "class %d: hpfqgw dequeued %d datagrams, the sink received %d", id, c.deq, sinkN)
		}
		r.check(len(dm.classes) > 0, "hpfqgw -metrics dump has no class rows")
	}
	if w == wFig1 {
		checkFig1(r, &st, win, winBytes)
	}
	if trace {
		r.notef("trace: spans written to %s", tracePath)
		lm, err := runLayersChild(self, w, seed, a, na)
		if err != nil {
			return nil, err
		}
		for k, v := range lm {
			if _, ok := r.layerM[k]; !ok { // the gateway's own batch_avg wins
				r.layer(k, v)
			}
		}
	}
	return r, nil
}

// latencySlices picks the slices whose latency describes the gateway: with
// an open-loop source, those in which the generator kept its schedule (lag
// p99 within maxLagUs), or, when fewer than a quarter did, the quarter that
// ran least late. Slices without samples are skipped.
func latencySlices(st *genStats, openLoop bool) (keep []int, onSchedule int) {
	var all []int
	for i, v := range st.SliceP50Us {
		if v < 0 {
			continue
		}
		all = append(all, i)
		if !openLoop || st.SliceLagP99Us[i] <= maxLagUs {
			keep = append(keep, i)
		}
	}
	if onSchedule = len(keep); 4*len(keep) >= len(all) {
		return keep, onSchedule
	}
	sort.Slice(all, func(a, b int) bool { return st.SliceLagP99Us[all[a]] < st.SliceLagP99Us[all[b]] })
	return all[:(len(all)+3)/4], onSchedule
}

// maxLagUs is how late the open-loop source may run (p99) in a slice before
// the slice is taken to describe the generator rather than the gateway. Go
// timers wake a millisecond late, so lateness up to that is the floor.
const maxLagUs = 2500

// fig1ShareTol is how far a class's share of the delivered bits may stray
// from its H-GPS share: 0.002 is about four 5 ms token-bucket bursts over a
// 10 s window, far above what WF²Q+ itself allows.
const fig1ShareTol = 0.002

// checkFig1 compares each class's share of what the link delivered with
// its H-GPS share of the same capacity, given RT's offered load, and checks
// that the link never carried more than its rate plus one burst.
func checkFig1(r *result, st *genStats, win float64, winBytes int64) {
	bits := float64(winBytes * 8)
	tree := fig1Oracle()
	tree.Children[0].Children[0].Demand = fig1RTLoad * fig1Rate * win / bits
	shares, err := oracle.HGPSShares(tree)
	if err != nil {
		r.check(false, "H-GPS oracle: %v", err)
		return
	}
	worst := 0.0
	for c := range fig1Classes {
		got := float64(st.ClassBytes[uint16(c)]*8) / bits
		dev := math.Abs(got - shares[c])
		worst = math.Max(worst, dev)
		r.check(dev <= fig1ShareTol, "class %d: %.4f of the delivered bits, H-GPS share %.4f (tolerance %.3f)", c, got, shares[c], fig1ShareTol)
	}
	link := fig1Rate * win
	limit := link + fig1Rate*gatewayBurstSec + fig1Size*8
	r.check(bits <= limit, "delivered %.0f bits in %.3f s, more than the link plus one burst (%.0f)", bits, win, limit)
	r.notef("fig1: worst share deviation %.4f; link use %.4f", worst, bits/link)
}

// runLayersChild runs the in-process layer measurements in a child pinned
// where the gateway ran.
func runLayersChild(self, w string, seed int64, m cpuMask, n int) (map[string]float64, error) {
	cmd := exec.Command(self, "layers", "-workload", w, "-seed", strconv.FormatInt(seed, 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := startPinned(cmd, m, n); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("layers: %v", err)
	}
	lm := make(map[string]float64)
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &lm); err != nil {
		return nil, fmt.Errorf("layers output %q: %v", out.String(), err)
	}
	return lm, nil
}

func fmtSecs(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}
