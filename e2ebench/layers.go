package main

import (
	"fmt"
	"net"
	"time"

	"hpfq"
)

// layerMetrics measures the single layers a workload's datagrams cross,
// in-process and on the workload's own shapes: the gateway's per-datagram
// socket calls, the H-PFQ scheduler alone, and what the engine's metrics
// cost. withEngine adds the engine's own per-datagram figures, which the
// engine workload takes from its main run instead.
func layerMetrics(w string, seed int64, withEngine bool) (map[string]float64, error) {
	tree := engineTreeOf(w, seed)
	m := make(map[string]float64)
	var err error
	if m["hpfqgw.udp_recv_ns"], m["hpfqgw.udp_send_ns"], err = udpCallNs(tree.meanSize()); err != nil {
		return nil, err
	}
	hierTree := tree
	if hierTree.top == nil {
		hierTree.top = hpfq.Interior("root", 1, hpfq.Leaf("c0", 1, 0))
	}
	if m["hier.enqueue_ns"], m["hier.dequeue_ns"], err = hierReplay(hierTree, time.Second); err != nil {
		return nil, err
	}
	// What WithDataplaneMetrics costs per datagram: engine CPU per
	// datagram with it minus without, alternated twice.
	var on, off []float64
	for i := range 4 {
		r, err := runEngine(tree, engineOpts{setups: 1, warm: 200 * time.Millisecond, measure: time.Second, metrics: i%2 == 1})
		if err != nil {
			return nil, err
		}
		per := float64(r.CPU.Nanoseconds()) / float64(max(1, r.Delivered))
		if i%2 == 1 {
			on = append(on, per)
		} else {
			off = append(off, per)
		}
	}
	m["obs.metrics_ns_per_pkt"] = median(on) - median(off)
	if withEngine {
		r, err := runEngine(tree, engineOpts{setups: 1, warm: 200 * time.Millisecond, measure: 2 * time.Second, trace: true})
		if err != nil {
			return nil, err
		}
		engineLayerMetrics(m, r)
	}
	return m, nil
}

// engineLayerMetrics fills the dataplane.* figures of one engine run.
func engineLayerMetrics(m map[string]float64, r *engineResult) {
	d := float64(max(1, r.Delivered))
	m["dataplane.batch_avg"] = float64(r.BatchPkts) / float64(max(1, r.Batches))
	m["dataplane.ingest_ns"] = float64(r.IngestNs) / float64(max(1, r.IngestN))
	m["dataplane.pump_ns_per_pkt"] = float64(r.PumpGapNs) / float64(max(1, r.BatchPkts))
	m["dataplane.allocs_per_pkt"] = float64(r.Mallocs) / d
	m["dataplane.alloc_bytes_per_pkt"] = float64(r.Bytes) / d
	m["dataplane.new_s"] = median(r.NewS)
}

// udpCallNs times the calls hpfqgw makes once per datagram, a connected
// Write and a ReadFromUDP, on loopback at the workload's datagram size.
// Each round writes 32 datagrams and then reads them back, so no read
// waits for data; the figures are medians over rounds.
func udpCallNs(size int) (recv, send float64, err error) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, 0, err
	}
	defer rx.Close()
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, 0, err
	}
	defer tx.Close()
	const batch, rounds = 32, 2000
	b := make([]byte, size)
	rb := make([]byte, 64<<10)
	var rs, ss []float64
	for range rounds {
		t0 := time.Now()
		for range batch {
			if _, err := tx.Write(b); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		for range batch {
			n, _, err := rx.ReadFromUDP(rb)
			if err != nil {
				return 0, 0, err
			}
			if n != size {
				return 0, 0, fmt.Errorf("udp probe: read %d bytes, wrote %d", n, size)
			}
		}
		t2 := time.Now()
		ss = append(ss, float64(t1.Sub(t0).Nanoseconds())/batch)
		rs = append(rs, float64(t2.Sub(t1).Nanoseconds())/batch)
	}
	return median(rs), median(ss), nil
}

// hierReplay drives hpfq.NewHierarchy alone with the engine workload's
// arrival rule: every leaf starts depth packets deep, and each dequeued
// packet is followed by an arrival on its leaf. Dequeues and enqueues are
// timed in blocks of 64, so the clock reads cost little.
func hierReplay(tree engineTree, budget time.Duration) (enq, deq float64, err error) {
	const rate = 1e9
	h, err := hpfq.NewHierarchy(tree.top, rate, hpfq.WF2QPlus)
	if err != nil {
		return 0, 0, err
	}
	var now float64
	for _, l := range tree.leaves {
		for range tree.depth {
			h.Enqueue(now, hpfq.NewPacket(l.class, float64(8*l.size)))
		}
	}
	const block = 64
	out := make([]*hpfq.Packet, 0, block)
	var enqNs, deqNs time.Duration
	var n int
	start := time.Now()
	for time.Since(start) < budget {
		t0 := time.Now()
		for range block {
			p := h.Dequeue(now)
			if p == nil {
				return 0, 0, fmt.Errorf("hier replay: empty with every leaf backlogged")
			}
			now += p.Length / rate
			out = append(out, p)
		}
		t1 := time.Now()
		for _, p := range out {
			*p = hpfq.Packet{Session: p.Session, Length: p.Length, Arrival: now}
			h.Enqueue(now, p)
		}
		t2 := time.Now()
		out = out[:0]
		deqNs += t1.Sub(t0)
		enqNs += t2.Sub(t1)
		n += block
	}
	return float64(enqNs.Nanoseconds()) / float64(n), float64(deqNs.Nanoseconds()) / float64(n), nil
}
