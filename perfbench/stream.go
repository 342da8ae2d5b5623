package main

import (
	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// stream: a QPIP ttcp bulk transfer between two nodes. 16 KB records at
// the 16 KB native MTU, virtual payloads, PostSendN / PostRecvN / PollN
// with a 64-WR window. An op is one record; its latency runs from the
// post call to the reaped send completion.

const (
	streamChunk  = 16 * 1024
	streamWindow = 64
	streamBatch  = 16
	streamWarmup = 1024
	streamPort   = 7000
	streamPaceNS = 50000
)

// streamIn is the generated input: the record count and the sender's
// pacing before each post call (seeded exponential, mean streamPaceNS).
// Without it every record would wait the same time in the full window and
// the latency percentiles would not depend on the seed. The pacing is
// short beside the time a window of records takes, so the window stays
// full; stream.window_occupancy measures that.
type streamIn struct {
	records int
	pace    []sim.Time
}

func streamJob(seed uint64, scale float64) job {
	r := newRNG(seed, "stream")
	base := int(32768 * scale)
	in := streamIn{records: base + r.intn(base/64+1)}
	for i := 0; i < 4096; i++ {
		in.pace = append(in.pace, sim.Time(r.exp(streamPaceNS)))
	}
	return job{
		sizes: map[string]any{"records": in.records, "record_bytes": streamChunk, "window": streamWindow,
			"batch": streamBatch, "pace_mean_ns": streamPaceNS},
		run: func(traced bool) *rep { return runStream(&in, traced) },
	}
}

func runStream(in *streamIn, traced bool) *rep {
	records := in.records
	r := newRep(traced)
	tm := startTimer(r)
	c := core.NewCluster(2, core.NodeConfig{QPIP: true})
	qp := &path{clusters: []*core.Cluster{c}, planned: records}
	msg := streamChunk
	if m := c.Nodes[0].QPIP.MaxMessage(); msg > m {
		msg = m
	}
	total := streamWarmup + records
	g := &gate{}
	var v verbsRec

	var rxRecords, rxBytes, rxBad int
	c.Spawn("stream-rx", func(p *sim.Proc) {
		q, _, rcq, err := newRC(c.Nodes[1], 2*streamWindow, qp)
		if err != nil {
			qp.failed++
			return
		}
		lst, err := c.Nodes[1].QPIP.Listen(streamPort)
		if err != nil || lst.Post(q) != nil || q.WaitEstablished(p) != nil {
			qp.failed++
			return
		}
		var wrs [streamBatch]verbs.RecvWR
		var comps [streamWindow]verbs.Completion
		posted := 0
		refill := func() {
			for posted < total && posted-rxRecords < streamWindow {
				b := 0
				for b < streamBatch && posted+b < total && posted+b-rxRecords < streamWindow {
					wrs[b] = verbs.RecvWR{ID: uint64(posted + b), Capacity: msg}
					b++
				}
				k, err := q.PostRecvN(p, wrs[:b])
				if err != nil || k == 0 {
					rxBad++
					return
				}
				posted += k
			}
		}
		take := func(cp verbs.Completion) {
			rxRecords++
			rxBytes += cp.ByteLen
			if cp.Status != verbs.StatusSuccess || cp.ByteLen != msg {
				rxBad++
			}
		}
		refill()
		for rxRecords < total && rxBad == 0 {
			take(rcq.Wait(p))
			n := rcq.PollN(p, comps[:])
			for _, cp := range comps[:n] {
				take(cp)
			}
			refill()
		}
	})

	sentAt := make([]sim.Time, total) // post-call start per record
	postedAt := make([]sim.Time, total)
	seen := make([]bool, total)
	var occupancy float64
	c.Spawn("stream-tx", func(p *sim.Proc) {
		q, scq, _, err := newRC(c.Nodes[0], 2*streamWindow, qp)
		if err != nil || q.Connect(p, c.Nodes[1].Addr6, streamPort) != nil {
			qp.failed++
			return
		}
		var wrs [streamBatch]verbs.SendWR
		var comps [streamWindow]verbs.Completion
		inFlight, sent, calls := 0, 0, 0
		// occupy integrates the WRs in flight over the timed phase.
		var occArea int64
		var occAt sim.Time
		occupy := func(delta int) {
			now := p.Now()
			occArea += int64(inFlight) * int64(now-occAt)
			occAt = now
			inFlight += delta
		}
		reap := func(cp verbs.Completion) {
			occupy(-1)
			id := int(cp.WRID)
			if cp.Status != verbs.StatusSuccess || id < 0 || id >= total || seen[id] {
				if id < streamWarmup {
					qp.failed++
				}
				return
			}
			seen[id] = true
			if id < streamWarmup {
				return
			}
			now := p.Now()
			qp.ops++
			qp.bytes += int64(msg)
			qp.lat = append(qp.lat, int64(now-sentAt[id]))
			r.spans.add("stream", 0, 0, []string{"post", "send_cqe"}, sentAt[id], postedAt[id], now)
			qp.end = now
		}
		pump := func(until int) {
			for sent < until {
				for inFlight < streamWindow && sent < until {
					p.Sleep(in.pace[calls%len(in.pace)])
					calls++
					b := 0
					for b < streamBatch && inFlight+b < streamWindow && sent+b < until {
						wrs[b] = verbs.SendWR{ID: uint64(sent + b), Payload: buf.Virtual(msg)}
						b++
					}
					t := p.Now()
					k, err := v.postSendN(p, q, wrs[:b])
					for i := sent; i < sent+k; i++ {
						sentAt[i], postedAt[i] = t, p.Now()
					}
					sent += k
					occupy(k)
					if err != nil || k == 0 {
						qp.failed++
						return
					}
				}
				reap(v.wait(p, scq))
				if inFlight > 0 {
					n := v.pollN(p, scq, comps[:inFlight])
					for _, cp := range comps[:n] {
						reap(cp)
					}
				}
			}
			for inFlight > 0 {
				reap(v.wait(p, scq))
			}
		}
		pump(streamWarmup)
		v = verbsRec{}
		g.wait(p)
		occArea, occAt = 0, p.Now()
		pump(total)
		occupancy = ratio(float64(occArea), float64(streamWindow)*float64(qp.window()))
	})
	tm.built()
	c.Run()
	qp.before = qp.snap()
	qp.sram()
	tm.ready()
	qp.start = gateTime(c)
	g.release(c, qp.start)
	c.Run()
	tm.done(c)
	qp.after = qp.snap()
	qp.calls = v

	r.check(rxRecords == total && rxBytes == total*msg, "stream: received %d records / %d bytes, sent %d / %d", rxRecords, rxBytes, total, total*msg)
	r.check(rxBad == 0, "stream: %d bad receive completions", rxBad)
	for i, ok := range seen {
		if !ok {
			r.check(false, "stream: record %d never completed", i)
			break
		}
	}
	r.st.set("stream.window_occupancy", occupancy)
	r.finish(qp, nil)
	return r
}

// newRC builds a reliable QP with its own send and receive CQs on a node
// and registers the CQs with the path.
func newRC(node *core.Node, depth int, pt *path) (*verbs.QP, *verbs.CQ, *verbs.CQ, error) {
	scq := verbs.NewCQ(node.QPIP, depth*2)
	rcq := verbs.NewCQ(node.QPIP, depth*2)
	pt.cqs = append(pt.cqs, scq, rcq)
	q, err := verbs.NewQP(node.QPIP, verbs.QPConfig{
		Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
		SendDepth: depth, RecvDepth: depth,
	})
	return q, scq, rcq, err
}
