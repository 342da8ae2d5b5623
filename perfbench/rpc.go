package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// rpc: closed-loop RPC over many QPIP connections. One server node shares
// one SRQ and one receive CQ across every connection; four client nodes
// hold 64 connections each, one request outstanding per connection, with
// seeded exponential think time. Each connection closes and reconnects
// after a seeded 16-64 requests. Clients reap with CQ.Wait (the interrupt
// path); the server reaps with Wait then PollN. An op is one
// request-reply, timed from the request post to the reaped reply.

const (
	rpcClients     = 4
	rpcConnsPerCli = 64
	rpcPort        = 7300
	rpcReqMin      = 32
	rpcReqMax      = 512
	rpcReplyMin    = 32
	rpcReplyMax    = 8192
	rpcThinkMeanUS = 200
	rpcSRQDepth    = 512
	rpcHeader      = 13 // slot u32, seq u32, reply size u32, last u8
)

// rpcReq is one request of a connection slot.
type rpcReq struct {
	size, reply int
	think       sim.Time
	last        bool // last request of its session: both ends close after it
}

// rpcIn is the generated input: per connection slot, its requests (the
// first is the warm-up) and its session boundaries.
type rpcIn struct {
	slots    [][]rpcReq
	sessions int
	timed    int
}

func rpcJob(seed uint64, scale float64) job {
	r := newRNG(seed, "rpc")
	perSlot := int(96 * scale)
	if perSlot < 2 {
		perSlot = 2
	}
	in := rpcIn{slots: make([][]rpcReq, rpcClients*rpcConnsPerCli)}
	for s := range in.slots {
		reqs := make([]rpcReq, perSlot+1)
		left := 0
		for i := range reqs {
			if left == 0 {
				left = r.between(16, 64)
				in.sessions++
			}
			left--
			reqs[i] = rpcReq{
				size:  r.logUniform(rpcReqMin, rpcReqMax),
				reply: r.logUniform(rpcReplyMin, rpcReplyMax),
				think: sim.Time(r.exp(rpcThinkMeanUS * 1e3)),
				last:  left == 0 || i == len(reqs)-1,
			}
		}
		in.slots[s] = reqs
		in.timed += perSlot
	}
	return job{
		sizes: map[string]any{
			"connections": len(in.slots), "requests": in.timed, "sessions": in.sessions,
			"think_mean_us": rpcThinkMeanUS, "request_bytes": []int{rpcReqMin, rpcReqMax}, "reply_bytes": []int{rpcReplyMin, rpcReplyMax},
		},
		run: func(traced bool) *rep { return runRPC(&in, traced) },
	}
}

func runRPC(in *rpcIn, traced bool) *rep {
	r := newRep(traced)
	tm := startTimer(r)
	nconns := len(in.slots)
	c := core.NewCluster(1+rpcClients, core.NodeConfig{QPIP: true, QPIPMaxQPs: 4*nconns + 64})
	qp := &path{clusters: []*core.Cluster{c}, planned: in.timed}
	g := &gate{}

	// Server-side instants per slot and request, for the spans.
	srvRecv := make([][]sim.Time, nconns)
	srvSent := make([][]sim.Time, nconns)
	for s := range in.slots {
		srvRecv[s] = make([]sim.Time, len(in.slots[s]))
		srvSent[s] = make([]sim.Time, len(in.slots[s]))
	}
	total := 0
	for _, reqs := range in.slots {
		total += len(reqs)
	}

	srv := c.Nodes[0].QPIP
	var srq *verbs.SRQ
	var srvV verbsRec
	c.Spawn("rpc-server", func(p *sim.Proc) {
		var err error
		if srq, err = verbs.NewSRQ(srv, verbs.SRQConfig{Depth: rpcSRQDepth}); err != nil {
			qp.failed++
			return
		}
		rcq := verbs.NewCQ(srv, 2*rpcSRQDepth)
		scq := verbs.NewCQ(srv, 4*nconns)
		qp.cqs = append(qp.cqs, rcq, scq)
		lst, err := srv.Listen(rpcPort)
		if err != nil {
			qp.failed++
			return
		}
		qps := map[uint32]*verbs.QP{}
		spare := func() bool {
			q, err := verbs.NewQP(srv, verbs.QPConfig{Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 4, SRQ: srq})
			if err != nil || lst.Post(q) != nil {
				qp.failed++
				return false
			}
			qps[q.QPN] = q
			return true
		}
		// Every connection's first accept, plus one spare per slot: a
		// slot can only reconnect after the server has seen its previous
		// session, so the listener is never empty.
		for i := 0; i < 2*nconns; i++ {
			if !spare() {
				return
			}
		}
		recvs := make([]verbs.RecvWR, rpcSRQDepth)
		for i := range recvs {
			recvs[i] = verbs.RecvWR{ID: uint64(i), Capacity: rpcReqMax}
		}
		if k, err := srq.PostRecvN(p, recvs); err != nil || k != len(recvs) {
			qp.failed++
			return
		}
		active := map[uint32]bool{}
		served, closed := 0, 0
		comps := make([]verbs.Completion, 64)
		scomps := make([]verbs.Completion, 64)
		serve := func(cp verbs.Completion) {
			served++
			now := p.Now()
			q := qps[cp.QPN]
			data := cp.Payload.Data()
			if cp.Status != verbs.StatusSuccess || q == nil || len(data) < rpcHeader {
				qp.failed++
				return
			}
			slot := int(binary.LittleEndian.Uint32(data[0:]))
			seq := int(binary.LittleEndian.Uint32(data[4:]))
			reply := int(binary.LittleEndian.Uint32(data[8:]))
			last := data[12] == 1
			if slot >= nconns || seq >= len(in.slots[slot]) || in.slots[slot][seq].size != cp.ByteLen {
				qp.failed++
				return
			}
			if !active[cp.QPN] {
				active[cp.QPN] = true
				spare()
			}
			srvRecv[slot][seq] = now
			id := uint64(slot)<<32 | uint64(seq)<<1
			if last {
				id |= 1
			}
			if srvV.postSend(p, q, verbs.SendWR{ID: id, Payload: buf.Virtual(reply)}) != nil {
				qp.failed++
			}
			srvSent[slot][seq] = p.Now()
		}
		reapSends := func(n int) {
			for _, cp := range scomps[:n] {
				if cp.Status != verbs.StatusSuccess {
					qp.failed++
				}
				if cp.WRID&1 == 1 {
					if q := qps[cp.QPN]; q != nil {
						q.Close()
						delete(qps, cp.QPN)
						delete(active, cp.QPN)
					}
					closed++
				}
			}
		}
		for served < total || closed < in.sessions {
			if served < total {
				n := 1
				comps[0] = srvV.wait(p, rcq)
				n += srvV.pollN(p, rcq, comps[1:])
				for _, cp := range comps[:n] {
					serve(cp)
				}
				for i := range recvs[:n] {
					recvs[i].ID = uint64(served + i)
				}
				if k, err := srq.PostRecvN(p, recvs[:n]); err != nil || k != n {
					qp.failed++
				}
			} else {
				scomps[0] = srvV.wait(p, scq)
				reapSends(1)
			}
			reapSends(srvV.pollN(p, scq, scomps))
		}
		// Teardown: close the spares still parked on the listener.
		for {
			q, ok := lst.TakeIdle()
			if !ok {
				break
			}
			q.Close()
			delete(qps, q.QPN)
		}
		r.check(len(qps) == 0, "rpc: %d server QPs left open", len(qps))
	})

	vs := make([]verbsRec, nconns)
	lat := make([][]int64, nconns)
	ends := make([]sim.Time, nconns)
	logs := make([]*spanLog, nconns)
	for s := range in.slots {
		s := s
		node := c.Nodes[1+s%rpcClients]
		logs[s] = &spanLog{on: traced}
		c.Spawn(fmt.Sprintf("rpc-client%d", s), func(p *sim.Proc) {
			v := &vs[s]
			scq := verbs.NewCQ(node.QPIP, 8)
			rcq := verbs.NewCQ(node.QPIP, 8)
			qp.cqs = append(qp.cqs, scq, rcq)
			var q *verbs.QP
			for seq, req := range in.slots[s] {
				if q == nil {
					var err error
					q, err = verbs.NewQP(node.QPIP, verbs.QPConfig{Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: 4, RecvDepth: 4})
					if err != nil || q.Connect(p, c.Nodes[0].Addr6, rpcPort) != nil {
						qp.failed++
						return
					}
				}
				if seq == 1 {
					vs[s] = verbsRec{}
					g.wait(p)
				}
				if seq > 0 {
					p.Sleep(req.think)
				}
				if q.PostRecv(p, verbs.RecvWR{ID: uint64(seq), Capacity: rpcReplyMax}) != nil {
					qp.failed++
					return
				}
				hdr := make([]byte, req.size)
				binary.LittleEndian.PutUint32(hdr[0:], uint32(s))
				binary.LittleEndian.PutUint32(hdr[4:], uint32(seq))
				binary.LittleEndian.PutUint32(hdr[8:], uint32(req.reply))
				if req.last {
					hdr[12] = 1
				}
				t0 := p.Now()
				if v.postSend(p, q, verbs.SendWR{ID: uint64(seq), Payload: buf.Bytes(hdr)}) != nil {
					qp.failed++
					return
				}
				t1 := p.Now()
				rp := v.wait(p, rcq)
				tc := p.Now()
				sp := v.wait(p, scq)
				ok := rp.Status == verbs.StatusSuccess && rp.WRID == uint64(seq) && rp.ByteLen == req.reply &&
					sp.Status == verbs.StatusSuccess && sp.WRID == uint64(seq)
				switch {
				case seq == 0:
					if !ok {
						qp.failed++
					}
				case ok:
					lat[s] = append(lat[s], int64(tc-t0))
					ends[s] = tc
					logs[s].add("rpc", int32(1+s%rpcClients), int32(s), []string{"client_post", "request_flight", "server_turn", "reply_flight"},
						t0, t1, srvRecv[s][seq], srvSent[s][seq], tc)
				}
				if !ok {
					return
				}
				if req.last {
					q.Close()
					q = nil
				}
			}
		})
	}
	tm.built()
	c.Run()
	srvV = verbsRec{} // the server's verbs calls count from the gate on
	qp.before = qp.snap()
	qp.sram()
	tm.ready()
	qp.start = gateTime(c)
	g.release(c, qp.start)
	c.Run()
	tm.done(c)
	qp.after = qp.snap()

	qp.calls = srvV
	for s := range in.slots {
		qp.calls.add(&vs[s])
		qp.lat = append(qp.lat, lat[s]...)
		r.spans.merge(logs[s])
		if ends[s] > qp.end {
			qp.end = ends[s]
		}
		for _, req := range in.slots[s][1 : len(lat[s])+1] {
			qp.bytes += int64(req.size + req.reply)
		}
	}
	qp.ops = len(qp.lat)
	qps, tcbs := qp.liveQPs()
	r.check(qps == 0 && tcbs == 0, "rpc: %d live QPs and %d TCBs after teardown", qps, tcbs)
	r.check(srq != nil && srq.Attached() == 0, "rpc: QPs still attached to the SRQ after teardown")
	r.finish(qp, nil)
	return r
}
