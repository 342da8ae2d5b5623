package main

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/verbs"
)

// mesh-shard: a 16-node 4x4 mesh driven by the conservative parallel
// runner with 2 shards, nodes placed round-robin so every flow crosses
// shards. Each rank runs seeded rounds of NIC-offloaded barrier and
// 64-word ring allreduce through CollQ, each after a seeded compute phase
// on its host CPU; the same schedule then runs as
// the host-based reference over plain reliable QPs (tree barrier, ring
// allreduce, every step a host post and CQ wait). An op is one collective
// completion at one rank, timed from its post to its completion.

const (
	meshNodes  = 16
	meshShards = 2
	meshWords  = 64
	meshGroup  = 1
	meshSkewNS = 20000 // per-op host compute before posting: uniform [0, 20 us)
)

// meshOp is one collective of the schedule.
type meshOp struct {
	allreduce bool
	a, b, c   uint64 // allreduce input: rank i word j is a*(i+1) + b*j + c
	skew      [meshNodes]sim.Time
}

func (o *meshOp) input(rank int) []uint64 {
	v := make([]uint64, meshWords)
	for j := range v {
		v[j] = o.a*uint64(rank+1) + o.b*uint64(j) + o.c
	}
	return v
}

// sum is the closed-form allreduce result: sum over ranks of input(rank).
func (o *meshOp) sum() []uint64 {
	n := uint64(meshNodes)
	v := make([]uint64, meshWords)
	for j := range v {
		v[j] = o.a*(n*(n+1)/2) + n*(o.b*uint64(j)+o.c)
	}
	return v
}

func meshJob(seed uint64, scale float64) job {
	ops := meshSchedule(seed, scale)
	return job{
		sizes: map[string]any{"nodes": meshNodes, "shards": meshShards, "topology": "mesh 4x4",
			"ops_per_rank": len(ops), "vector_words": meshWords, "skew_ns": meshSkewNS},
		run: func(traced bool) *rep { return runMesh(ops, meshShards, traced) },
	}
}

// meshSchedule draws the collective schedule: rounds of one barrier and
// two allreduces, with seeded inputs and per-rank compute phases. The
// round count is fixed, so the memory the run holds does not vary with
// the seed.
func meshSchedule(seed uint64, scale float64) []meshOp {
	r := newRNG(seed, "mesh-shard")
	rounds := max(1, int(24*scale))
	var ops []meshOp
	for k := 0; k < 3*rounds; k++ {
		o := meshOp{allreduce: k%3 != 0, a: r.next(), b: r.next(), c: r.next()}
		for i := range o.skew {
			o.skew[i] = sim.Time(r.intn(meshSkewNS))
		}
		ops = append(ops, o)
	}
	return ops
}

// meshCluster builds the mesh on shards engines (1 means the plain
// sequential cluster).
func meshCluster(shards int) *core.Cluster {
	cfg := core.NodeConfig{QPIP: true, Topology: topo.Spec{Kind: topo.Mesh, W: 4, H: 4}}
	if shards <= 1 {
		return core.NewCluster(meshNodes, cfg)
	}
	return core.NewShardedCluster(meshNodes, cfg, core.ShardPlan{Shards: shards})
}

// rankRes is what one rank's process measured; ranks run on different
// shard goroutines, so each owns its own and they merge after the run.
type rankRes struct {
	lat    []int64
	ok     int
	failed int // set-up, warm-up or teardown failures
	bytes  int64
	end    sim.Time
	cqs    []*verbs.CQ
	v      verbsRec
	log    spanLog
}

// rankCQs registers every rank's CQs with the path. The ranks create
// them all during set-up, so this runs before the "before" snapshot.
func rankCQs(pt *path, rs []rankRes) {
	for i := range rs {
		pt.cqs = append(pt.cqs, rs[i].cqs...)
	}
}

func mergeRanks(pt *path, rs []rankRes, log *spanLog) {
	for i := range rs {
		x := &rs[i]
		pt.lat = append(pt.lat, x.lat...)
		pt.ops += x.ok
		pt.failed += x.failed
		pt.bytes += x.bytes
		pt.calls.add(&x.v)
		log.merge(&x.log)
		if x.end > pt.end {
			pt.end = x.end
		}
	}
}

func runMesh(ops []meshOp, shards int, traced bool) *rep {
	r := newRep(traced)
	tm := startTimer(r)
	g := &gate{}
	planned := meshNodes * len(ops)

	nc := meshCluster(shards)
	qp := &path{clusters: []*core.Cluster{nc}, planned: planned}
	addrs := make([]inet.Addr6, meshNodes)
	for i := range addrs {
		addrs[i] = nc.Nodes[i].Addr6
	}
	nres := make([]rankRes, meshNodes)
	for i := 0; i < meshNodes; i++ {
		i := i
		res := &nres[i]
		res.log.on = traced
		nc.SpawnOn(i, fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			nic := nc.Nodes[i].QPIP
			cq := verbs.NewCQ(nic, 64)
			res.cqs = append(res.cqs, cq)
			q, err := verbs.NewCollQ(nic, meshGroup, i, addrs, cq)
			if err != nil || q.PostBarrier(p, 0) != nil || cq.Wait(p).Status != verbs.StatusSuccess {
				res.failed++
				return
			}
			g.wait(p)
			for k := range ops {
				o := &ops[k]
				p.Use(nc.Nodes[i].CPU.Server, o.skew[i])
				t0 := p.Now()
				id := uint64(k + 1)
				if o.allreduce {
					err = q.PostAllreduce(p, id, o.input(i))
				} else {
					err = q.PostBarrier(p, id)
				}
				t1 := p.Now()
				if err != nil {
					return
				}
				res.v.postNS += int64(t1 - t0)
				res.v.postWRs++
				cp := res.v.wait(p, cq)
				t2 := p.Now()
				if cp.Status != verbs.StatusSuccess || cp.WRID != id {
					continue
				}
				if o.allreduce {
					if !equalVec(verbs.UnmarshalVec(cp.Payload), o.sum()) {
						continue
					}
					res.bytes += 8 * meshWords
				}
				res.ok++
				res.lat = append(res.lat, int64(t2-t0))
				res.end = t2
				res.log.add("coll", 0, int32(i), []string{"post", "complete"}, t0, t1, t2)
			}
		})
	}

	hc := meshCluster(shards)
	ref := &path{clusters: []*core.Cluster{hc}, planned: planned}
	hres := make([]rankRes, meshNodes)
	for i := 0; i < meshNodes; i++ {
		i := i
		res := &hres[i]
		res.log.on = traced
		hc.SpawnOn(i, fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			hostRank(p, hc, i, ops, res, g)
		})
	}
	tm.built()
	nc.Run()
	hc.Run()
	rankCQs(qp, nres)
	rankCQs(ref, hres)
	qp.before, ref.before = qp.snap(), ref.snap()
	fired0 := engineFired(nc)
	tm.ready()
	qp.start = gateTime(nc, hc)
	ref.start = qp.start
	g.release(nc, qp.start)
	g.release(hc, ref.start)
	nc.Run()
	hc.Run()
	tm.done(nc, hc)

	mergeRanks(qp, nres, r.spans)
	mergeRanks(ref, hres, r.spans)
	qp.after, ref.after = qp.snap(), ref.snap()
	if la, ok := nc.Myrinet.CrossShardLookahead(); ok {
		var max, sum float64
		for i, n := range engineFired(nc) {
			f := float64(n - fired0[i])
			sum += f
			if f > max {
				max = f
			}
		}
		r.placement["par.lookahead_ns"] = float64(la)
		r.placement["par.shard_event_imbalance"] = ratio(max, sum/float64(len(nc.Engines)))
	}
	r.finish(qp, ref)
	return r
}

// engineFired returns the events each of c's engines has fired.
func engineFired(c *core.Cluster) []uint64 {
	out := make([]uint64, len(c.Engines))
	for i, e := range c.Engines {
		out[i] = e.Fired()
	}
	return out
}

func equalVec(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hostEdge is one reliable QP of the host-based reference.
type hostEdge struct {
	qp       *verbs.QP
	scq, rcq *verbs.CQ
}

// hostRank runs rank i of the host-based reference: a binomial-tree
// barrier (the firmware's tree: parent (i-1)/2) and a ring allreduce with
// real data over plain reliable QPs, every step a host post and a
// host-side CQ wait, the combine charged to the host CPU at one cycle per
// byte. The schedule, inputs and skews are the offloaded run's.
func hostRank(p *sim.Proc, c *core.Cluster, i int, ops []meshOp, res *rankRes, g *gate) {
	node := c.Nodes[i]
	n := meshNodes
	clen := (meshWords + n - 1) / n
	steps := 2 * (n - 1)
	depth := 2*len(ops)*steps + 8
	edge := func() (*hostEdge, error) {
		scq := verbs.NewCQ(node.QPIP, 2*depth)
		rcq := verbs.NewCQ(node.QPIP, 2*depth)
		res.cqs = append(res.cqs, scq, rcq)
		q, err := verbs.NewQP(node.QPIP, verbs.QPConfig{Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq, SendDepth: depth, RecvDepth: depth})
		return &hostEdge{q, scq, rcq}, err
	}
	fail := func() { res.failed++ }

	// Listeners first, so no SYN finds an unbound port.
	var children []*hostEdge
	for _, ch := range []int{2*i + 1, 2*i + 2} {
		if ch >= n {
			continue
		}
		e, err := edge()
		if err != nil {
			fail()
			return
		}
		lst, err := node.QPIP.Listen(uint16(7100 + ch))
		if err != nil || lst.Post(e.qp) != nil {
			fail()
			return
		}
		children = append(children, e)
	}
	pred, err := edge()
	if err != nil {
		fail()
		return
	}
	lst, err := node.QPIP.Listen(uint16(7200 + i))
	if err != nil || lst.Post(pred.qp) != nil {
		fail()
		return
	}
	var parent *hostEdge
	if i > 0 {
		if parent, err = edge(); err != nil || parent.qp.Connect(p, c.Nodes[(i-1)/2].Addr6, uint16(7100+i)) != nil {
			fail()
			return
		}
	}
	succ, err := edge()
	if err != nil || succ.qp.Connect(p, c.Nodes[(i+1)%n].Addr6, uint16(7200+(i+1)%n)) != nil {
		fail()
		return
	}
	for _, e := range append(children, pred) {
		if e.qp.WaitEstablished(p) != nil {
			fail()
			return
		}
	}
	// Receives for every message of the run, posted up front.
	barriers := 1
	for _, o := range ops {
		if !o.allreduce {
			barriers++
		}
	}
	for k := 0; k < barriers; k++ {
		for _, e := range children {
			if e.qp.PostRecv(p, verbs.RecvWR{ID: uint64(k), Capacity: 64}) != nil {
				fail()
				return
			}
		}
		if parent != nil && parent.qp.PostRecv(p, verbs.RecvWR{ID: uint64(k), Capacity: 64}) != nil {
			fail()
			return
		}
	}
	for k := 0; k < (len(ops)-barriers+1)*steps; k++ {
		if pred.qp.PostRecv(p, verbs.RecvWR{ID: uint64(k), Capacity: 8 * clen}) != nil {
			fail()
			return
		}
	}

	var sends int
	var firstPost sim.Time
	send := func(e *hostEdge, b buf.Buf) bool {
		err := res.v.postSend(p, e.qp, verbs.SendWR{ID: uint64(sends), Payload: b})
		if firstPost == 0 {
			firstPost = p.Now()
		}
		sends++
		return err == nil
	}
	recv := func(e *hostEdge) (verbs.Completion, bool) {
		cp := res.v.wait(p, e.rcq)
		return cp, cp.Status == verbs.StatusSuccess
	}
	barrier := func() bool {
		for _, e := range children {
			if _, ok := recv(e); !ok {
				return false
			}
		}
		if parent != nil {
			if !send(parent, buf.Virtual(1)) {
				return false
			}
			if _, ok := recv(parent); !ok {
				return false
			}
		}
		for _, e := range children {
			if !send(e, buf.Virtual(1)) {
				return false
			}
		}
		return true
	}
	allreduce := func(vec []uint64) bool {
		chunk := func(k int) []uint64 {
			k = ((k % n) + n) % n
			lo := k * clen
			hi := lo + clen
			if hi > len(vec) {
				hi = len(vec)
			}
			if lo > hi {
				lo = hi
			}
			return vec[lo:hi]
		}
		for s := 0; s < n-1; s++ { // reduce-scatter
			if !send(succ, verbs.MarshalVec(chunk(i-s))) {
				return false
			}
			cp, ok := recv(pred)
			if !ok {
				return false
			}
			dst, in := chunk(i-s-1), verbs.UnmarshalVec(cp.Payload)
			for j := range dst {
				if j < len(in) {
					dst[j] += in[j]
				}
			}
			p.Use(node.CPU.Server, params.HostCycles(float64(8*clen)))
		}
		for s := 0; s < n-1; s++ { // allgather
			if !send(succ, verbs.MarshalVec(chunk(i+1-s))) {
				return false
			}
			cp, ok := recv(pred)
			if !ok {
				return false
			}
			copy(chunk(i-s), verbs.UnmarshalVec(cp.Payload))
			p.Use(node.CPU.Server, params.HostCycles(float64(8*clen)))
		}
		return true
	}

	if !barrier() { // warm-up
		fail()
		return
	}
	res.v = verbsRec{}
	g.wait(p)
	for k := range ops {
		o := &ops[k]
		p.Use(node.CPU.Server, o.skew[i])
		t0 := p.Now()
		firstPost = 0
		var ok bool
		if o.allreduce {
			vec := o.input(i)
			ok = allreduce(vec) && equalVec(vec, o.sum())
		} else {
			ok = barrier()
		}
		if !ok {
			return
		}
		t2 := p.Now()
		if o.allreduce {
			res.bytes += 8 * meshWords
		}
		res.ok++
		res.lat = append(res.lat, int64(t2-t0))
		res.end = t2
		res.log.add("coll_ref", 1, int32(i), []string{"post", "complete"}, t0, firstPost, t2)
	}
	// Every send completion must be a success.
	comps := make([]verbs.Completion, 64)
	for _, e := range append(append(children, pred, succ), parentOrNil(parent)...) {
		for {
			k := e.scq.PollN(p, comps)
			for _, cp := range comps[:k] {
				if cp.Status != verbs.StatusSuccess {
					res.failed++
				}
			}
			if k == 0 {
				break
			}
		}
	}
}

func parentOrNil(e *hostEdge) []*hostEdge {
	if e == nil {
		return nil
	}
	return []*hostEdge{e}
}
