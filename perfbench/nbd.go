package main

import (
	"bytes"
	"encoding/binary"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/nbd"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/verbs"
)

// nbd: the Figure 7 job. The client writes a file through the ext2-lite
// file system (storage.FS) over NBD, syncs, invalidates its cache, then
// reads the file back sequentially. Application calls are a seeded
// 64-256 KB each (reads 128-256 KB), payloads are real seeded bytes, and every byte read is
// compared with what was written. The job runs over QPIP at the 9000 B
// MTU and over IP/GigE as the reference path. An op is one application
// read or write call, timed for its duration.

const (
	nbdCallMin = 64 << 10
	nbdCallMax = 256 << 10
	// Reads use the upper half of the range, so the writes outnumber them
	// and the median op falls inside the write latencies, which follow the
	// seeded call sizes, rather than on the boundary between writes and
	// reads, where it would swing with the extremes of both.
	nbdReadMin = 128 << 10
	nbdCache   = 2 << 20 // the file is about 4x the client cache, as in Figure 7
	nbdPort    = 10809
	nbdWarmup  = 1 << 20 // warm-up region, written and read back past the file's end
)

// nbdIn is the generated input: the file image and the call sizes.
type nbdIn struct {
	image         []byte
	writes, reads []int
}

func nbdJob(seed uint64, scale float64) job {
	r := newRNG(seed, "nbd")
	calls := int(128 * scale)
	if calls < 2 {
		calls = 2
	}
	in := nbdIn{writes: stratifiedLogUniform(r, calls, nbdCallMin, nbdCallMax, params.FSBlockSize)}
	size := 0
	for _, n := range in.writes {
		size += n
	}
	for left, rs := size, stratifiedLogUniform(r, calls, nbdReadMin, nbdCallMax, params.FSBlockSize); left > 0; {
		for _, n := range rs {
			if left == 0 {
				break
			}
			if n > left {
				n = left
			}
			in.reads = append(in.reads, n)
			left -= n
		}
	}
	in.image = make([]byte, size)
	for i := 0; i < size; i += 8 {
		binary.LittleEndian.PutUint64(in.image[i:], r.next())
	}
	return job{
		sizes: map[string]any{"file_bytes": size, "write_calls": len(in.writes), "read_calls": len(in.reads),
			"write_bytes": []int{nbdCallMin, nbdCallMax}, "read_bytes": []int{nbdReadMin, nbdCallMax}, "client_cache_bytes": nbdCache},
		run: func(traced bool) *rep { return runNBD(&in, traced) },
	}
}

// countingDev counts the bytes the file system moves to and from its
// block device, from which the benchmark derives disk utilization.
type countingDev struct {
	storage.BlockDev
	bytes int64
}

func (d *countingDev) Read(p *sim.Proc, off int64, n int) (buf.Buf, error) {
	d.bytes += int64(n)
	return d.BlockDev.Read(p, off, n)
}

func (d *countingDev) Write(p *sim.Proc, off int64, b buf.Buf) error {
	d.bytes += int64(b.Len())
	return d.BlockDev.Write(p, off, b)
}

// nbdWarm writes a warm-up region past the file's end through the file
// system, syncs, invalidates and reads it back.
func nbdWarm(p *sim.Proc, in *nbdIn, fs *storage.FS) bool {
	off := int64(len(in.image))
	data := in.image[:min(nbdWarmup, len(in.image))]
	if fs.WriteAt(p, off, buf.Bytes(data)) != nil || fs.Sync(p) != nil {
		return false
	}
	fs.Invalidate()
	b, err := fs.ReadAt(p, off, len(data))
	fs.Invalidate()
	return err == nil && bytes.Equal(b.Data(), data)
}

// nbdPhases runs the timed job on a mounted file system: the write calls,
// sync, invalidate, then the read calls, each verified.
func nbdPhases(p *sim.Proc, in *nbdIn, fs *storage.FS, pt *path, log *spanLog, pid int32) {
	off := 0
	for _, n := range in.writes {
		t := p.Now()
		if fs.WriteAt(p, int64(off), buf.Bytes(in.image[off:off+n])) == nil {
			pt.ops++
			pt.bytes += int64(n)
			pt.lat = append(pt.lat, int64(p.Now()-t))
			log.add("nbd", pid, 0, []string{"write_call"}, t, p.Now())
		}
		off += n
	}
	if fs.Sync(p) != nil {
		pt.failed++
	}
	fs.Invalidate()
	off = 0
	for _, n := range in.reads {
		t := p.Now()
		b, err := fs.ReadAt(p, int64(off), n)
		if err == nil && b.Len() == n && bytes.Equal(b.Data(), in.image[off:off+n]) {
			pt.ops++
			pt.bytes += int64(n)
			pt.lat = append(pt.lat, int64(p.Now()-t))
			log.add("nbd", pid, 1, []string{"read_call"}, t, p.Now())
		}
		off += n
	}
	pt.end = p.Now()
}

func runNBD(in *nbdIn, traced bool) *rep {
	r := newRep(traced)
	tm := startTimer(r)
	planned := len(in.writes) + len(in.reads)
	diskSize := int64(len(in.image)) + 64<<20 // room for the warm-up region
	g := &gate{}

	// QPIP path.
	qc := core.NewCluster(2, core.NodeConfig{QPIP: true, QPIPMTU: params.MTUJumbo})
	qp := &path{clusters: []*core.Cluster{qc}, planned: planned, disk: storage.NewDisk(qc.Eng, "server.disk", diskSize)}
	maxMsg := qc.Nodes[0].QPIP.MaxMessage()
	var srvQ *verbs.QP
	qc.Spawn("nbd-server", func(p *sim.Proc) {
		q, scq, rcq, err := newNBDQP(qc.Nodes[1], qp)
		if err != nil {
			qp.failed++
			return
		}
		srvQ = q
		lst, err := qc.Nodes[1].QPIP.Listen(nbdPort)
		if err != nil || lst.Post(q) != nil || q.WaitEstablished(p) != nil {
			qp.failed++
			return
		}
		nbd.ServeQP(p, qc.Nodes[1].CPU, q, scq, rcq, maxMsg, qp.disk)
	})
	qlog := &spanLog{on: traced}
	qc.Spawn("nbd-client", func(p *sim.Proc) {
		q, scq, rcq, err := newNBDQP(qc.Nodes[0], qp)
		if err != nil || q.Connect(p, qc.Nodes[1].Addr6, nbdPort) != nil {
			qp.failed++
			return
		}
		cli := nbd.NewQPClient(qc.Eng, qc.Nodes[0].CPU, q, scq, rcq, maxMsg, diskSize, params.NBDQueueDepth)
		qp.diskIO = &countingDev{BlockDev: cli}
		qp.fs = storage.NewFS(qp.diskIO, qc.Nodes[0].CPU, nbdCache)
		if !nbdWarm(p, in, qp.fs) {
			qp.failed++
		}
		g.wait(p)
		nbdPhases(p, in, qp.fs, qp, qlog, 0)
		// Teardown: closing both QPs flushes the receives the NBD reader
		// and server wait on, so their processes end and the cluster can
		// be collected.
		q.Close()
		srvQ.Close()
	})

	// Reference path: the host stack over Gigabit Ethernet.
	rc := core.NewCluster(2, core.NodeConfig{GigE: true})
	ref := &path{clusters: []*core.Cluster{rc}, planned: planned, disk: storage.NewDisk(rc.Eng, "server.disk", diskSize)}
	rc.Spawn("nbd-server", func(p *sim.Proc) {
		lst := rc.Nodes[1].Kernel.NewSocket(hostos.TCPSock)
		if lst.Listen(nbdPort, 4) != nil {
			ref.failed++
			return
		}
		s := lst.Accept(p)
		s.SetNoDelay(true)
		s.SetSndBuf(512 << 10)
		nbd.ServeSock(p, rc.Nodes[1].CPU, s, ref.disk)
	})
	rlog := &spanLog{}
	rc.Spawn("nbd-client", func(p *sim.Proc) {
		s := rc.Nodes[0].Kernel.NewSocket(hostos.TCPSock)
		s.SetNoDelay(true)
		s.SetSndBuf(512 << 10)
		if s.Connect(p, rc.Nodes[1].Addr4, nbdPort) != nil {
			ref.failed++
			return
		}
		cli := nbd.NewSockClient(rc.Eng, rc.Nodes[0].CPU, s, diskSize, params.NBDQueueDepth)
		ref.diskIO = &countingDev{BlockDev: cli}
		ref.fs = storage.NewFS(ref.diskIO, rc.Nodes[0].CPU, nbdCache)
		if !nbdWarm(p, in, ref.fs) {
			ref.failed++
		}
		g.wait(p)
		nbdPhases(p, in, ref.fs, ref, rlog, 1)
		if s.Close(p) != nil {
			ref.failed++
		}
	})
	tm.built()
	qc.Run()
	rc.Run()
	qp.before, ref.before = qp.snap(), ref.snap()
	qp.sram()
	tm.ready()
	qp.start = gateTime(qc, rc)
	ref.start = qp.start
	g.release(qc, qp.start)
	g.release(rc, ref.start)
	qc.Run()
	rc.Run()
	tm.done(qc, rc)
	qp.after, ref.after = qp.snap(), ref.snap()

	r.spans.merge(qlog)
	ref.hostStack(r.st)
	r.finish(qp, ref)
	return r
}

func newNBDQP(node *core.Node, pt *path) (*verbs.QP, *verbs.CQ, *verbs.CQ, error) {
	scq := verbs.NewCQ(node.QPIP, 1024)
	rcq := verbs.NewCQ(node.QPIP, 1024)
	pt.cqs = append(pt.cqs, scq, rcq)
	q, err := verbs.NewQP(node.QPIP, verbs.QPConfig{
		Transport: verbs.Reliable, SendCQ: scq, RecvCQ: rcq,
		SendDepth: 512, RecvDepth: 512,
	})
	return q, scq, rcq, err
}
