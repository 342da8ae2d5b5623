package main

import (
	"math"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/verbs"
)

// path is one datapath a workload drives (the QPIP path, or the reference
// path it is compared with): its clusters, the CQs and file system the
// benchmark created on them, and what its ops measured.
type path struct {
	clusters []*core.Cluster
	cqs      []*verbs.CQ
	fs       *storage.FS
	disk     *storage.Disk
	diskIO   *countingDev

	// planned is the number of timed ops, ops the number that succeeded;
	// failed counts failures outside the timed ops (set-up, warm-up,
	// teardown), which fail the run's correctness check.
	planned, ops, failed int
	bytes                int64   // useful payload bytes moved by the timed ops
	lat                  []int64 // per-op simulated latency, ns
	start, end           sim.Time
	calls                verbsRec // the benchmark's own verbs calls

	before, after snapshot
	sramPerConn   float64
}

func (pt *path) window() sim.Time { return pt.end - pt.start }

// snapshot is the cumulative state of the layers' public counters over a
// path's clusters at one instant.
type snapshot struct {
	events                              uint64
	hostBusy                            sim.Time
	nicBusy                             []sim.Time
	pciBusy                             []float64 // per node, ns
	txData, rxData, txAck, rxAck, coll  sim.Time
	pciBytes                            uint64
	frames, drops                       uint64
	dataSends, ackSends, nicRetrans     uint64
	dbDrops, rnr, qpnRecycled           uint64
	syscalls, softirqs, copied, csumErr uint64
	kernRetrans                         uint64
	irqFired                            uint64
	diskSeeks                           uint64
	fsHits, fsMisses                    uint64
	devBytes                            int64
}

func stageSum(s *trace.Stages) sim.Time {
	var t sim.Time
	for _, n := range s.Names() {
		t += s.Get(n).Total
	}
	return t
}

func (pt *path) snap() snapshot {
	var s snapshot
	for _, c := range pt.clusters {
		s.events += c.FiredTotal()
		for _, f := range []*fabric.Fabric{c.Myrinet, c.Eth} {
			if f == nil {
				continue
			}
			sent, _, dropped := f.Stats()
			s.frames += sent
			s.drops += dropped
		}
		for _, n := range c.Nodes {
			s.hostBusy += n.CPU.BusyTotal()
			_, b := n.Bus.Stats()
			s.pciBytes += b
			// The bus reports utilization since time zero against its
			// engine's clock; snapshots are taken at quiescence, so the busy
			// time recovered from it is exact.
			s.pciBusy = append(s.pciBusy, math.Round(n.Bus.Utilization()*float64(c.EngineOf(n.Index).Now())))
			if nic := n.QPIP; nic != nil {
				s.nicBusy = append(s.nicBusy, nic.CPU().BusyTotal())
				s.txData += stageSum(nic.TxData)
				s.rxData += stageSum(nic.RxData)
				s.txAck += stageSum(nic.TxAck)
				s.rxAck += stageSum(nic.RxAck)
				s.coll += stageSum(nic.Coll)
				st := nic.Stats()
				s.dataSends += st.DataSends
				s.ackSends += st.AckSends
				s.nicRetrans += st.Retransmissions
				s.dbDrops += nic.Net.Get("db.drop")
				s.rnr += nic.Net.Get("rx.rnr")
				s.qpnRecycled += nic.Net.Get("qpn.recycled")
			}
			if k := n.Kernel; k != nil {
				st := k.Stats()
				s.syscalls += st.Syscalls
				s.softirqs += st.SoftIRQs
				s.copied += st.BytesCopiedIn + st.BytesCopiedOut
				s.csumErr += st.ChecksumErrors
				s.kernRetrans += st.Retransmits
			}
		}
	}
	for _, cq := range pt.cqs {
		if l := cq.EventLine(); l != nil {
			s.irqFired += l.Fired()
		}
	}
	if pt.disk != nil {
		_, _, s.diskSeeks = pt.disk.Stats()
	}
	if pt.fs != nil {
		s.fsHits, s.fsMisses, _ = pt.fs.CacheStats()
	}
	if pt.diskIO != nil {
		s.devBytes = pt.diskIO.bytes
	}
	return s
}

// sram records the adapter SRAM footprint per live connection, taken at
// the provisioned point (all connections up).
func (pt *path) sram() {
	foot, conns := 0, 0
	for _, c := range pt.clusters {
		for _, n := range c.Nodes {
			if n.QPIP != nil {
				foot += n.QPIP.SRAMFootprint()
				conns += n.QPIP.LiveTCPConns()
			}
		}
	}
	pt.sramPerConn = ratio(float64(foot), float64(conns))
}

func (pt *path) liveQPs() (qps, tcbs int) {
	for _, c := range pt.clusters {
		for _, n := range c.Nodes {
			if n.QPIP != nil {
				qps += n.QPIP.LiveQPs()
				tcbs += n.QPIP.LiveTCPConns()
			}
		}
	}
	return qps, tcbs
}

// endToEnd records a path's end-to-end simulated metrics under prefix
// ("" for the QPIP path, "ref_" for the reference path).
func (pt *path) endToEnd(st *simStats, prefix string) {
	w := pt.window().Seconds()
	st.set(prefix+"goodput_mbps", ratio(float64(pt.bytes)/1e6, w))
	lat := cloneI64(pt.lat)
	st.set(prefix+"lat_p50_us", quantile(lat, 0.5))
	q := tailQ(len(lat))
	st.set(prefix+"lat_p99_us", quantile(lat, q))
	st.set(prefix+"lat_tail_q", q)
	st.set(prefix+"lat_samples", float64(len(lat)))
	st.set(prefix+"host_cpu_us_per_op", ratio((pt.after.hostBusy-pt.before.hostBusy).Micros(), float64(pt.ops)))
	st.set(prefix+"ops", float64(pt.ops))
	st.set(prefix+"window_ns", float64(pt.window()))
}

// layers records the per-layer simulated metrics of the QPIP path.
func (pt *path) layers(st *simStats) {
	a, b := pt.after, pt.before
	ops := float64(pt.ops)
	win := pt.window()
	st.set("fabric.frames_per_op", ratio(float64(a.frames-b.frames), ops))
	st.set("fabric.drops", float64(a.drops-b.drops))
	// Busy time over the timed window on the busiest bus, against the
	// window itself, so the value does not depend on how far a shard
	// clock ran ahead.
	pciBusy := 0.0
	for i := range a.pciBusy {
		pciBusy = math.Max(pciBusy, a.pciBusy[i]-b.pciBusy[i])
	}
	st.set("hw.pci_util", ratio(pciBusy, float64(win)))
	st.set("hw.pci_bytes_per_op", ratio(float64(a.pciBytes-b.pciBytes), ops))
	st.set("hw.doorbell_drops", float64(a.dbDrops-b.dbDrops))
	st.set("hw.irq_wakes_per_op", ratio(float64(a.irqFired-b.irqFired), ops))

	var nicBusy sim.Time
	cpuUtil := 0.0
	for i := range a.nicBusy {
		d := a.nicBusy[i] - b.nicBusy[i]
		nicBusy += d
		if u := ratio(float64(d), float64(win)); u > cpuUtil {
			cpuUtil = u
		}
	}
	st.set("qpipnic.cpu_util", cpuUtil)
	st.set("qpipnic.fw_us_per_op", ratio(nicBusy.Micros(), ops))
	st.set("qpipnic.tx_data_us", ratio((a.txData-b.txData).Micros(), ops))
	st.set("qpipnic.rx_data_us", ratio((a.rxData-b.rxData).Micros(), ops))
	st.set("qpipnic.tx_ack_us", ratio((a.txAck-b.txAck).Micros(), ops))
	st.set("qpipnic.rx_ack_us", ratio((a.rxAck-b.rxAck).Micros(), ops))
	st.set("qpipnic.coll_us_per_op", ratio((a.coll-b.coll).Micros(), ops))
	st.set("qpipnic.retransmits", float64(a.nicRetrans-b.nicRetrans))
	st.set("qpipnic.rnr_stalls", float64(a.rnr-b.rnr))
	st.set("qpipnic.sram_bytes_per_conn", pt.sramPerConn)
	st.set("qpipnic.qpn_recycled", float64(a.qpnRecycled-b.qpnRecycled))
	qps, _ := pt.liveQPs()
	st.set("qpipnic.live_qps_end", float64(qps))

	v := &pt.calls
	st.set("verbs.post_us_per_wr", ratio(float64(v.postNS)/1e3, float64(v.postWRs)))
	st.set("verbs.poll_us_per_cqe", ratio(float64(v.pollNS)/1e3, float64(v.pollCQE)))
	st.set("verbs.cqes_per_poll", ratio(float64(v.pollCQE), float64(v.pollCalls)))
	waits := cloneI64(v.waits)
	st.set("verbs.wait_p50_us", quantile(waits, 0.5))
	st.set("verbs.wait_p99_us", quantile(waits, tailQ(len(waits))))

	st.set("tcp.acks_per_data_seg", ratio(float64(a.ackSends-b.ackSends), float64(a.dataSends-b.dataSends)))

	if pt.disk != nil {
		busy := float64(a.devBytes-b.devBytes)/params.DiskBandwidth +
			float64(a.diskSeeks-b.diskSeeks)*params.DiskSeek.Seconds()
		st.set("storage.disk_util", ratio(busy, win.Seconds()))
		st.set("storage.seeks", float64(a.diskSeeks-b.diskSeeks))
		st.set("storage.cache_hit_ratio", ratio(float64(a.fsHits-b.fsHits), float64(a.fsHits-b.fsHits+a.fsMisses-b.fsMisses)))
	}
}

// fabricUtil reports the busiest fabric link direction's utilization since
// time zero. Each link measures against its own shard's clock, so the value
// depends on shard placement and stays outside the digest.
func (pt *path) fabricUtil() float64 {
	u := 0.0
	for _, c := range pt.clusters {
		for _, f := range []*fabric.Fabric{c.Myrinet, c.Eth} {
			if f != nil {
				u = math.Max(u, f.Utilization())
			}
		}
	}
	return u
}

// hostStack records the host-stack metrics of a reference path that runs
// over the host kernel.
func (pt *path) hostStack(st *simStats) {
	a, b := pt.after, pt.before
	ops := float64(pt.ops)
	st.set("hostos.cpu_us_per_op", ratio((a.hostBusy-b.hostBusy).Micros(), ops))
	st.set("hostos.syscalls_per_op", ratio(float64(a.syscalls-b.syscalls), ops))
	st.set("hostos.softirqs_per_op", ratio(float64(a.softirqs-b.softirqs), ops))
	st.set("hostos.copied_bytes_per_byte", ratio(float64(a.copied-b.copied), float64(pt.bytes)))
	st.set("hostos.checksum_errors", float64(a.csumErr-b.csumErr))
}
