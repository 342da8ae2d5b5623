package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"
)

// rep is one repetition of a workload: set-up, then the timed phase.
type rep struct {
	setupCluster time.Duration // building the clusters and spawning processes
	setupConnect time.Duration // connections or groups up, warm-up done
	wall         time.Duration // the timed phase

	heapLive            uint64 // live heap after a forced GC, clusters still reachable
	mallocs, allocBytes uint64 // during the timed phase
	gcCycles            uint32 // during the timed phase
	eventsTimed         uint64 // events fired during the timed phase
	attempted, failed   int
	checks              []string
	st                  *simStats
	placement           map[string]float64 // depend on shard placement: outside the digest
	digest              string
	spans               *spanLog
	profile             []byte // CPU profile of the timed phase (traced runs)
}

// timer splits a repetition's host time into its phases.
type timer struct {
	r      *rep
	t0, t1 time.Time
	ms     runtime.MemStats
	prof   *bytes.Buffer
}

func startTimer(r *rep) *timer { return &timer{r: r, t0: time.Now()} }

// built ends cluster construction.
func (t *timer) built() {
	now := time.Now()
	t.r.setupCluster = now.Sub(t.t0)
	t.t0 = now
}

// ready ends set-up; a GC here keeps set-up garbage out of the timed phase.
// A traced repetition profiles the CPU over the timed phase only.
func (t *timer) ready() {
	t.r.setupConnect = time.Since(t.t0)
	runtime.GC()
	runtime.ReadMemStats(&t.ms)
	if t.r.spans.on {
		t.prof = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(t.prof); err != nil {
			t.r.check(false, "starting the CPU profile: %v", err)
			t.prof = nil
		}
	}
	t.t1 = time.Now()
}

// done ends the timed phase and measures the live heap with the clusters
// (held by keep) still reachable.
func (t *timer) done(keep ...any) {
	t.r.wall = time.Since(t.t1)
	if t.prof != nil {
		pprof.StopCPUProfile()
		t.r.profile = t.prof.Bytes()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.r.mallocs = ms.Mallocs - t.ms.Mallocs
	t.r.allocBytes = ms.TotalAlloc - t.ms.TotalAlloc
	t.r.gcCycles = ms.NumGC - t.ms.NumGC
	// Two cycles: the first only moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	t.r.heapLive = ms.HeapAlloc
	runtime.KeepAlive(keep)
}

func newRep(traced bool) *rep {
	return &rep{st: newSimStats(), spans: &spanLog{on: traced}, placement: map[string]float64{}}
}

// check records a failed correctness check.
func (r *rep) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// finish records the statistics of the QPIP path and, if the workload has
// one, the reference path, and seals the digest.
func (r *rep) finish(qp, ref *path) {
	paths, prefixes := []*path{qp}, []string{"", "ref_"}
	if ref != nil {
		paths = append(paths, ref)
	}
	var retrans float64
	var series [][]int64
	for i, pt := range paths {
		a, b := pt.after, pt.before
		retrans += float64(a.nicRetrans - b.nicRetrans + a.kernRetrans - b.kernRetrans)
		r.eventsTimed += a.events - b.events
		r.attempted += pt.planned
		r.failed += pt.planned - pt.ops
		r.check(pt.failed == 0, "%d failures in set-up, warm-up or teardown (path %q)", pt.failed, prefixes[i])
		pt.endToEnd(r.st, prefixes[i])
		series = append(series, pt.lat)
	}
	qp.layers(r.st)
	r.st.set("sim.events", float64(r.eventsTimed))
	r.st.set("tcp.retransmits", retrans)
	r.digest = r.st.digest(series...)
	r.placement["fabric.util"] = qp.fabricUtil()
}

// perLayerNames lists the per-layer metrics and their units, in report
// order. A metric of a layer a workload bypasses reads 0.
var perLayerNames = func() []struct{ name, unit string } {
	type m = struct{ name, unit string }
	out := []m{
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"sim.host_share", "share"}, {"sim.proc_host_share", "share"},
		{"par.host_share", "share"}, {"par.lookahead_ns", "ns"}, {"par.shard_event_imbalance", "ratio"},
		{"fabric.host_share", "share"}, {"fabric.frames_per_op", "count"}, {"fabric.util", "share"}, {"fabric.drops", "count"},
		{"hw.host_share", "share"}, {"hw.pci_util", "share"}, {"hw.pci_bytes_per_op", "B"}, {"hw.doorbell_drops", "count"}, {"hw.irq_wakes_per_op", "count"},
		{"qpipnic.host_share", "share"}, {"qpipnic.cpu_util", "share"}, {"qpipnic.fw_us_per_op", "us"},
		{"qpipnic.tx_data_us", "us"}, {"qpipnic.rx_data_us", "us"}, {"qpipnic.tx_ack_us", "us"}, {"qpipnic.rx_ack_us", "us"},
		{"qpipnic.coll_us_per_op", "us"}, {"qpipnic.retransmits", "count"}, {"qpipnic.rnr_stalls", "count"},
		{"qpipnic.sram_bytes_per_conn", "B"}, {"qpipnic.qpn_recycled", "count"}, {"qpipnic.live_qps_end", "count"},
		{"verbs.host_share", "share"}, {"verbs.post_us_per_wr", "us"}, {"verbs.poll_us_per_cqe", "us"}, {"verbs.cqes_per_poll", "count"},
		{"verbs.wait_p50_us", "us"}, {"verbs.wait_p99_us", "us"},
		{"tcp.host_share", "share"}, {"tcp.acks_per_data_seg", "ratio"}, {"tcp.retransmits", "count"},
		{"inet.host_share", "share"},
		{"hostos.host_share", "share"}, {"hostos.cpu_us_per_op", "us"}, {"hostos.syscalls_per_op", "count"}, {"hostos.softirqs_per_op", "count"},
		{"hostos.copied_bytes_per_byte", "ratio"}, {"hostos.checksum_errors", "count"},
		{"buf.host_share", "share"},
		{"storage.host_share", "share"}, {"nbd.host_share", "share"}, {"storage.disk_util", "share"}, {"storage.seeks", "count"}, {"storage.cache_hit_ratio", "ratio"},
		{"trace.host_share", "share"},
		{"runtime.host_share", "share"}, {"runtime.gc_host_share", "share"}, {"runtime.sched_host_share", "share"}, {"runtime.other_host_share", "share"},
		{"runtime.allocs_per_event", "count"}, {"runtime.alloc_bytes_per_event", "B"}, {"runtime.gc_cycles", "count"},
		{"driver.host_share", "share"}, {"driver.trace_overhead", "ratio"}, {"driver.setup_cluster_s", "s"}, {"driver.setup_connect_s", "s"},
		{"ref.goodput_mbps", "MB/s"}, {"ref.lat_p99_us", "us"}, {"ref.host_cpu_us_per_op", "us"},
		{"stream.window_occupancy", "share"},
	}
	for _, s := range spanSegments {
		out = append(out, m{"span." + s + "_p50_us", "us"}, m{"span." + s + "_p99_us", "us"})
	}
	return out
}()

// spanSegments lists every span segment, as "family.segment".
var spanSegments = []string{
	"rpc.client_post", "rpc.request_flight", "rpc.server_turn", "rpc.reply_flight",
	"stream.post", "stream.send_cqe",
	"nbd.write_call", "nbd.read_call",
	"coll.post", "coll.complete",
	"coll_ref.post", "coll_ref.complete",
}

// layerMetrics computes every per-layer metric from the untraced runs
// (host-time ratios), the traced runs (spans, profile) and the simulated
// statistics, and checks the traced run's accounting identities.
func layerMetrics(reps, tr []*rep, prof *profileShares, wall float64, problems *[]string) map[string]float64 {
	base := tr[0]
	out := map[string]float64{}
	for _, k := range base.st.keys {
		out[k] = base.st.vals[k]
	}
	for k, v := range base.placement {
		out[k] = v
	}
	out["ref.goodput_mbps"] = base.st.get("ref_goodput_mbps")
	out["ref.lat_p99_us"] = base.st.get("ref_lat_p99_us")
	out["ref.host_cpu_us_per_op"] = base.st.get("ref_host_cpu_us_per_op")

	events := medianOf(reps, func(r *rep) float64 { return float64(r.eventsTimed) })
	out["sim.ns_per_event"] = ratio(wall*1e9, events)
	out["runtime.allocs_per_event"] = medianOf(reps, func(r *rep) float64 { return ratio(float64(r.mallocs), float64(r.eventsTimed)) })
	out["runtime.alloc_bytes_per_event"] = medianOf(reps, func(r *rep) float64 { return ratio(float64(r.allocBytes), float64(r.eventsTimed)) })
	out["runtime.gc_cycles"] = medianOf(reps, func(r *rep) float64 { return float64(r.gcCycles) })
	out["driver.trace_overhead"] = ratio(medianOf(tr, func(r *rep) float64 { return r.wall.Seconds() }), wall)
	out["driver.setup_cluster_s"] = medianOf(reps, func(r *rep) float64 { return r.setupCluster.Seconds() })
	out["driver.setup_connect_s"] = medianOf(reps, func(r *rep) float64 { return r.setupConnect.Seconds() })

	total := 0.0
	for _, b := range partition {
		s := prof.share(b)
		total += s
		out[bucketMetric(b)] = s
	}
	out["sim.proc_host_share"] = ratio(float64(prof.procPark), float64(prof.samples))
	out["runtime.host_share"] = ratio(float64(prof.runtimeLeaf), float64(prof.samples))
	if prof.samples == 0 || math.Abs(total-1) > 1e-9 {
		*problems = append(*problems, fmt.Sprintf("host shares sum to %v over %d samples, want 1", total, prof.samples))
	}

	for _, r := range tr {
		if bad := r.spans.tiles(); bad > 0 {
			*problems = append(*problems, fmt.Sprintf("%d ops whose span segments do not tile their latency", bad))
		}
	}
	durs := base.spans.segmentDurations()
	for _, s := range spanSegments {
		d := durs[s]
		out["span."+s+"_p50_us"] = quantile(d, 0.5)
		out["span."+s+"_p99_us"] = quantile(d, tailQ(len(d)))
	}
	res := map[string]float64{}
	for _, m := range perLayerNames {
		res[m.name] = out[m.name]
	}
	return res
}

// bucketMetric names a partition bucket's share metric.
func bucketMetric(b string) string {
	switch b {
	case "runtime.gc":
		return "runtime.gc_host_share"
	case "runtime.sched":
		return "runtime.sched_host_share"
	case "runtime.other":
		return "runtime.other_host_share"
	}
	return b + ".host_share"
}
