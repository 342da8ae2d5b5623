package main

import "testing"

// The tests run every workload at a small scale.
const testScale = 0.05

func runOnce(t *testing.T, name string, seed uint64, traced bool) *rep {
	t.Helper()
	r := workloads[name](seed, testScale).run(traced)
	if r.failed != 0 || len(r.checks) != 0 || r.attempted == 0 {
		t.Fatalf("%s seed %d: attempted %d failed %d checks %v", name, seed, r.attempted, r.failed, r.checks)
	}
	return r
}

func TestDigestRepeatsForASeed(t *testing.T) {
	for name := range workloads {
		a, b := runOnce(t, name, 7, false), runOnce(t, name, 7, true)
		if a.digest != b.digest {
			t.Errorf("%s: digest differs between an untraced and a traced run of one seed", name)
		}
	}
}

func TestDigestDependsOnSeed(t *testing.T) {
	for name := range workloads {
		if runOnce(t, name, 1, false).digest == runOnce(t, name, 2, false).digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest", name)
		}
	}
}

// The simulated counters cover the timed phase only, not set-up and
// warm-up.
func TestCountersCoverTheTimedPhase(t *testing.T) {
	for name := range workloads {
		r := runOnce(t, name, 4, false)
		if u := r.st.get("hw.pci_util"); u <= 0 || u > 1 {
			t.Errorf("%s: hw.pci_util %v outside (0, 1]", name, u)
		}
		if ev := r.st.get("sim.events"); ev != float64(r.eventsTimed) {
			t.Errorf("%s: sim.events %v, timed phase fired %d", name, ev, r.eventsTimed)
		}
	}
	// At test scale the fill at the start and the drain at the end weigh
	// more; at scale 1 the occupancy is above 0.99.
	if occ := runOnce(t, "stream", 4, false).st.get("stream.window_occupancy"); occ < 0.8 || occ > 1 {
		t.Errorf("stream: window occupancy %v, want the window nearly always full", occ)
	}
}

func TestMeshShardedMatchesSequential(t *testing.T) {
	ops := meshSchedule(3, testScale)
	seq, sharded := runMesh(ops, 1, false), runMesh(ops, meshShards, false)
	if seq.digest != sharded.digest {
		for _, k := range seq.st.keys {
			if seq.st.get(k) != sharded.st.get(k) {
				t.Logf("%s: sequential %v, %d shards %v", k, seq.st.get(k), meshShards, sharded.st.get(k))
			}
		}
		t.Fatalf("mesh-shard digest differs between sequential and %d-shard runs", meshShards)
	}
	if _, ok := sharded.placement["par.lookahead_ns"]; !ok {
		t.Fatalf("sharded run reports no lookahead: %v", sharded.placement)
	}
}

func TestSpansTileEveryOp(t *testing.T) {
	for name := range workloads {
		r := runOnce(t, name, 5, true)
		if len(r.spans.ops) == 0 {
			t.Errorf("%s: traced run recorded no spans", name)
		}
		if bad := r.spans.tiles(); bad != 0 {
			t.Errorf("%s: %d ops whose segments do not tile their latency", name, bad)
		}
	}
}

func TestProfileSharesSumToOne(t *testing.T) {
	prof, err := decodeProfile(runOnce(t, "rpc", 1, true).profile)
	if err != nil {
		t.Fatal(err)
	}
	if prof.samples == 0 {
		t.Skip("no CPU samples")
	}
	var sum int64
	for _, b := range partition {
		sum += prof.bucket[b]
	}
	if sum != prof.samples {
		t.Fatalf("buckets hold %d of %d samples", sum, prof.samples)
	}
	if prof.bucket["sim"] == 0 {
		t.Errorf("no samples attributed to sim: %v", prof.bucket)
	}
}

func TestAttribution(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/buf.Concat", "repro/internal/hostos.(*Socket).Recv"}, "buf"},
		{[]string{"runtime.futex", "runtime.chansend", "repro/internal/sim.(*Proc).park", "main.runRPC.func2"}, "sim"},
		{[]string{"repro/internal/sim/par.RunUntil.func1", "repro/internal/sim.(*Engine).Run"}, "par"},
		{[]string{"repro/internal/udp.(*PortSpace[go.shape.int]).Lookup"}, "inet"},
		{[]string{"main.runMesh"}, "driver"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{[]string{"runtime._ExternalCode"}, "runtime.other"},
	}
	for _, c := range cases {
		s := &profileShares{bucket: map[string]int64{}}
		s.attribute(c.stack, 1)
		if s.bucket[c.want] != 1 {
			t.Errorf("%v: buckets %v, want %s", c.stack, s.bucket, c.want)
		}
	}
}
