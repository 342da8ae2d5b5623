package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// ---- seeded input generation ----

// rng is a splitmix64 generator. Every input of every workload is drawn
// from one, keyed by the seed and a per-purpose salt, so a seed fully
// determines the inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64, salt string) *rng {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a uniform integer in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// exp returns an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }

// logUniform returns a log-uniform integer in [lo, hi].
func (r *rng) logUniform(lo, hi int) int {
	return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), r.float())))
}

// stratifiedLogUniform draws n log-uniform sizes in [lo, hi], one per
// equal-probability stratum with seeded jitter inside it, in seeded
// order. The size distribution is nearly the same for every seed, so the
// latency percentiles compare across seeds, while every seed still sees
// different sizes in a different order.
func stratifiedLogUniform(r *rng, n, lo, hi, align int) []int {
	out := make([]int, n)
	ratio := float64(hi) / float64(lo)
	for i := range out {
		u := (float64(i) + r.float()) / float64(n)
		v := int(math.Round(float64(lo) * math.Pow(ratio, u)))
		if align > 1 {
			v = (v + align/2) / align * align
		}
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		out[i] = v
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// ---- per-op latency and verbs-call accounting ----

// verbsRec accumulates what the benchmark measures around its own verbs
// calls, in simulated time. Each process owns one, so sharded runs never
// share a recorder across shard goroutines; recorders merge after the run
// in a fixed order.
type verbsRec struct {
	postNS, postWRs            int64
	pollNS, pollCalls, pollCQE int64
	waits                      []int64
}

func (v *verbsRec) add(o *verbsRec) {
	v.postNS += o.postNS
	v.postWRs += o.postWRs
	v.pollNS += o.pollNS
	v.pollCalls += o.pollCalls
	v.pollCQE += o.pollCQE
	v.waits = append(v.waits, o.waits...)
}

// postSendN posts wrs and accounts the call's simulated duration.
func (v *verbsRec) postSendN(p *sim.Proc, qp *verbs.QP, wrs []verbs.SendWR) (int, error) {
	t := p.Now()
	k, err := qp.PostSendN(p, wrs)
	v.postNS += int64(p.Now() - t)
	v.postWRs += int64(k)
	return k, err
}

func (v *verbsRec) postSend(p *sim.Proc, qp *verbs.QP, wr verbs.SendWR) error {
	t := p.Now()
	err := qp.PostSend(p, wr)
	v.postNS += int64(p.Now() - t)
	if err == nil {
		v.postWRs++
	}
	return err
}

func (v *verbsRec) pollN(p *sim.Proc, cq *verbs.CQ, out []verbs.Completion) int {
	t := p.Now()
	n := cq.PollN(p, out)
	v.pollNS += int64(p.Now() - t)
	v.pollCalls++
	v.pollCQE += int64(n)
	return n
}

func (v *verbsRec) wait(p *sim.Proc, cq *verbs.CQ) verbs.Completion {
	t := p.Now()
	c := cq.Wait(p)
	v.waits = append(v.waits, int64(p.Now()-t))
	return c
}

// ---- the start gate ----

// gate parks set-up processes until the timed phase starts. Set-up runs
// the simulation to quiescence with every process parked here; release
// then wakes them all at one simulated instant on their own engines.
type gate struct {
	mu      sync.Mutex
	waiting []gated
}

type gated struct {
	eng *sim.Engine
	p   *sim.Proc
}

func (g *gate) wait(p *sim.Proc) {
	g.mu.Lock()
	g.waiting = append(g.waiting, gated{p.Engine(), p})
	g.mu.Unlock()
	p.Suspend()
}

// gateTime is the release instant: the next whole millisecond after the
// cluster's last set-up event, plus one. Sharded engines may sit a
// lookahead past their last event after a run; this instant is past that
// on every engine and identical for every shard count.
func gateTime(cs ...*core.Cluster) sim.Time {
	var end sim.Time
	for _, c := range cs {
		if t := c.EndTime(); t > end {
			end = t
		}
	}
	return (end/sim.Millisecond + 2) * sim.Millisecond
}

// release schedules the wake of every parked process of c at t, one event
// per process (so the event count does not depend on the shard count).
// Within an engine, processes wake in the order they parked, which is
// deterministic because one engine's processes run one at a time.
func (g *gate) release(c *core.Cluster, t sim.Time) {
	for _, e := range c.Engines {
		for _, w := range g.waiting {
			if w.eng == e {
				e.At(t, "perfbench.gate", w.p.Wake)
			}
		}
	}
}

// ---- simulated statistics ----

// simStats is an ordered set of named simulated statistics. Every value
// is exact for a seed; the digest covers all of them.
type simStats struct {
	keys []string
	vals map[string]float64
}

func newSimStats() *simStats { return &simStats{vals: map[string]float64{}} }

func (s *simStats) set(k string, v float64) {
	if _, ok := s.vals[k]; !ok {
		s.keys = append(s.keys, k)
	}
	s.vals[k] = v
}

func (s *simStats) get(k string) float64 { return s.vals[k] }

// digest hashes every statistic (name and exact value) plus the given
// latency series.
func (s *simStats) digest(series ...[]int64) string {
	h := sha256.New()
	for _, k := range s.keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(s.vals[k], 'g', -1, 64))
	}
	var b [8]byte
	for _, xs := range series {
		binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
		h.Write(b[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// ---- percentiles ----

// quantile returns the q-quantile of xs (ns) in microseconds, linearly
// interpolated between order statistics. xs is sorted in place.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return float64(xs[len(xs)-1]) / 1e3
	}
	f := pos - float64(i)
	return (float64(xs[i])*(1-f) + float64(xs[i+1])*f) / 1e3
}

// tailQ is the tail percentile reported as "p99": 0.99, or the highest
// percentile that leaves at least ten samples beyond it.
func tailQ(n int) float64 {
	if n <= 0 {
		return 0.99
	}
	if q := 1 - 10/float64(n); q < 0.99 {
		if q < 0.5 {
			return 0.5
		}
		return q
	}
	return 0.99
}

func cloneI64(xs []int64) []int64 { return append([]int64(nil), xs...) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
