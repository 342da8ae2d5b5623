package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// Spans are recorded by the benchmark around its own calls into the
// layers, in simulated time, and only in the traced run. Each op is one
// root span; its segments are child spans that tile it: the first starts
// when the op starts, each ends where the next starts, and the last ends
// when the op ends.

type segment struct {
	name       string
	start, end sim.Time
}

type opSpan struct {
	family string // span family: rpc, stream, nbd, coll, coll_ref
	pid    int32  // Chrome trace process: the job's path
	tid    int32  // Chrome trace thread: connection, rank or file
	segs   []segment
}

func (o *opSpan) start() sim.Time { return o.segs[0].start }
func (o *opSpan) end() sim.Time   { return o.segs[len(o.segs)-1].end }

// spanLog keeps a process's spans in memory. Each process owns one, so
// sharded runs never share a log across shard goroutines.
type spanLog struct {
	on  bool
	ops []opSpan
}

// add records one op from consecutive boundary instants: segment i runs
// from ts[i] to ts[i+1].
func (l *spanLog) add(family string, pid, tid int32, names []string, ts ...sim.Time) {
	if !l.on {
		return
	}
	o := opSpan{family: family, pid: pid, tid: tid, segs: make([]segment, len(names))}
	for i, n := range names {
		o.segs[i] = segment{n, ts[i], ts[i+1]}
	}
	l.ops = append(l.ops, o)
}

func (l *spanLog) merge(o *spanLog) { l.ops = append(l.ops, o.ops...) }

// tiles checks the accounting identity for every op: its segments are
// contiguous and their durations sum to its end-to-end latency exactly.
// It returns the number of ops that violate it.
func (l *spanLog) tiles() int {
	bad := 0
	for i := range l.ops {
		o := &l.ops[i]
		var sum sim.Time
		ok := true
		for j, s := range o.segs {
			if s.end < s.start || (j > 0 && s.start != o.segs[j-1].end) {
				ok = false
			}
			sum += s.end - s.start
		}
		if !ok || sum != o.end()-o.start() {
			bad++
		}
	}
	return bad
}

// segmentDurations groups segment durations (ns) by "family.segment".
func (l *spanLog) segmentDurations() map[string][]int64 {
	out := map[string][]int64{}
	for i := range l.ops {
		o := &l.ops[i]
		for _, s := range o.segs {
			k := o.family + "." + s.name
			out[k] = append(out[k], int64(s.end-s.start))
		}
	}
	return out
}

// writeChrome writes the spans as Chrome Trace Event JSON (complete "X"
// events, timestamps in simulated microseconds). Spans of one op share
// args.op; a segment's args.parent is its op's root span id.
func (l *spanLog) writeChrome(file string, meta map[string]string) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"displayTimeUnit":"ns","otherData":{`)
	first := true
	for _, k := range sortedKeys(meta) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "%q:%q", k, meta[k])
	}
	w.WriteString(`},"traceEvents":[`)
	us := func(t sim.Time) string { return strconv.FormatFloat(float64(t)/1e3, 'f', 3, 64) }
	span := 0
	for i := range l.ops {
		o := &l.ops[i]
		root := span
		span++
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":\"op\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"op\":%d,\"span\":%d}}",
			o.family, us(o.start()), us(o.end()-o.start()), o.pid, o.tid, i, root)
		for _, s := range o.segs {
			fmt.Fprintf(w, ",\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"op\":%d,\"span\":%d,\"parent\":%d}}",
				o.family+"."+s.name, o.family, us(s.start), us(s.end-s.start), o.pid, o.tid, i, span, root)
			span++
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
