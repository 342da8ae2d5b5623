package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profile that runtime/pprof writes (a gzipped
// protobuf, see github.com/google/pprof/proto/profile.proto) with the
// standard library only, and attributes every sample to one bucket.

// Buckets partition the samples: every sample lands in exactly one, so
// the buckets' shares sum to 1.
var partition = []string{
	"sim", "par", "fabric", "hw", "qpipnic", "verbs", "tcp", "inet", "hostos",
	"buf", "storage", "nbd", "trace", "driver",
	"runtime.gc", "runtime.sched", "runtime.other",
}

// layerOf maps a repository package to its layer bucket.
var layerOf = map[string]string{
	"repro/internal/sim":     "sim",
	"repro/internal/sim/par": "par",
	"repro/internal/fabric":  "fabric",
	"repro/internal/topo":    "fabric",
	"repro/internal/hw":      "hw",
	"repro/internal/qpipnic": "qpipnic",
	"repro/internal/verbs":   "verbs",
	"repro/internal/tcp":     "tcp",
	"repro/internal/inet":    "inet",
	"repro/internal/udp":     "inet",
	"repro/internal/hostos":  "hostos",
	"repro/internal/gige":    "hostos",
	"repro/internal/gm":      "hostos",
	"repro/internal/buf":     "buf",
	"repro/internal/wire":    "buf",
	"repro/internal/pool":    "buf",
	"repro/internal/storage": "storage",
	"repro/internal/nbd":     "nbd",
	"repro/internal/trace":   "trace",
}

// profileShares is the attribution of one CPU profile.
type profileShares struct {
	samples int64
	bucket  map[string]int64
	// procPark counts sim samples under sim.Proc park/Wake (the
	// goroutine handoff); runtimeLeaf counts samples whose leaf frame is
	// a runtime function, wherever they are charged.
	procPark, runtimeLeaf int64
}

func (s *profileShares) share(b string) float64 {
	return ratio(float64(s.bucket[b]), float64(s.samples))
}

// add merges the counts of o into s.
func (s *profileShares) add(o *profileShares) {
	s.samples += o.samples
	s.procPark += o.procPark
	s.runtimeLeaf += o.runtimeLeaf
	for b, n := range o.bucket {
		s.bucket[b] += n
	}
}

// funcPkg returns the package path of a Go symbol name.
func funcPkg(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// bucketOf returns the bucket of a frame, or "" for a frame outside the
// repository.
func bucketOf(fn string) string {
	pkg := funcPkg(fn)
	if b, ok := layerOf[pkg]; ok {
		return b
	}
	switch {
	case pkg == "main", strings.HasPrefix(pkg, "repro/perfbench"):
		return "driver"
	case strings.HasPrefix(pkg, "repro/"):
		// core (cluster assembly), params, fault: the set-up machinery
		// the driver calls.
		return "driver"
	}
	return ""
}

func isRuntime(fn string) bool {
	pkg := funcPkg(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

var procFrames = []string{"repro/internal/sim.(*Proc).park", "repro/internal/sim.(*Proc).Wake"}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.markroot",
	"runtime.sweepone", "runtime._GC", "runtime.gcAssistAlloc",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
	"runtime.mstart", "runtime.sysmon", "runtime.stopm", "runtime.startm", "runtime.wakep",
	"runtime.goschedImpl", "runtime.gopreempt_m", "runtime.exitsyscall", "runtime.goexit0",
	"runtime.futex", "runtime.notesleep", "runtime.notewakeup",
}

func hasFrame(stack []string, names []string) bool {
	for _, f := range stack {
		for _, n := range names {
			if f == n || strings.HasPrefix(f, n+".") {
				return true
			}
		}
	}
	return false
}

// attribute charges one sample (frames leaf first) to the innermost
// repository frame's layer; runtime frames beneath it (memmove under
// buf.Concat, futex under sim.Proc.park) go with it. A sample with no
// repository frame goes to a named runtime bucket.
func (s *profileShares) attribute(stack []string, n int64) {
	s.samples += n
	if len(stack) > 0 && isRuntime(stack[0]) {
		s.runtimeLeaf += n
	}
	for _, f := range stack {
		if b := bucketOf(f); b != "" {
			s.bucket[b] += n
			if b == "sim" && hasFrame(stack, procFrames) {
				s.procPark += n
			}
			return
		}
	}
	switch {
	case hasFrame(stack, gcFrames):
		s.bucket["runtime.gc"] += n
	case hasFrame(stack, schedFrames):
		s.bucket["runtime.sched"] += n
	default:
		s.bucket["runtime.other"] += n
	}
}

// ---- protobuf decoding ----

type pbuf struct{ b []byte }

var errTrunc = errors.New("profile: truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTrunc
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: bad varint")
}

// field reads one field: its number, wire type, varint value (types 0, 1,
// 5) or bytes (type 2).
func (p *pbuf) field() (num int, wt int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTrunc
		}
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(p.b[i])
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTrunc
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTrunc
		}
		v = uint64(p.b[0]) | uint64(p.b[1])<<8 | uint64(p.b[2])<<16 | uint64(p.b[3])<<24
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", wt)
	}
	return num, wt, v, data, err
}

// ints decodes a repeated integer field, packed (wire type 2) or not.
func ints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt != 2 {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile attributes every sample of a gzipped pprof CPU profile.
func decodeProfile(gz []byte) (*profileShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s sample
			q := pbuf{data}
			for len(q.b) > 0 {
				n, wt, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = ints(s.locs, wt, v, d)
				case 2:
					s.vals, err = ints(s.vals, wt, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					r := pbuf{d}
					for len(r.b) > 0 {
						ln, _, lv, _, err := r.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := &profileShares{bucket: map[string]int64{}}
	var stack []string
	for _, s := range samples {
		if len(s.vals) == 0 || s.vals[0] == 0 {
			continue
		}
		stack = stack[:0]
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		out.attribute(stack, int64(s.vals[0]))
	}
	return out, nil
}
