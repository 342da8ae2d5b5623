// Command perfbench is the repository benchmark: four seeded workloads
// (stream, rpc, nbd, mesh-shard) run on the simulator, each reporting
// host-time metrics of the simulator and simulated-time metrics of the
// QPIP design it runs. With -trace 1 it adds one traced run per
// invocation and reports per-layer metrics: CPU-profile shares by layer,
// counters read from the layers' public accessors, and spans the
// benchmark records around its own calls into the layers.
//
// Usage (from the repository root, via perfbench/run.sh):
//
//	perfbench --workload rpc --seed 3 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the full
// report (host fingerprint, workload sizes, simulated-statistics digest,
// every statistic); it is also written to .bench_out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// job is one workload with its inputs generated from a seed.
type job struct {
	sizes map[string]any
	run   func(traced bool) *rep
}

// workloads maps a name to its job constructor. The benchmark runs every
// job at scale 1; the tests shrink them.
var workloads = map[string]func(seed uint64, scale float64) job{
	"stream":     streamJob,
	"rpc":        rpcJob,
	"nbd":        nbdJob,
	"mesh-shard": meshJob,
}

// endToEnd lists the end-to-end metrics and their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"goodput_mbps", "MB/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"host_cpu_us_per_op", "us"},
}

func main() {
	name := flag.String("workload", "", "workload: stream | rpc | nbd | mesh-shard")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time budget in host seconds")
	traced := flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for reports and trace files")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := measure(*name, mk(*seed, 1), *seed, *seconds, *traced == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	full, _ := json.Marshal(res.report)
	fmt.Println(string(full))
	last, _ := json.Marshal(res.summary)
	fmt.Println(string(last))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	summary summary
	report  map[string]any
}

// repeat runs the job until budget host seconds have passed and at least
// min times.
func repeat(j job, budget float64, min int, traced bool) []*rep {
	var reps []*rep
	t0 := time.Now()
	for len(reps) < min || time.Since(t0).Seconds() < budget {
		reps = append(reps, j.run(traced))
	}
	return reps
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(reps []*rep, f func(*rep) float64) float64 { return median(hostSeries(reps, f)) }

func measure(name string, j job, seed uint64, seconds float64, traced bool, outDir string) (*result, error) {
	budget := seconds
	if traced {
		budget = seconds / 2
	}
	reps := repeat(j, budget, 3, false)
	var tr []*rep
	var prof *profileShares
	if traced {
		tr = repeat(j, seconds/2, 2, true)
		prof = &profileShares{bucket: map[string]int64{}}
		for _, r := range tr {
			p, err := decodeProfile(r.profile)
			if err != nil {
				return nil, err
			}
			prof.add(p)
		}
	}

	// Correctness: no failed op, no failed check, and one digest for every
	// run of the seed, traced or not.
	var problems []string
	attempted, failed := 0, 0
	for _, r := range append(append([]*rep(nil), reps...), tr...) {
		attempted += r.attempted
		failed += r.failed
		problems = append(problems, r.checks...)
		if r.digest != reps[0].digest {
			problems = append(problems, "simulated-statistics digest differs between runs of one seed")
		}
	}
	base := reps[0]
	wallRuns := hostSeries(reps, func(r *rep) float64 { return r.wall.Seconds() })
	setupRuns := hostSeries(reps, func(r *rep) float64 { return (r.setupCluster + r.setupConnect).Seconds() })
	heapRuns := hostSeries(reps, func(r *rep) float64 { return float64(r.heapLive) / 1e6 })
	e2e := map[string]float64{
		"wall_s":             median(wallRuns),
		"setup_s":            median(setupRuns),
		"heap_live_mb":       median(heapRuns),
		"goodput_mbps":       base.st.get("goodput_mbps"),
		"lat_p50_us":         base.st.get("lat_p50_us"),
		"lat_p99_us":         base.st.get("lat_p99_us"),
		"host_cpu_us_per_op": base.st.get("host_cpu_us_per_op"),
	}
	for k, v := range e2e {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, "non-finite metric "+k)
		}
	}
	sum := summary{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	var perLayer map[string]float64
	if traced {
		perLayer = layerMetrics(reps, tr, prof, e2e["wall_s"], &problems)
		for _, m := range perLayerNames {
			sum.Metrics[m.name] = metric{perLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			sum.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, map[bool]int{false: 0, true: 1}[traced]))
	if traced {
		meta := map[string]string{"workload": name, "seed": fmt.Sprint(seed), "digest": base.digest, "clock": "simulated"}
		if err := tr[0].spans.writeChrome(stem+".trace.json", meta); err != nil {
			problems = append(problems, "trace export: "+err.Error())
		}
	}
	sum.Correct = failed == 0 && len(problems) == 0

	report := map[string]any{
		"schema":            "perfbench/1",
		"workload":          name,
		"seed":              seed,
		"seconds":           seconds,
		"trace":             traced,
		"fingerprint":       fingerprint(),
		"sizes":             j.sizes,
		"digest":            base.digest,
		"runs":              len(reps),
		"traced_runs":       len(tr),
		"wall_s_runs":       wallRuns,
		"setup_s_runs":      setupRuns,
		"heap_live_mb_runs": heapRuns,
		"end_to_end":        e2e,
		"per_layer":         perLayer,
		"sim_stats":         base.st.vals,
		"placement":         base.placement,
		"problems":          problems,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err == nil {
		err = os.WriteFile(stem+".report.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing the report file: %v\n", err)
	}
	return &result{summary: sum, report: report}, nil
}

func hostSeries(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}
