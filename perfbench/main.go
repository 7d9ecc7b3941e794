// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads (one client, ops back to back) for a fixed wall-clock
// time and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload ref_lmi --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untimed-instrument
// ops; with --trace 1 it re-registers every simulator component behind a
// counting, sampling timer and reports the per-layer split. README.md maps
// each per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets the workload up; setup_s is the
// median.
const setupRepeats = 7

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// count tallies one checked op.
func (r *result) count(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

func main() {
	name := flag.String("workload", "", "workload: ref_lmi, onchip_fabrics or io_observed")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured wall-clock seconds")
	trace := flag.Int("trace", 0, "1 reports the traced per-layer split instead of end-to-end metrics")
	flag.Parse()
	if _, err := newWorkload(*name); err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload ref_lmi|onchip_fabrics|io_observed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	host := probeHost()
	fmt.Fprintf(os.Stderr, "perfbench: host nproc=%d gomaxprocs=%d go=%s parallelism=%.2f\n",
		host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Parallelism)

	res := result{Metrics: map[string]metric{}}
	budget := time.Duration(*seconds * float64(time.Second))
	var err error
	if *trace == 0 {
		err = runEndToEnd(&res, *name, *seed, budget)
	} else {
		err = runTraced(&res, *name, *seed, budget, host)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runEndToEnd sets the workload up setupRepeats times, then runs timed ops
// back to back until the budget is spent.
func runEndToEnd(res *result, name string, seed uint64, budget time.Duration) error {
	var w workload
	setups := make([]float64, setupRepeats)
	for i := range setups {
		start := time.Now()
		w, _ = newWorkload(name)
		err := w.prepare(seed, false)
		setups[i] = time.Since(start).Seconds()
		res.count(err)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}

	sp := newSpanLog(false)
	var opsMs, rates []float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		runtime.GC()
		start := sp.beginOp(name)
		o := w.op(sp)
		opsMs = append(opsMs, float64(sp.endOp(start))/1e6)
		res.count(o.err)
		rates = append(rates, float64(o.cycles)/(float64(o.runNs)/1e9))
	}
	runtime.ReadMemStats(&after)

	n := float64(len(opsMs))
	res.put("sim_cycles_per_s", "cycles/s", median(rates))
	res.put("op_ms_p50", "ms", quantile(opsMs, 0.5))
	res.put("op_ms_p90", "ms", quantile(opsMs, 0.9))
	res.put("setup_s", "s", median(setups))
	res.put("alloc_mb_per_op", "MB", float64(after.TotalAlloc-before.TotalAlloc)/n/1e6)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: p50/p90 over %d timed ops, setups %v s\n",
		name, seed, len(opsMs), setups)
	return nil
}

// The layer self times are sampled estimates. The traced run is rejected
// unless they account for between minCovered and maxCovered of the untraced
// run phase; the rest is the kernel residual, which must therefore be
// non-negative within 5% of the run phase.
const minCovered, maxCovered = 0.5, 1.05

// runTraced runs paired rounds until the budget is spent. Each round runs
// the op's platforms untraced (the span split), then traced (the layer
// split, whose digest must equal the untraced one); onchip_fabrics also runs
// the Fig3 op itself, and io_observed a round of single-observer runs.
func runTraced(res *result, name string, seed uint64, budget time.Duration, host hostRecord) error {
	w, _ := newWorkload(name)
	err := w.prepare(seed, true)
	res.count(err)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	_, sweep := w.(*onchipFabrics)

	sp := newSpanLog(true)
	var (
		tt                      traceTotals
		untraced                opOut
		chip                    chipCounts
		traceRatios, overheadMs []float64
		obsRatios               = map[string][]float64{}
		rounds                  int
	)
	deadline := time.Now().Add(budget)
	for rounds == 0 || time.Now().Before(deadline) {
		rounds++
		var sweepNs int64
		if sweep {
			runtime.GC()
			start := sp.beginOp("op")
			o := w.op(sp)
			sweepNs = sp.endOp(start)
			res.count(o.err)
		}

		runtime.GC()
		start := sp.beginOp("instances")
		u := w.instances(sp, nil)
		sp.endOp(start)
		res.count(u.err)
		if sweep {
			overheadMs = append(overheadMs, float64(sweepNs-u.buildNs-u.runNs)/1e6)
		}
		untraced.runNs += u.runNs
		untraced.buildNs += u.buildNs
		untraced.reportNs += u.reportNs
		untraced.saveNs += u.saveNs
		untraced.restoreNs += u.restoreNs
		if rounds == 1 {
			chip = u.chip
		}

		t := newTracer()
		runtime.GC()
		start = sp.beginOp("traced")
		v := w.instances(sp, t)
		sp.endOp(start)
		res.count(v.err)
		tt.add(t, v.edges)
		traceRatios = append(traceRatios, float64(v.runNs)/float64(u.runNs))
		if others := t.unreported(); len(others) > 0 && rounds == 1 {
			fmt.Fprintf(os.Stderr, "perfbench: timed but unreported packages: %v\n", others)
		}

		ratios, err := w.observerRound()
		if ratios != nil || err != nil {
			res.count(err)
		}
		for k, r := range ratios {
			obsRatios[k] = append(obsRatios[k], r)
		}
	}

	per := func(ns int64) float64 { return float64(ns) / float64(rounds) / 1e6 }
	for _, l := range layers {
		evals := float64(tt.evals[l]) / float64(rounds)
		selfMs := tt.selfNs[l] / float64(rounds) / 1e6
		res.put(l+".self_ms", "ms", selfMs)
		res.put(l+".evals", "count", evals)
		nsPerEval := 0.0
		if evals > 0 {
			nsPerEval = selfMs * 1e6 / evals
		}
		res.put(l+".ns_per_eval", "ns", nsPerEval)
	}
	runMs := per(untraced.runNs)
	simMs := runMs - tt.wrapped/float64(rounds)/1e6
	res.put("sim.self_ms", "ms", simMs)
	res.put("sim.ns_per_edge", "ns", simMs*1e6/(float64(tt.edges)/float64(rounds)))
	res.put("platform.build_ms", "ms", per(untraced.buildNs))
	res.put("platform.run_ms", "ms", runMs)
	res.put("platform.report_ms", "ms", per(untraced.reportNs))
	res.put("snapshot.save_ms", "ms", per(untraced.saveNs))
	res.put("snapshot.restore_ms", "ms", per(untraced.restoreNs))
	res.put("experiments.overhead_ms", "ms", median(overheadMs))
	for _, o := range observers {
		// Workloads that attach no observer report no overhead for it.
		overhead := 0.0
		if rs := obsRatios[o]; len(rs) > 0 {
			overhead = median(rs) - 1
		}
		res.put(o+".overhead_frac", "fraction", overhead)
	}
	res.put("trace.overhead_frac", "fraction", median(traceRatios)-1)
	res.put("trace.residual_frac", "fraction", simMs/runMs)
	res.put("trace.timer_ns", "ns", tt.nullNs/float64(rounds))
	chip.metrics(res.put)
	if covered := (runMs - simMs) / runMs; covered < minCovered || covered > maxCovered {
		res.count(fmt.Errorf("traced accounting: layer self times cover %.1f%% of the %.3f ms run phase, outside [%.0f%%, %.0f%%]",
			100*covered, runMs, 100*minCovered, 100*maxCovered))
	}
	res.put("failed_ops_frac", "fraction", float64(res.Failed)/float64(res.Attempted))
	res.put("host.nproc", "count", float64(host.NumCPU))
	res.put("host.gomaxprocs", "count", float64(host.GOMAXPROCS))
	res.put("host.parallelism", "x", host.Parallelism)

	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d traced rounds, null-probe interval %.1f ns\n", name, seed, rounds, tt.nullNs/float64(rounds))
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := sp.write(path, host); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// hostRecord describes the machine a result was measured on.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Parallelism is two spinning goroutines' throughput over one's: 2 on
	// two idle cores, 1 when they share one.
	Parallelism float64 `json:"parallelism"`
}

var spinSink uint64

func spin() uint64 {
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

func probeHost() hostRecord {
	h := hostRecord{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	trials := make([]float64, 3)
	for i := range trials {
		start := time.Now()
		spinSink += spin()
		one := time.Since(start)
		start = time.Now()
		done := make(chan uint64)
		for g := 0; g < 2; g++ {
			go func() { done <- spin() }()
		}
		spinSink += <-done + <-done
		two := time.Since(start)
		trials[i] = 2 * float64(one) / float64(two)
	}
	h.Parallelism = median(trials)
	return h
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
