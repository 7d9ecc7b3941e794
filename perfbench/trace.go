package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"mpsocsim/internal/sim"
)

// layers are the simulator packages whose components the traced run
// reports, in reporting order. Components of any other package are timed
// too, so the kernel residual stays honest, but not reported.
var layers = []string{"stbus", "ahb", "axi", "bridge", "lmi", "mem", "iptg", "dspcore", "io", "platform"}

// sampleMask selects one clock edge in 16 (pseudo-randomly) whose
// component evaluations are timed.
const sampleMask = 15

// clockEpoch anchors now: time.Since on a monotonic Time reads one clock.
var clockEpoch = time.Now()

func now() int64 { return int64(time.Since(clockEpoch)) }

// maxIntervalTicks drops a sampled interval longer than any component
// evaluation takes: such an interval holds a preemption or a collection,
// which extrapolation would multiply into the layer's time.
const maxIntervalTicks = 100_000

// tally sums sampled intervals, in counter ticks.
type tally struct{ n, ticks int64 }

// add counts one interval unless it is an outlier.
func (s *tally) add(d int64) {
	if d <= maxIntervalTicks {
		s.n++
		s.ticks += d
	}
}

func (s tally) mean() float64 { return float64(s.ticks) / float64(s.n) }

// layerAcc accumulates one layer's traced work. Eval and Update intervals are
// kept apart so that dropping one leaves the other's sample intact.
type layerAcc struct {
	evals        int64
	eval, update tally
}

// tracer owns the per-layer accumulators of a traced run and the pseudo-random
// edge-sampling state (the serial kernel runs on one goroutine).
type tracer struct {
	acc map[string]*layerAcc // by package name
	rng uint64
	// null accumulates a probe around a component that does nothing (see
	// wrap): its intervals are what charging costs with no work inside.
	null layerAcc
	// startTicks/startNs pair a counter read with a clock read when the
	// tracer is made; a second pair at fold time converts ticks to ns.
	startTicks, startNs int64
}

func newTracer() *tracer {
	return &tracer{acc: map[string]*layerAcc{}, rng: 0x9e3779b97f4a7c15, startTicks: ticks(), startNs: now()}
}

// sample draws whether the next edge is timed (xorshift64).
func (t *tracer) sample() bool {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng&sampleMask == 0
}

// edgeTimer is the timing chain of one clock domain. On a sampled edge every
// component's Eval and Update is charged the ticks since the previous
// counter read of the chain, so the charged intervals tile the edge's
// evaluation phase.
type edgeTimer struct {
	t       *tracer
	sampled bool
	last    int64
}

// edgeStart is registered first on its clock: its Eval decides whether the
// edge is sampled and opens the Eval chain; its Update opens the Update
// chain. It holds no simulation state.
type edgeStart struct{ e *edgeTimer }

func (m edgeStart) Eval() {
	e := m.e
	if e.sampled = e.t.sample(); e.sampled {
		e.last = ticks()
	}
}

func (m edgeStart) Update() {
	if m.e.sampled {
		m.e.last = ticks()
	}
}

// mark closes a sampled interval into s and opens the next one.
func (e *edgeTimer) mark(s *tally) {
	t := ticks()
	s.add(t - e.last)
	e.last = t
}

// probe wraps one registered component: it counts every Eval and, on sampled
// edges, charges the component's Eval and Update to its layer.
type probe struct {
	inner sim.Clocked
	acc   *layerAcc
	e     *edgeTimer
}

func (w *probe) Eval() {
	w.acc.evals++
	w.inner.Eval()
	if w.e.sampled {
		w.e.mark(&w.acc.eval)
	}
}

func (w *probe) Update() {
	w.inner.Update()
	if w.e.sampled {
		w.e.mark(&w.acc.update)
	}
}

// layerOf names the simulator package a component belongs to. A
// *sim.ClockedFunc belongs to the package of its OnEval (or OnUpdate)
// function, so the two sides of a bridge map to "bridge".
func layerOf(c sim.Clocked) string {
	var pkg string
	if cf, ok := c.(*sim.ClockedFunc); ok {
		fn := any(cf.OnEval)
		if cf.OnEval == nil {
			fn = cf.OnUpdate
		}
		name := runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
		// "mpsocsim/internal/bridge.(*Bridge).evalTarget-fm" -> "mpsocsim/internal/bridge"
		slash := strings.LastIndex(name, "/")
		dot := strings.Index(name[slash+1:], ".")
		pkg = name
		if dot >= 0 {
			pkg = name[:slash+1+dot]
		}
	} else {
		t := reflect.TypeOf(c)
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		pkg = t.PkgPath()
	}
	return pkg[strings.LastIndex(pkg, "/")+1:]
}

// nop is a component that does nothing.
type nop struct{}

func (nop) Eval()   {}
func (nop) Update() {}

// wrap re-registers every component of every clock of k behind a probe, in
// the original registration order, so the simulation is unchanged. Each clock
// first gets an edgeStart marker and a probed nop, which hold no simulation
// state: the nop's intervals measure, in place, what the counter read and
// the probe's own dispatch add to every charged interval.
func (t *tracer) wrap(k *sim.Kernel) {
	for _, clk := range k.Clocks() {
		comps := clk.TakeComponents()
		e := &edgeTimer{t: t}
		clk.Register(edgeStart{e})
		clk.Register(&probe{inner: nop{}, acc: &t.null, e: e})
		for _, c := range comps {
			l := layerOf(c)
			if t.acc[l] == nil {
				t.acc[l] = &layerAcc{}
			}
			clk.Register(&probe{inner: c, acc: t.acc[l], e: e})
		}
	}
}

// selfTicks estimates a layer's host time in ticks: the mean sampled Eval
// and Update intervals less those of the null probe, scaled up to every eval.
func (a *layerAcc) selfTicks(null *layerAcc) float64 {
	if a.eval.n == 0 || a.update.n == 0 || null.eval.n == 0 || null.update.n == 0 {
		return 0
	}
	per := a.eval.mean() - null.eval.mean() + a.update.mean() - null.update.mean()
	return max(per, 0) * float64(a.evals)
}

// span is one timed call into a layer's public API. Spans of one op share
// the op's identifier; Parent is the index of the enclosing span, or -1.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. When off it only
// returns durations.
type spanLog struct {
	on     bool
	epoch  time.Time
	op     int
	parent int
	spans  []span
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, epoch: time.Now(), parent: -1} }

// beginOp opens the enclosing span of one op.
func (s *spanLog) beginOp(name string) time.Time {
	s.op++
	start := time.Now()
	if s.on {
		s.spans = append(s.spans, span{Name: name, Op: s.op, Parent: -1, StartNs: int64(start.Sub(s.epoch))})
		s.parent = len(s.spans) - 1
	}
	return start
}

// endOp closes the op span opened by beginOp and returns its duration.
func (s *spanLog) endOp(start time.Time) int64 {
	end := time.Now()
	if s.on && s.parent >= 0 {
		s.spans[s.parent].EndNs = int64(end.Sub(s.epoch))
		s.parent = -1
	}
	return int64(end.Sub(start))
}

// rec records a span from start to now under the open op and returns its
// duration in nanoseconds.
func (s *spanLog) rec(name string, start time.Time) int64 {
	end := time.Now()
	if s.on {
		s.spans = append(s.spans, span{Name: name, Op: s.op, Parent: s.parent,
			StartNs: int64(start.Sub(s.epoch)), EndNs: int64(end.Sub(s.epoch))})
	}
	return int64(end.Sub(start))
}

// write stores the spans and the host record as one JSON document.
func (s *spanLog) write(path string, host hostRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Host  hostRecord `json:"host"`
		Spans []span     `json:"spans"`
	}{host, s.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceTotals sums a traced run's layer estimates across ops.
type traceTotals struct {
	evals   map[string]int64
	selfNs  map[string]float64
	edges   int64
	wrapped float64 // summed self time of every package, reported or not
	nullNs  float64 // summed per-op null-probe Eval+Update interval
}

// add folds one traced op: it subtracts that op's own null-probe intervals
// and converts ticks to nanoseconds at the rate the counter ran during the
// op.
func (tt *traceTotals) add(t *tracer, edges int64) {
	if tt.evals == nil {
		tt.evals, tt.selfNs = map[string]int64{}, map[string]float64{}
	}
	nsPerTick := float64(now()-t.startNs) / float64(ticks()-t.startTicks)
	tt.edges += edges
	tt.nullNs += (t.null.eval.mean() + t.null.update.mean()) * nsPerTick
	for l, a := range t.acc {
		ns := a.selfTicks(&t.null) * nsPerTick
		tt.evals[l] += a.evals
		tt.selfNs[l] += ns
		tt.wrapped += ns
	}
}

// unreported lists the timed packages outside layers.
func (t *tracer) unreported() []string {
	var out []string
	for l := range t.acc {
		if !slices.Contains(layers, l) {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

func edgesOf(k *sim.Kernel) int64 {
	var n int64
	for _, clk := range k.Clocks() {
		n += clk.Cycles()
	}
	return n
}
