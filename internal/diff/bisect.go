package diff

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"

	"mpsocsim/internal/platform"
	"mpsocsim/internal/runner"
	"mpsocsim/internal/telemetry"
)

// BisectOptions tunes the divergence search. The zero value is usable.
type BisectOptions struct {
	// BudgetPS caps each variant's simulated time (default 5e12 ps — the
	// experiments budget). A variant that exhausts it counts as ended.
	BudgetPS int64
	// GridEvery is the shared checkpoint grid spacing in central cycles,
	// rounded up to a power of two (default 2048). A power-of-two span
	// makes the binary-search step count exactly log2(span).
	GridEvery int64
	// Horizon stops the forward grid walk once both variants agree past
	// this central cycle (0 = walk until both runs end).
	Horizon int64
	// TopFifos bounds the FIFO rows in each context block (default 10).
	TopFifos int
	// Workers sizes the paired-advance pool (default 2 — one per variant).
	Workers int
	// Prepare, when set, is applied to every platform the search builds or
	// restores, with its variant (0 = A, 1 = B), before the platform runs:
	// for variants that differ in how the platform is assembled rather than
	// in its spec.
	Prepare func(variant int, p *platform.Platform)
}

// WindowDelta records an instrument that moved by different amounts across
// the final agreeing-to-diverged window [agree_cycle, diverged_at].
type WindowDelta struct {
	Name   string `json:"name"`
	DeltaA int64  `json:"delta_a"`
	DeltaB int64  `json:"delta_b"`
}

// FifoDelta is a queue whose occupancy differs at the divergence instant.
type FifoDelta struct {
	Name  string `json:"name"`
	LenA  int    `json:"len_a"`
	LenB  int    `json:"len_b"`
	Depth int    `json:"depth"`
}

// InitiatorDelta is a traffic source whose health differs at the
// divergence instant — in-flight depth, cumulative issue/completion, and
// the age of its oldest outstanding transaction.
type InitiatorDelta struct {
	Name         string `json:"name"`
	InFlightA    int    `json:"in_flight_a"`
	InFlightB    int    `json:"in_flight_b"`
	IssuedA      int64  `json:"issued_a"`
	IssuedB      int64  `json:"issued_b"`
	CompletedA   int64  `json:"completed_a"`
	CompletedB   int64  `json:"completed_b"`
	OldestAgeAPS int64  `json:"oldest_age_a_ps"`
	OldestAgeBPS int64  `json:"oldest_age_b_ps"`
}

// BisectResult is the outcome of a divergence bisection: the exact first
// central-clock cycle where the two variants' observable state differs,
// plus a forensics-style context block for that instant. The diverged_at
// section is the machine surface a batch API can consume directly.
type BisectResult struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	A      Side   `json:"a"`
	B      Side   `json:"b"`

	// DivergedAt is the first central-clock cycle at which the variants'
	// observable state (shared counters + gauges, registration order)
	// differs; -1 when they never diverged before both runs ended.
	DivergedAt int64 `json:"diverged_at"`
	// AgreeCycle is the last probed cycle at which the states still
	// matched (DivergedAt - 1 after a completed search).
	AgreeCycle int64 `json:"agree_cycle"`
	GridEvery  int64 `json:"grid_every"`
	GridPoints int   `json:"grid_points"`
	SpanLo     int64 `json:"span_lo"`
	SpanHi     int64 `json:"span_hi"`
	// Steps is the number of paired restore-and-advance probes the binary
	// search spent inside the grid span — exactly log2(span_hi - span_lo)
	// because the grid is power-of-two spaced.
	Steps int `json:"bisect_steps"`

	SharedCounters int `json:"shared_counters"`
	SharedGauges   int `json:"shared_gauges"`

	FirstCounters []ValueDelta  `json:"first_diverging_counters,omitempty"`
	FirstGauges   []ValueDelta  `json:"first_diverging_gauges,omitempty"`
	WindowMoved   []WindowDelta `json:"window_moved_differently,omitempty"`

	Fifos      []FifoDelta      `json:"fifo_deltas,omitempty"`
	Initiators []InitiatorDelta `json:"initiator_deltas,omitempty"`

	ContextA *telemetry.StallReport `json:"context_a,omitempty"`
	ContextB *telemetry.StallReport `json:"context_b,omitempty"`
}

// WriteJSON renders the bisect document deterministically.
func (r *BisectResult) WriteJSON(w io.Writer) error { return writeJSON(w, r) }

// digester compares two platforms' observable state over the instruments
// they share. Cross-fabric variants register different fabric counters, so
// equality is defined on the intersection of names, resolved once from the
// freshly built platforms (in variant A's registration order) and then
// addressed by index — a digest is two slice walks, no map lookups.
type digester struct {
	ctrA, ctrB []int // indices into each registry's counter slice
	gagA, gagB []int
	ctrNames   []string
	gagNames   []string
}

func newDigester(pa, pb *platform.Platform) *digester {
	d := &digester{}
	bIdx := map[string]int{}
	for i, c := range pb.Metrics.Counters() {
		bIdx[c.Name()] = i
	}
	for i, c := range pa.Metrics.Counters() {
		if j, ok := bIdx[c.Name()]; ok {
			d.ctrA = append(d.ctrA, i)
			d.ctrB = append(d.ctrB, j)
			d.ctrNames = append(d.ctrNames, c.Name())
		}
	}
	bIdx = map[string]int{}
	for i, g := range pb.Metrics.Gauges() {
		bIdx[g.Name()] = i
	}
	for i, g := range pa.Metrics.Gauges() {
		if j, ok := bIdx[g.Name()]; ok {
			d.gagA = append(d.gagA, i)
			d.gagB = append(d.gagB, j)
			d.gagNames = append(d.gagNames, g.Name())
		}
	}
	return d
}

// digest reads the shared instruments from p. side selects which index set
// applies (0 = variant A, 1 = variant B).
func (d *digester) digest(p *platform.Platform, side int) []int64 {
	ctrIdx, gagIdx := d.ctrA, d.gagA
	if side == 1 {
		ctrIdx, gagIdx = d.ctrB, d.gagB
	}
	out := make([]int64, 0, len(ctrIdx)+len(gagIdx))
	ctrs := p.Metrics.Counters()
	for _, i := range ctrIdx {
		out = append(out, ctrs[i].Value())
	}
	gags := p.Metrics.Gauges()
	for _, i := range gagIdx {
		out = append(out, gags[i].Value())
	}
	return out
}

func equalDigest(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pair is the two variants at a common probe cycle, plus their in-memory
// base checkpoints (taken at the last cycle the states agreed).
type pair struct {
	specA, specB platform.Spec
	pa, pb       *platform.Platform
	snapA, snapB []byte
	opt          BisectOptions
}

func (pr *pair) snapshot() error {
	var ba, bb bytes.Buffer
	if err := pr.pa.Snapshot(&ba); err != nil {
		return fmt.Errorf("snapshot A: %w", err)
	}
	if err := pr.pb.Snapshot(&bb); err != nil {
		return fmt.Errorf("snapshot B: %w", err)
	}
	pr.snapA, pr.snapB = ba.Bytes(), bb.Bytes()
	return nil
}

func (pr *pair) restore() error {
	pa, err := platform.Restore(pr.specA, bytes.NewReader(pr.snapA))
	if err != nil {
		return fmt.Errorf("restore A: %w", err)
	}
	pb, err := platform.Restore(pr.specB, bytes.NewReader(pr.snapB))
	if err != nil {
		return fmt.Errorf("restore B: %w", err)
	}
	pr.pa, pr.pb = pa, pb
	pr.prepare()
	return nil
}

// prepare applies the Prepare hook to both current platforms.
func (pr *pair) prepare() {
	if pr.opt.Prepare != nil {
		pr.opt.Prepare(0, pr.pa)
		pr.opt.Prepare(1, pr.pb)
	}
}

// advance drives both variants to the target central cycle on the runner
// pool. A variant that drains or exhausts the budget before the target
// simply stays at its final state — the probe still compares "state at
// cycle c", which for an ended run is its terminal state.
func (pr *pair) advance(cycle int64) error {
	jobs := []runner.Job[bool]{
		{Name: "A", Run: func() (bool, error) { return pr.pa.RunToCycle(cycle, pr.opt.BudgetPS), nil }},
		{Name: "B", Run: func() (bool, error) { return pr.pb.RunToCycle(cycle, pr.opt.BudgetPS), nil }},
	}
	_, err := runner.Values(runner.Map(jobs, runner.Options{Workers: pr.opt.Workers}))
	return err
}

// Bisect localizes the first central-clock cycle at which two variants'
// observable state diverges under identical stimulus (same seeds, or the
// same replayed trace attached to both specs).
//
// Protocol: both variants are built fresh and advanced in lockstep along a
// shared power-of-two checkpoint grid, snapshotting both (in memory, via
// Platform.Snapshot) at every grid point where the states still agree. The
// first disagreeing grid point bounds the divergence to one grid interval;
// binary search inside it restores both variants from the shared base
// checkpoint and advances to the midpoint, re-snapshotting whenever the
// states still agree so later probes replay ever-shorter suffixes. Probes
// run serial per variant (the Snapshot/RunToCycle contract) but the two
// variants advance in parallel on an internal/runner pool.
//
// Because snapshots capture exact machine state and replaying from one is
// bit-identical to having run straight through (the §16 contract), the
// search never perturbs what it measures: every probe observes exactly the
// state the uninterrupted run would have had at that cycle.
func Bisect(specA, specB platform.Spec, opt BisectOptions) (*BisectResult, error) {
	if opt.BudgetPS <= 0 {
		opt.BudgetPS = 5_000_000_000_000
	}
	if opt.GridEvery <= 0 {
		opt.GridEvery = 2048
	}
	grid := int64(1)
	for grid < opt.GridEvery {
		grid <<= 1
	}
	if opt.TopFifos <= 0 {
		opt.TopFifos = 10
	}
	if opt.Workers <= 0 {
		opt.Workers = 2
	}

	pr := &pair{specA: specA, specB: specB, opt: opt}
	var err error
	if pr.pa, err = platform.Build(specA); err != nil {
		return nil, fmt.Errorf("build A: %w", err)
	}
	if pr.pb, err = platform.Build(specB); err != nil {
		return nil, fmt.Errorf("build B: %w", err)
	}
	pr.prepare()
	dg := newDigester(pr.pa, pr.pb)

	res := &BisectResult{
		Schema:         Schema,
		Kind:           "bisect",
		A:              Side{Platform: specA.Name()},
		B:              Side{Platform: specB.Name()},
		GridEvery:      grid,
		SharedCounters: len(dg.ctrNames),
		SharedGauges:   len(dg.gagNames),
		DivergedAt:     -1,
		AgreeCycle:     -1,
		SpanLo:         -1,
		SpanHi:         -1,
	}

	// Cycle 0: freshly built platforms. A divergence here means the shared
	// instruments disagree before a single cycle ran — report it directly.
	if !equalDigest(dg.digest(pr.pa, 0), dg.digest(pr.pb, 1)) {
		res.DivergedAt = 0
		return res, finalize(pr, dg, res)
	}
	if err := pr.snapshot(); err != nil {
		return nil, err
	}

	// Forward grid walk: advance both to each grid point, re-basing the
	// shared checkpoints while the states agree.
	lo, hi := int64(0), int64(-1)
	for g := grid; hi < 0; g += grid {
		if err := pr.advance(g); err != nil {
			return nil, err
		}
		res.GridPoints++
		endedA := pr.pa.CentralClk.Cycles() < g
		endedB := pr.pb.CentralClk.Cycles() < g
		if equalDigest(dg.digest(pr.pa, 0), dg.digest(pr.pb, 1)) {
			lo = g
			res.AgreeCycle = g
			if endedA && endedB {
				return res, nil // both runs ended in agreement: no divergence
			}
			if opt.Horizon > 0 && g >= opt.Horizon {
				return res, nil // agreed past the horizon: stop searching
			}
			if err := pr.snapshot(); err != nil {
				return nil, err
			}
			continue
		}
		hi = g
	}
	res.SpanLo, res.SpanHi = lo, hi

	// Binary search inside (lo, hi]: restore both variants from the shared
	// base checkpoint (taken at lo), advance to the midpoint, and narrow.
	// Re-basing on every agreeing midpoint keeps each probe's replayed
	// suffix at most half the previous one.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if err := pr.restore(); err != nil {
			return nil, err
		}
		if err := pr.advance(mid); err != nil {
			return nil, err
		}
		res.Steps++
		if equalDigest(dg.digest(pr.pa, 0), dg.digest(pr.pb, 1)) {
			lo = mid
			if err := pr.snapshot(); err != nil {
				return nil, err
			}
		} else {
			hi = mid
		}
	}
	res.DivergedAt, res.AgreeCycle = hi, lo
	return res, finalize(pr, dg, res)
}

// CeilLog2 returns ⌈log2(n)⌉ for n >= 1 — the exact bisection step count
// for a span of n cycles. Exported for the bench harness's invariant check.
func CeilLog2(n int64) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}

// finalize renders the forensics context for the located divergence: both
// variants restored to the last agreeing cycle, digested, advanced across
// the final window to the divergence instant, and compared instrument by
// instrument plus through their stall-report renderers.
func finalize(pr *pair, dg *digester, res *BisectResult) error {
	lo, hi := res.AgreeCycle, res.DivergedAt
	if hi > 0 {
		if err := pr.restore(); err != nil {
			return err
		}
	}
	dLoA, dLoB := dg.digest(pr.pa, 0), dg.digest(pr.pb, 1)
	if hi > 0 {
		if err := pr.advance(hi); err != nil {
			return err
		}
	}
	dHiA, dHiB := dg.digest(pr.pa, 0), dg.digest(pr.pb, 1)

	names := append(append([]string{}, dg.ctrNames...), dg.gagNames...)
	nc := len(dg.ctrNames)
	for i, name := range names {
		if dHiA[i] != dHiB[i] {
			vd := ValueDelta{
				Name: name, A: dHiA[i], B: dHiB[i],
				Delta: dHiB[i] - dHiA[i], Rel: rel(float64(dHiA[i]), float64(dHiB[i])),
			}
			if i < nc {
				res.FirstCounters = append(res.FirstCounters, vd)
			} else {
				res.FirstGauges = append(res.FirstGauges, vd)
			}
		}
		if hi > 0 && (dHiA[i]-dLoA[i]) != (dHiB[i]-dLoB[i]) {
			res.WindowMoved = append(res.WindowMoved, WindowDelta{
				Name: name, DeltaA: dHiA[i] - dLoA[i], DeltaB: dHiB[i] - dLoB[i],
			})
		}
	}
	rankValues(res.FirstCounters)
	rankValues(res.FirstGauges)

	reason := fmt.Sprintf("divergence probe at cycle %d (last agreement at cycle %d)", hi, lo)
	ca := pr.pa.StallReport(reason, pr.opt.TopFifos)
	cb := pr.pb.StallReport(reason, pr.opt.TopFifos)
	res.ContextA, res.ContextB = ca, cb

	bf := map[string]telemetry.FifoFill{}
	for _, f := range cb.Fifos {
		bf[f.Name] = f
	}
	for _, f := range ca.Fifos {
		if fb, ok := bf[f.Name]; ok && fb.Len != f.Len {
			res.Fifos = append(res.Fifos, FifoDelta{Name: f.Name, LenA: f.Len, LenB: fb.Len, Depth: f.Depth})
		}
	}
	bi := map[string]telemetry.InitiatorHealth{}
	for _, h := range cb.Initiators {
		bi[h.Name] = h
	}
	for _, h := range ca.Initiators {
		hb, ok := bi[h.Name]
		if !ok {
			continue
		}
		if h.InFlight != hb.InFlight || h.Issued != hb.Issued ||
			h.Completed != hb.Completed || h.OldestAgePS != hb.OldestAgePS {
			res.Initiators = append(res.Initiators, InitiatorDelta{
				Name:      h.Name,
				InFlightA: h.InFlight, InFlightB: hb.InFlight,
				IssuedA: h.Issued, IssuedB: hb.Issued,
				CompletedA: h.Completed, CompletedB: hb.Completed,
				OldestAgeAPS: h.OldestAgePS, OldestAgeBPS: hb.OldestAgePS,
			})
		}
	}
	return nil
}
