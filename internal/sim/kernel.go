// Package sim provides the cycle-accurate simulation kernel underlying the
// whole virtual platform: multiple clock domains, two-phase (eval/update)
// component scheduling, synchronous and clock-domain-crossing FIFOs, and a
// deterministic PRNG.
//
// The kernel mirrors the delta-cycle discipline of a SystemC clocked design:
// on every clock edge the awake components registered on that clock first
// Eval() (compute, read current state, stage writes) and then Update()
// (commit the staged writes). All inter-component communication flows
// through Fifo or Reg values committed at Update, so a value written in
// cycle N is visible to readers in cycle N+1 regardless of evaluation order.
//
// Scheduling is activity-driven (DESIGN.md §20): a component implementing
// Sleeper ends its Update with Activity.Rest, and when it is Quiescent the
// kernel slot it occupies sleeps — its Eval and Update are skipped — until
// something it waits on changes: a push into a FIFO it consumes, a pop from
// a FIFO it produces, or an explicit Activity.Wake. Every other component
// is evaluated on every edge of its clock.
package sim

import (
	"fmt"
	"math"
	"sort"
)

// Clocked is implemented by every synchronous component. Eval runs first on
// each edge of the component's clock on which it is awake and may read
// current state and stage writes; Update commits staged state. No component
// may observe another component's staged (pre-Update) state, and pushes and
// pops are staged only in Eval (so the wake they trigger always lands before
// the edge's Update phase).
type Clocked interface {
	Eval()
	Update()
}

// ClockedFunc adapts a pair of functions to the Clocked interface.
type ClockedFunc struct {
	OnEval   func()
	OnUpdate func()
}

// Eval calls OnEval if non-nil.
func (c *ClockedFunc) Eval() {
	if c.OnEval != nil {
		c.OnEval()
	}
}

// Update calls OnUpdate if non-nil.
func (c *ClockedFunc) Update() {
	if c.OnUpdate != nil {
		c.OnUpdate()
	}
}

// Sleeper is the optional interface of a component that can sleep through
// edges on which it would change nothing observable. Its Update ends with
// Activity.Rest; if nothing it waits on changed during the edge and
// Quiescent reports true, the kernel slot being updated — the component's
// own, or that of a wrapper registered in its place — sleeps: the kernel
// calls neither its Eval nor its Update until something wakes it. Wakes
// come from a push into a FIFO it consumes (Fifo.SetConsumer,
// AsyncFifo.SetConsumer), a pop from a FIFO it produces (SetProducer), or an
// explicit Activity.Wake by a component sharing other state with it.
//
// The contract: Quiescent may return true only if every edge until the next
// wake would change nothing but state that Credit(evals, updates) rebuilds
// exactly from the number of Eval and Update calls skipped — per-cycle
// counters (cycle and stall tallies, FIFO occupancy statistics, see
// Fifo.Idle) and closed-form autonomous state such as a countdown
// saturating at zero. Credit runs when the component wakes or is settled
// (Kernel.Settle). Every source of a change the component waits on must
// wake it; a spurious wake is always correct. Pin keeps a component awake.
type Sleeper interface {
	Clocked
	Quiescent() bool
	Credit(evals, updates int64)
	Activity() *Activity
}

// Activity is a Sleeper's sleep record. The component embeds one and
// returns it from its Activity method; the FIFOs it consumes and produces
// point at it, so a push or a pop reaches it without a lookup. Register
// binds it to the clock the component is registered on; the component keeps
// that binding when it is taken off the clock and registered again behind a
// wrapper, and the kernel slot it sleeps in is the one being updated when
// it rests.
type Activity struct {
	asleep bool // the slot's Eval and Update are skipped
	pinned bool // never sleeps (see Pin)
	// stirred records a change the component waits on since its last
	// Rest, so an edge that stirred it is never slept on.
	stirred bool

	comp  Sleeper // the component, once asleep
	clk   *Clock  // the clock the component was registered on
	idx   int     // the slot sleeping on clk
	since int64   // clock cycles completed when the uncredited sleep began
}

// Asleep reports whether the component is sleeping.
func (a *Activity) Asleep() bool { return a.asleep }

// Wake records that something the component waits on changed and, if it
// sleeps, ends its sleep and credits the slept edges. It must be called in
// an Eval or at an edge boundary, never in an Update. In the middle of an
// edge of the component's clock the sweep position decides: if the kernel
// has not yet evaluated the component's slot on this edge, the slot runs
// both its Eval and its Update; if the sweep has passed it, the Eval is
// skipped (and credited) and only the Update runs.
func (a *Activity) Wake() {
	a.stirred = true
	if a.asleep {
		a.wake()
	}
}

func (a *Activity) wake() {
	a.asleep = false
	c := a.clk
	c.nAsleep--
	n := c.cycle - a.since
	evals := n
	switch {
	case c.nextEdge != c.kernel.nowPS:
		c.skip[a.idx] = 0 // between edges of the clock
	case a.idx > c.swept:
		// The sweep has not reached the slot: it evaluates this edge,
		// which count tallied as skipped.
		c.skip[a.idx] = 0
		c.evalsRun++
		c.evalsSkipped--
		c.sleeperEvals++
	default:
		evals++ // this edge's Eval is over, its Update will run
		c.skip[a.idx] = skipEval
	}
	a.comp.Credit(evals, n)
}

// Settle credits the cycles slept so far without waking the component, so
// its counters read as if it had been evaluated on every edge. Call it at
// an edge boundary.
func (a *Activity) Settle() {
	if !a.asleep {
		return
	}
	if n := a.clk.cycle - a.since; n > 0 {
		a.since = a.clk.cycle
		a.comp.Credit(n, n)
	}
}

// Rest ends the Update of a Sleeper q whose record this is. If nothing
// stirred q since its last Rest and q is Quiescent, the slot the kernel is
// updating goes to sleep. Called outside the kernel's Update phase of q's
// clock (a direct call in a test, say) it does nothing.
func (a *Activity) Rest(q Sleeper) {
	if a.stirred {
		a.stirred = false
		return
	}
	if c := a.clk; c != nil && c.upd >= 0 && !a.pinned && q.Quiescent() {
		a.sleep(q, c)
	}
}

func (a *Activity) sleep(q Sleeper, c *Clock) {
	i := c.upd
	a.asleep, a.comp, a.idx, a.since = true, q, i, c.cycle+1
	c.skip[i] = skipEval | skipUpdate
	c.nAsleep++
	if s := &c.comps[i]; s.act == nil {
		s.act = a // a wrapper's slot, asleep for the first time
		c.nSleepers++
	}
}

// Pin wakes the component and keeps it awake for good. Fifo.MarkDeferred
// pins both parties of a shard-boundary FIFO, so no wake ever has to cross
// goroutines.
func (a *Activity) Pin() {
	a.Wake()
	a.pinned = true
}

// slot is one registration: the component and the sleep record of the
// Sleeper that sleeps in it (nil until one is known: registered directly,
// or asleep behind a wrapper).
type slot struct {
	comp Clocked
	act  *Activity
}

// Skip bits of a slot (Clock.skip). A sleeping slot skips both calls; one
// woken in the middle of an edge the sweep has already evaluated skips only
// that edge's Eval. The bits mirror Activity.asleep in one byte array per
// clock, so the dispatch loops test a sleeper without touching its memory.
const (
	skipEval   = 1
	skipUpdate = 2
)

// Clock is a free-running clock domain. The awake components registered on
// a clock are ticked on every rising edge, in registration order, first all
// Eval then all Update.
type Clock struct {
	name     string
	periodPS int64
	nextEdge int64
	cycle    int64
	comps    []slot
	skip     []uint8 // skip bits, parallel to comps
	kernel   *Kernel

	// Sweep position on the current edge: swept is the last slot whose
	// Eval has been reached (-1 before the clock's Eval phase, len(comps)
	// after it), upd the slot being updated (-1 outside the Update phase).
	swept, upd int

	// Activity accounting: slots with a known sleep record, how many
	// sleep now, and the per-edge evaluation tallies behind
	// Kernel.EvalCounts.
	nSleepers    int
	nAsleep      int
	evalsRun     int64
	evalsSkipped int64
	sleeperEvals int64
}

// Name returns the clock's name.
func (c *Clock) Name() string { return c.name }

// PeriodPS returns the clock period in picoseconds.
func (c *Clock) PeriodPS() int64 { return c.periodPS }

// FreqMHz returns the clock frequency in MHz.
func (c *Clock) FreqMHz() float64 { return 1e6 / float64(c.periodPS) }

// Cycles returns the number of rising edges elapsed so far.
func (c *Clock) Cycles() int64 { return c.cycle }

// NowPS returns the absolute simulated time of the edge currently being
// processed, in picoseconds. Cycles() counts *completed* edges (it advances
// after the edge's Eval+Update), so during a component's Eval or Update the
// current edge sits at (Cycles()+1) * PeriodPS. Every clock domain's NowPS
// agrees with kernel time at its own edges, giving cross-domain stamps (e.g.
// latency attribution) one shared monotonic axis.
func (c *Clock) NowPS() int64 { return (c.cycle + 1) * c.periodPS }

// Register adds a component to this clock domain. Awake components are
// evaluated on every edge in registration order; because all communication
// is through two-phase FIFOs, the order affects only arbitration tie-breaks
// internal to a single component, never cross-component value propagation.
// A Sleeper's Activity is bound to the clock, so its Rest can put the slot
// it is updated in to sleep (see Sleeper); it starts awake.
func (c *Clock) Register(comp Clocked) {
	s := slot{comp: comp}
	if sl, ok := comp.(Sleeper); ok {
		s.act = sl.Activity()
		s.act.clk = c
		c.nSleepers++
	}
	c.comps = append(c.comps, s)
	c.skip = append(c.skip, 0)
	if c.kernel != nil {
		c.kernel.invalidateSchedule()
	}
}

// count tallies the evaluations of the edge about to fire and rewinds the
// sweep. It runs before any Eval of the edge, when exactly the sleeping
// slots will skip (a wake ahead of the sweep corrects the tally).
func (c *Clock) count() {
	c.swept = -1
	c.evalsRun += int64(len(c.comps) - c.nAsleep)
	c.evalsSkipped += int64(c.nAsleep)
	c.sleeperEvals += int64(c.nSleepers - c.nAsleep)
}

// eval runs the Eval phase of the current edge on every slot that does not
// skip it. The loop re-reads the skip bits, so a slot woken ahead of the
// sweep is evaluated.
func (c *Clock) eval() {
	if c.nAsleep < len(c.comps) {
		for i, skip := range c.skip {
			if skip&skipEval == 0 {
				c.swept = i
				c.comps[i].comp.Eval()
			}
		}
	}
	c.swept = len(c.comps)
}

// update runs the Update phase of the current edge — committing every awake
// slot, some of which rest into sleep — and completes the edge.
func (c *Clock) update() {
	if c.nAsleep < len(c.comps) {
		c.updateAwake()
	}
	c.cycle++
	c.nextEdge += c.periodPS
}

// updateAwake calls Update on every slot that does not skip it, with upd
// naming the slot for Activity.Rest.
func (c *Clock) updateAwake() {
	for i, skip := range c.skip {
		if skip&skipUpdate != 0 {
			continue
		}
		if skip != 0 {
			c.skip[i] = 0 // the edge a mid-edge wake landed in is over
		}
		c.upd = i
		c.comps[i].comp.Update()
	}
	c.upd = -1
}

// settle credits every sleeping slot's slept cycles.
func (c *Clock) settle() {
	for _, s := range c.comps {
		if s.act != nil {
			s.act.Settle()
		}
	}
}

// NumRegistered returns the number of components currently registered on the
// clock. Shard assembly uses it to weigh clock domains when balancing units
// across shards.
func (c *Clock) NumRegistered() int { return len(c.comps) }

// Kernel owns simulated time and all clock domains.
//
// The edge scheduler is precomputed: clock periods are fixed integers, so
// the firing pattern repeats with the hyperperiod (LCM of all periods). The
// kernel lazily builds one of three dispatch tiers on the first Step after a
// clock or component is added:
//
//  1. single-clock fast path — no min-scan, no grouping at all;
//  2. hyperperiod schedule — the distinct firing offsets within one
//     hyperperiod, each with its pre-sorted clock group, stepped by index;
//  3. generic path — when the hyperperiod would be too long to tabulate
//     (co-prime periods such as 7519 ps for a quantized 133 MHz clock), a
//     single min-scan over clocks pre-sorted by name into a reusable
//     firing buffer.
//
// All three tiers fire the exact same edges in the exact same order as a
// naive per-step min-scan + stable name sort, and none of them allocates in
// steady state.
type Kernel struct {
	nowPS  int64
	clocks []*Clock
	// stopped is set by Stop; Run loops exit at the next edge boundary.
	stopped bool

	// --- lazily built edge schedule (see buildSchedule) ---
	schedValid bool
	single     *Clock      // tier 1: the only clock, or nil
	groups     []edgeGroup // tier 2: hyperperiod schedule, or empty
	hyper      int64       // hyperperiod in ps (tier 2)
	base       int64       // absolute time of the current hyperperiod start
	gidx       int         // next group to fire within the hyperperiod
	sorted     []*Clock    // tier 3: clocks stably sorted by name
	firing     []*Clock    // tier 3: reusable buffer of clocks firing now
}

// edgeGroup is one distinct firing instant within the hyperperiod: the
// clocks due at base+offset in their deterministic (name-sorted) order. All
// their Evals run before any Update, and each clock's cycle counter
// advances right after its own Updates, exactly as in the generic path (a
// component's Update may observe another domain's Cycles()).
type edgeGroup struct {
	offset int64 // firing time relative to the hyperperiod start, in (0, hyper]
	clocks []*Clock
}

// maxHyperEdges bounds the tabulated schedule size; hyperperiods with more
// distinct edges (or that overflow int64 during the LCM computation) fall
// back to the generic min-scan path.
const maxHyperEdges = 4096

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns current simulated time in picoseconds.
func (k *Kernel) Now() int64 { return k.nowPS }

// Clocks returns the registered clock domains in creation order. The slice is
// the kernel's own — callers must not mutate it.
func (k *Kernel) Clocks() []*Clock { return k.clocks }

// Stop requests that the current Run loop exit after the in-flight edge.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// ResetStop clears a previous Stop so the kernel — and any platform built on
// it — can be reused for another run.
func (k *Kernel) ResetStop() { k.stopped = false }

// NewClock creates and registers a clock domain with the given frequency.
// The first edge fires at t = period (all clocks start aligned at phase 0).
//
// Periods are quantized to an integer number of picoseconds with
// math.Round(1e6/freqMHz), so frequencies that do not divide 1 µs are
// realized slightly off-nominal: 333 MHz becomes 3003 ps (≈332.96 MHz) and
// 133 MHz becomes 7519 ps (≈133.01 MHz). The quantization is deterministic
// and identical on every platform, so cross-domain cycle ratios are exactly
// reproducible; use NewClockPeriodPS when an exact period matters more than
// a nominal frequency.
func (k *Kernel) NewClock(name string, freqMHz float64) *Clock {
	if freqMHz <= 0 {
		panic(fmt.Sprintf("sim: non-positive frequency %v for clock %q", freqMHz, name))
	}
	period := int64(math.Round(1e6 / freqMHz))
	if period <= 0 {
		period = 1
	}
	return k.NewClockPeriodPS(name, period)
}

// NewClockPeriodPS creates a clock from an exact period in picoseconds.
func (k *Kernel) NewClockPeriodPS(name string, periodPS int64) *Clock {
	if periodPS <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %d for clock %q", periodPS, name))
	}
	c := &Clock{name: name, periodPS: periodPS, nextEdge: periodPS, kernel: k, upd: -1}
	k.clocks = append(k.clocks, c)
	k.invalidateSchedule()
	return c
}

// invalidateSchedule forces a rebuild on the next Step; called whenever the
// clock set or a component list changes.
func (k *Kernel) invalidateSchedule() { k.schedValid = false }

// buildSchedule selects and constructs the dispatch tier. Runs once per
// topology change, never in steady state.
func (k *Kernel) buildSchedule() {
	k.schedValid = true
	k.single = nil
	k.groups = k.groups[:0]
	if len(k.clocks) == 0 {
		return
	}
	if len(k.clocks) == 1 {
		k.single = k.clocks[0]
		return
	}
	// Deterministic firing order: stable sort by name (registration order
	// breaks ties), matching the per-step sort the kernel historically did.
	k.sorted = append(k.sorted[:0], k.clocks...)
	sort.SliceStable(k.sorted, func(i, j int) bool { return k.sorted[i].name < k.sorted[j].name })
	k.buildHyperperiod()
}

// buildHyperperiod tabulates the firing groups of one hyperperiod, or leaves
// k.groups empty to select the generic path.
func (k *Kernel) buildHyperperiod() {
	hyper := int64(1)
	for _, c := range k.clocks {
		g := gcd64(hyper, c.periodPS)
		quot := hyper / g
		if quot > math.MaxInt64/c.periodPS {
			return // LCM overflow: generic path
		}
		hyper = quot * c.periodPS
	}
	var edges int64
	for _, c := range k.clocks {
		edges += hyper / c.periodPS
	}
	if edges > maxHyperEdges {
		return // schedule too large to be worth tabulating
	}
	// Distinct firing offsets within (0, hyper].
	offs := make([]int64, 0, edges)
	for _, c := range k.sorted {
		for t := c.periodPS; t <= hyper; t += c.periodPS {
			offs = append(offs, t)
		}
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	groups := make([]edgeGroup, 0, len(offs))
	for _, off := range offs {
		if n := len(groups); n > 0 && groups[n-1].offset == off {
			continue
		}
		g := edgeGroup{offset: off}
		for _, c := range k.sorted {
			if off%c.periodPS != 0 {
				continue
			}
			g.clocks = append(g.clocks, c)
		}
		groups = append(groups, g)
	}
	// Position the schedule at the kernel's current state. All clocks tick
	// continuously from phase 0 (nextEdge is always (cycle+1)*period), so
	// the next due edge determines base and gidx; if any clock's state is
	// inconsistent with the periodic pattern (e.g. a clock created mid-run
	// with edges in the simulated past), fall back to the generic path,
	// which reproduces the historical behaviour exactly.
	next := k.clocks[0].nextEdge
	for _, c := range k.clocks[1:] {
		if c.nextEdge < next {
			next = c.nextEdge
		}
	}
	base := (next - 1) / hyper * hyper
	gidx := -1
	for i := range groups {
		if base+groups[i].offset == next {
			gidx = i
			break
		}
	}
	if gidx < 0 {
		return
	}
	pos := base + groups[gidx].offset
	for _, c := range k.clocks {
		due := (pos + c.periodPS - 1) / c.periodPS * c.periodPS
		if due != c.nextEdge {
			return
		}
	}
	k.groups = groups
	k.hyper = hyper
	k.base = base
	k.gidx = gidx
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Step advances simulated time to the next clock edge (or group of
// simultaneous edges) and ticks the affected clock domains. It returns false
// when there are no clocks registered.
func (k *Kernel) Step() bool { return k.stepBounded(math.MaxInt64) }

// stepBounded fires the next edge group if it is due at or before maxPS and
// reports whether it stepped. It is the single dispatch point for all run
// loops, so the bound check shares the same scan that locates the edge.
func (k *Kernel) stepBounded(maxPS int64) bool {
	if !k.schedValid {
		k.buildSchedule()
	}
	switch {
	case k.single != nil:
		c := k.single
		if c.nextEdge > maxPS {
			return false
		}
		k.nowPS = c.nextEdge
		c.count()
		c.eval()
		c.update()
		return true
	case len(k.groups) > 0:
		g := &k.groups[k.gidx]
		next := k.base + g.offset
		if next > maxPS {
			return false
		}
		k.nowPS = next
		for _, c := range g.clocks {
			c.count()
		}
		for _, c := range g.clocks {
			c.eval()
		}
		for _, c := range g.clocks {
			c.update()
		}
		k.gidx++
		if k.gidx == len(k.groups) {
			k.gidx = 0
			k.base += k.hyper
		}
		return true
	case len(k.clocks) == 0:
		return false
	}
	return k.stepGeneric(maxPS)
}

// stepGeneric is the fallback tier: one scan over the name-sorted clocks
// finds the minimum edge and collects the firing group into a reusable
// buffer, already in deterministic order.
func (k *Kernel) stepGeneric(maxPS int64) bool {
	next := int64(math.MaxInt64)
	k.firing = k.firing[:0]
	for _, c := range k.sorted {
		switch {
		case c.nextEdge < next:
			next = c.nextEdge
			k.firing = append(k.firing[:0], c)
		case c.nextEdge == next:
			k.firing = append(k.firing, c)
		}
	}
	if next > maxPS {
		return false
	}
	k.nowPS = next
	// Tick the group synchronously: all Evals, then all Updates, so
	// simultaneous edges across domains behave like a single wider domain.
	for _, c := range k.firing {
		c.count()
	}
	for _, c := range k.firing {
		c.eval()
	}
	for _, c := range k.firing {
		c.update()
	}
	return true
}

// RunUntil advances until simulated time reaches ps (inclusive of edges at
// exactly ps) or Stop is called.
func (k *Kernel) RunUntil(ps int64) {
	for !k.stopped && k.stepBounded(ps) {
	}
}

// RunCycles runs n rising edges of the given clock (other clocks advance as
// needed) or until Stop.
func (k *Kernel) RunCycles(c *Clock, n int64) {
	target := c.cycle + n
	for !k.stopped && c.cycle < target {
		if !k.Step() {
			return
		}
	}
}

// RunWhile steps the kernel while cond returns true, up to maxPS of
// simulated time. It returns true if cond went false (normal exit), false on
// timeout or Stop.
func (k *Kernel) RunWhile(cond func() bool, maxPS int64) bool {
	for cond() {
		if k.stopped || k.nowPS >= maxPS {
			return false
		}
		if !k.Step() {
			return false
		}
	}
	return true
}

// PeekNextEdge returns the absolute time of the next due clock edge without
// executing it, or -1 when the kernel has no clocks. Shard coordinators use
// it to walk several kernels through a shared global instant order.
func (k *Kernel) PeekNextEdge() int64 { return k.peekNextEdge() }

// SetNow forces the kernel's notion of current simulated time. It exists for
// shard assembly only: after a sharded run the platform kernel itself never
// stepped, so the coordinator stamps the final instant back before results
// are collected. Calling it on a kernel that is actively stepping corrupts
// the time axis.
func (k *Kernel) SetNow(ps int64) { k.nowPS = ps }

// SeedCycles fast-forwards the clock to n completed cycles, as if it had
// ticked continuously from phase 0. Shard assembly uses it on the per-shard
// central-clock replicas of a checkpoint-restored platform, so every central
// clock agrees on the cycle count (maturity stamps, timeline timestamps and
// NowPS arithmetic all read it).
func (c *Clock) SeedCycles(n int64) {
	c.cycle = n
	c.nextEdge = (n + 1) * c.periodPS
	if c.kernel != nil {
		c.kernel.invalidateSchedule()
	}
}

// AdoptClock moves an existing clock (with its registered components and its
// cycle/edge state) into this kernel, detaching it from the kernel that
// created it. Shard assembly uses it to hand whole clock domains to per-shard
// kernels while every component keeps its original *Clock pointer. Both
// kernels' edge schedules are invalidated.
func (k *Kernel) AdoptClock(c *Clock) {
	if old := c.kernel; old != nil {
		for i, oc := range old.clocks {
			if oc == c {
				old.clocks = append(old.clocks[:i], old.clocks[i+1:]...)
				break
			}
		}
		old.invalidateSchedule()
	}
	c.kernel = k
	k.clocks = append(k.clocks, c)
	k.invalidateSchedule()
}

// TakeComponents removes and returns the clock's registered components in
// registration order, waking any that sleep. Their sleep records stay bound
// to the clock, so a component registered again behind a wrapper sleeps as
// before. Shard assembly uses it on a clock whose components are split
// across shards (the central domain): the journal of registrations is then
// replayed onto the per-shard clocks, preserving relative order.
func (c *Clock) TakeComponents() []Clocked {
	comps := make([]Clocked, len(c.comps))
	for i, s := range c.comps {
		if s.act != nil && s.act.asleep {
			s.act.Wake()
		}
		comps[i] = s.comp
	}
	c.comps, c.skip = nil, nil
	c.nSleepers, c.nAsleep = 0, 0
	if c.kernel != nil {
		c.kernel.invalidateSchedule()
	}
	return comps
}

// Settle credits every sleeping component's slept cycles without waking it
// (Activity.Settle), so component counters read exactly as under
// every-edge evaluation. Call it at an edge boundary before reading
// counters mid-run or at the end — before a snapshot, a telemetry or
// watchdog read of the metrics registry, and collecting results.
func (k *Kernel) Settle() {
	for _, c := range k.clocks {
		c.settle()
	}
}

// EvalCount is one clock domain's tally of component evaluations since the
// kernel was built (or restored): Eval calls made, Eval calls skipped
// because the slot slept, and the share of the calls made that went to
// slots able to sleep (a Sleeper registered directly, or a wrapper once the
// Sleeper behind it has slept). It measures the simulator, not the simulated
// chip, and is not part of any snapshot or report.
type EvalCount struct {
	Clock      string `json:"clock"`
	Run        int64  `json:"run"`
	Skipped    int64  `json:"skipped"`
	SleeperRun int64  `json:"sleeper_run"`
}

// EvalCounts returns the evaluation tally of every clock domain, in clock
// creation order.
func (k *Kernel) EvalCounts() []EvalCount {
	out := make([]EvalCount, len(k.clocks))
	for i, c := range k.clocks {
		out[i] = EvalCount{Clock: c.name, Run: c.evalsRun, Skipped: c.evalsSkipped, SleeperRun: c.sleeperEvals}
	}
	return out
}

func (k *Kernel) peekNextEdge() int64 {
	if !k.schedValid {
		k.buildSchedule()
	}
	switch {
	case k.single != nil:
		return k.single.nextEdge
	case len(k.groups) > 0:
		return k.base + k.groups[k.gidx].offset
	case len(k.clocks) == 0:
		return -1
	}
	next := int64(math.MaxInt64)
	for _, c := range k.clocks {
		if c.nextEdge < next {
			next = c.nextEdge
		}
	}
	return next
}
