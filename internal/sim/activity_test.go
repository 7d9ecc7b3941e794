package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// sink is a test Sleeper: each Eval counts a cycle and pops at most one
// entry from its input, logging it with the sink's clock cycle. It owns a
// synchronous input (committed in its Update) and reads an asynchronous one.
type sink struct {
	name  string
	clk   *Clock
	in    *Fifo[int]
	ain   *AsyncFifo[int]
	log   *[]string
	evals int64
	act   Activity
}

func newSink(name string, clk *Clock, log *[]string, writer *Clock) *sink {
	s := &sink{name: name, clk: clk, log: log, in: NewFifo[int](name+".in", 4)}
	s.in.SetConsumer(&s.act)
	if writer != nil {
		s.ain = NewAsyncFifo[int](name+".ain", 4, 2, clk)
		s.ain.SetConsumer(&s.act)
	}
	return s
}

func (s *sink) Eval() {
	s.evals++
	if s.in.CanPop() {
		*s.log = append(*s.log, fmt.Sprintf("%s:%d@%d", s.name, s.in.Pop(), s.clk.Cycles()))
	}
	if s.ain != nil && s.ain.CanPop() {
		*s.log = append(*s.log, fmt.Sprintf("%s:a%d@%d", s.name, s.ain.Pop(), s.clk.Cycles()))
	}
}

func (s *sink) Update() {
	s.in.Update()
	if s.ain != nil {
		s.ain.ReaderUpdate()
	}
	s.act.Rest(s)
}

func (s *sink) Quiescent() bool { return s.in.Len() == 0 && (s.ain == nil || s.ain.Empty()) }

func (s *sink) Credit(evals, updates int64) {
	s.evals += evals
	s.in.Idle(updates)
}

func (s *sink) Activity() *Activity { return &s.act }

// hidden wraps a component behind the bare Clocked interface, hiding any
// Sleeper methods. A Sleeper only ever registered behind it is bound to no
// clock, so it never sleeps.
type hidden struct{ Clocked }

// driver pushes pseudo-random values into a sink's inputs on its own clock.
func driver(clk *Clock, s *sink, seed uint64, crossing bool) Clocked {
	rng := NewRand(seed)
	v := 0
	return &ClockedFunc{
		OnEval: func() {
			if rng.Bool(0.15) && s.in.CanPush() && !crossing {
				v++
				s.in.Push(v)
			}
			if crossing && rng.Bool(0.15) && s.ain.CanPush() {
				v++
				s.ain.Push(v)
			}
		},
		OnUpdate: func() {
			if crossing {
				s.ain.WriterUpdate()
			}
		},
	}
}

// sleeperRun builds one sink per clock, driven by a same-clock driver
// registered before it, plus one sink per clock fed across domains from the
// next clock, and steps the kernel. With awake set every sink is hidden
// behind a wrapper. It returns the pop log, the settled per-sink counters
// and FIFO statistics, and the kernel's evaluation tallies.
func sleeperRun(periods []int64, awake bool, steps int) ([]string, []string, []EvalCount) {
	k := NewKernel()
	var log []string
	clocks := make([]*Clock, len(periods))
	for i, p := range periods {
		clocks[i] = k.NewClockPeriodPS(fmt.Sprintf("c%d", i), p)
	}
	var sinks []*sink
	reg := func(c *Clock, s *sink) {
		if awake {
			c.Register(hidden{s})
		} else {
			c.Register(s)
		}
	}
	for i, c := range clocks {
		// Same-clock feed; the driver evaluates before its sink, so a push
		// lands in an edge the sink slept into.
		s := newSink(fmt.Sprintf("s%d", i), c, &log, nil)
		c.Register(driver(c, s, uint64(i+1), false))
		reg(c, s)
		// Cross-domain feed from the next clock; the sink evaluates before
		// its driver when both share a clock.
		w := clocks[(i+1)%len(clocks)]
		x := newSink(fmt.Sprintf("x%d", i), c, &log, w)
		reg(c, x)
		w.Register(driver(w, x, uint64(100+i), true))
		sinks = append(sinks, s, x)
	}
	for i := 0; i < steps; i++ {
		k.Step()
	}
	k.Settle()
	var counters []string
	for _, s := range sinks {
		counters = append(counters, fmt.Sprintf("%s evals=%d %+v", s.name, s.evals, s.in.Stats()))
	}
	return log, counters, k.EvalCounts()
}

// TestSleepersMatchAwakeInEveryTier runs push-driven sleepers on every
// dispatch tier and checks that sleeping changes nothing observable: the
// same values pop at the same cycles, and the settled per-cycle counters
// equal those of an all-awake run.
func TestSleepersMatchAwakeInEveryTier(t *testing.T) {
	tiers := []struct {
		label   string
		periods []int64
	}{
		{"single", []int64{4000}},
		{"schedule", []int64{2500, 4000}},
		{"schedule-simultaneous", []int64{2500, 5000, 4000}},
		{"generic", []int64{2500, 4000, 7519}},
	}
	for _, tc := range tiers {
		t.Run(tc.label, func(t *testing.T) {
			const steps = 3000
			wantLog, wantCtr, wantEC := sleeperRun(tc.periods, true, steps)
			gotLog, gotCtr, gotEC := sleeperRun(tc.periods, false, steps)
			if len(wantLog) < 100 {
				t.Fatalf("only %d pops: the drivers are too quiet to exercise wakes", len(wantLog))
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				for i := range wantLog {
					if i >= len(gotLog) || gotLog[i] != wantLog[i] {
						t.Fatalf("pop %d differs: sleeping %v, awake %s", i, gotLog[min(i, len(gotLog)-1)], wantLog[i])
					}
				}
				t.Fatalf("sleeping run popped %d entries, awake run %d", len(gotLog), len(wantLog))
			}
			if !reflect.DeepEqual(gotCtr, wantCtr) {
				t.Fatalf("settled counters differ:\nsleeping %v\nawake    %v", gotCtr, wantCtr)
			}
			for i := range gotEC {
				w, g := wantEC[i], gotEC[i]
				if w.Skipped != 0 || w.SleeperRun != 0 {
					t.Fatalf("%s: hidden sleepers were skipped or counted as sleepers: %+v", w.Clock, w)
				}
				if g.Skipped == 0 {
					t.Fatalf("%s: no evaluation skipped: %+v", g.Clock, g)
				}
				if g.Run+g.Skipped != w.Run {
					t.Fatalf("%s: run+skipped = %d, awake run made %d evals", g.Clock, g.Run+g.Skipped, w.Run)
				}
			}
		})
	}
}

// TestAsyncFifoPushWakesCrossDomainReader pins the cross-domain wake: a push
// on the writer's clock wakes a reader sleeping on another clock, whose
// edges then resume, and the entry pops at the cycle an always-awake reader
// pops it.
func TestAsyncFifoPushWakesCrossDomainReader(t *testing.T) {
	run := func(awake bool) ([]string, *sink, *Kernel) {
		k := NewKernel()
		w := k.NewClockPeriodPS("w", 3000)
		r := k.NewClockPeriodPS("r", 7000)
		var log []string
		s := newSink("r", r, &log, w)
		if awake {
			r.Register(hidden{s})
		} else {
			r.Register(s)
		}
		w.Register(&ClockedFunc{
			OnEval: func() {
				if w.Cycles() == 40 {
					s.ain.Push(7)
				}
			},
			OnUpdate: s.ain.WriterUpdate,
		})
		k.RunUntil(20 * 7000)
		if !awake && !s.act.Asleep() {
			t.Fatal("idle reader did not fall asleep")
		}
		k.RunUntil(60 * 7000)
		return log, s, k
	}
	want, ws, _ := run(true)
	got, gs, k := run(false)
	if len(want) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("sleeping reader popped %v, awake reader %v", got, want)
	}
	k.Settle()
	if gs.evals != ws.evals {
		t.Fatalf("settled reader evals = %d, awake reader made %d", gs.evals, ws.evals)
	}
}

// TestWakeLandsInSameEdge pins the same-edge rule: a push staged during an
// edge wakes its sleeping consumer in time for that edge's Update, which
// commits it — whether the pusher evaluates before or after the consumer —
// and the consumer's skipped Eval of that edge is credited.
func TestWakeLandsInSameEdge(t *testing.T) {
	for _, pusherFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("pusherFirst=%v", pusherFirst), func(t *testing.T) {
			k := NewKernel()
			c := k.NewClockPeriodPS("c", 1000)
			var log []string
			s := newSink("s", c, &log, nil)
			push := &ClockedFunc{OnEval: func() {
				if c.Cycles() == 10 {
					if !s.act.Asleep() {
						t.Error("consumer awake before the push")
					}
					s.in.Push(1)
					if s.act.Asleep() {
						t.Error("push did not wake the consumer")
					}
				}
			}}
			if pusherFirst {
				c.Register(push)
				c.Register(s)
			} else {
				c.Register(s)
				c.Register(push)
			}
			k.RunCycles(c, 11) // edges 0..10: the push edge ends committed
			if s.in.Len() != 1 {
				t.Fatalf("push not committed at its own edge: len %d staged %d", s.in.Len(), s.in.Staged())
			}
			if s.evals != 11 {
				t.Fatalf("evals after wake = %d, want 11 (edges 0..10, the slept ones credited)", s.evals)
			}
			k.RunCycles(c, 1)
			if want := []string{"s:1@11"}; !reflect.DeepEqual(log, want) {
				t.Fatalf("log = %v, want %v", log, want)
			}
			if s.evals != 12 {
				t.Fatalf("evals = %d, want 12", s.evals)
			}
		})
	}
}

// TestPinKeepsAwake checks that MarkDeferred pins both parties of a FIFO and
// stops its pushes from waking anything.
func TestPinKeepsAwake(t *testing.T) {
	k := NewKernel()
	c := k.NewClockPeriodPS("c", 1000)
	var log []string
	s := newSink("s", c, &log, nil)
	var prod Activity
	s.in.SetProducer(&prod)
	c.Register(s)
	k.RunCycles(c, 3)
	if !s.act.Asleep() {
		t.Fatal("idle sink did not fall asleep")
	}
	s.in.MarkDeferred()
	if s.act.Asleep() || !s.act.pinned || !prod.pinned {
		t.Fatalf("MarkDeferred must wake and pin both parties (asleep=%v consumer pinned=%v producer pinned=%v)",
			s.act.Asleep(), s.act.pinned, prod.pinned)
	}
	k.RunCycles(c, 5)
	if s.act.Asleep() {
		t.Fatal("pinned sink fell asleep")
	}
	if s.evals != 8 {
		t.Fatalf("evals = %d, want 8", s.evals)
	}
}

// source is a test Sleeper that owns the FIFO it produces into: each Eval
// pushes the next value if there is room, and it sleeps while the FIFO is
// full, until a pop wakes it to commit the pop.
type source struct {
	out   *Fifo[int]
	next  int
	evals int64
	quiet bool
	act   Activity
}

func newSource(depth int) *source {
	s := &source{out: NewFifo[int]("src.out", depth)}
	s.out.SetProducer(&s.act)
	return s
}

func (s *source) Eval() {
	s.evals++
	s.quiet = !s.out.CanPush()
	if !s.quiet {
		s.next++
		s.out.Push(s.next)
	}
}

func (s *source) Update() {
	s.out.Update()
	s.act.Rest(s)
}

func (s *source) Quiescent() bool { return s.quiet }

func (s *source) Credit(evals, updates int64) {
	s.evals += evals
	s.out.Idle(updates)
}

func (s *source) Activity() *Activity { return &s.act }

// popper builds a component that takes one entry from f on each listed
// cycle of clk — the oldest by Pop, or the second by RemoveAt when inner is
// set — logging what it took and the FIFO's committed length.
func popper(clk *Clock, f *Fifo[int], log *[]string, inner bool, at ...int64) Clocked {
	return &ClockedFunc{OnEval: func() {
		for _, c := range at {
			if clk.Cycles() != c {
				continue
			}
			v := 0
			if inner {
				v = f.RemoveAt(1)
			} else {
				v = f.Pop()
			}
			*log = append(*log, fmt.Sprintf("took %d len %d @%d", v, f.Len(), c))
		}
	}}
}

// TestPopWakesOwningProducer pins the producer wake: a pop from a full FIFO
// wakes the producer sleeping on it, whose Update commits the pop on the
// same edge — whether the popper evaluates before or after it — and the
// next value goes in exactly when an always-awake producer pushes it. A
// RemoveAt frees its slot during the Eval phase, so a producer evaluated
// after the remover pushes into it on the same edge.
func TestPopWakesOwningProducer(t *testing.T) {
	for _, inner := range []bool{false, true} {
		for _, popperFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("removeAt=%v/popperFirst=%v", inner, popperFirst), func(t *testing.T) {
				run := func(awake bool) ([]string, *source) {
					k := NewKernel()
					c := k.NewClockPeriodPS("c", 1000)
					s := newSource(2)
					if awake {
						s.act.Pin()
					}
					var log []string
					p := popper(c, s.out, &log, inner, 10, 30)
					if popperFirst {
						c.Register(p)
						c.Register(s)
					} else {
						c.Register(s)
						c.Register(p)
					}
					for c.Cycles() < 40 {
						k.Step()
						if c.Cycles() == 10 && !awake && !s.act.Asleep() {
							t.Fatal("producer of a full FIFO did not fall asleep")
						}
						// The committed state after every edge: a pop the
						// sleeping producer failed to commit shows here.
						log = append(log, fmt.Sprintf("len %d last %d", s.out.Len(), s.out.PeekAt(s.out.Len()-1)))
					}
					k.Settle()
					return log, s
				}
				want, ws := run(true)
				got, gs := run(false)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sleeping producer:\n%v\nawake producer:\n%v", got, want)
				}
				if gs.evals != ws.evals || gs.out.Stats() != ws.out.Stats() {
					t.Fatalf("settled producer evals %d stats %+v, awake %d %+v", gs.evals, gs.out.Stats(), ws.evals, ws.out.Stats())
				}
			})
		}
	}
}

// watcher is a test Sleeper waiting on state shared outside any FIFO: it
// sleeps while the gate is closed, and whoever opens the gate wakes it.
type watcher struct {
	clk   *Clock
	gate  *bool
	log   *[]string
	evals int64
	quiet bool
	act   Activity
}

func (w *watcher) Eval() {
	w.evals++
	w.quiet = !*w.gate
	if *w.gate {
		*w.log = append(*w.log, fmt.Sprintf("saw gate @%d", w.clk.Cycles()))
		*w.gate = false
	}
}

func (w *watcher) Update()               { w.act.Rest(w) }
func (w *watcher) Quiescent() bool       { return w.quiet }
func (w *watcher) Credit(evals, _ int64) { w.evals += evals }
func (w *watcher) Activity() *Activity   { return &w.act }

// TestPreciseMidEdgeWake pins the sweep rule of Activity.Wake: a wake that
// arrives before the sweep reaches the woken slot in this instant lets it
// evaluate on this edge, and one that arrives after skips only its Eval.
// Either way the watcher sees the opened gate on the edge an always-awake
// watcher sees it, and its settled evaluation count is the awake one. The
// opener sits on the watcher's clock, before or after it, or on a second
// clock firing in the same instants, sorted before or after it.
func TestPreciseMidEdgeWake(t *testing.T) {
	cases := []struct {
		name      string
		openerClk string // "" shares the watcher's clock "w"
		first     bool   // the opener registers before the watcher
	}{
		{"same-clock/before", "", true},
		{"same-clock/after", "", false},
		{"other-clock/before", "a", false},
		{"other-clock/after", "z", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(awake bool) ([]string, int64, EvalCount) {
				k := NewKernel()
				wc := k.NewClockPeriodPS("w", 2000)
				oc := wc
				if tc.openerClk != "" {
					oc = k.NewClockPeriodPS(tc.openerClk, 1000)
				}
				var log []string
				gate := false
				w := &watcher{clk: wc, gate: &gate, log: &log}
				if awake {
					w.act.Pin()
				}
				opener := &ClockedFunc{OnEval: func() {
					if n := oc.Cycles(); n == 20 || n == 21 || n == 50 {
						gate = true
						w.act.Wake()
					}
				}}
				if tc.first {
					wc.Register(opener)
					wc.Register(w)
				} else {
					wc.Register(w)
					oc.Register(opener)
				}
				k.RunUntil(80_000)
				k.Settle()
				return log, w.evals, k.EvalCounts()[0]
			}
			want, wantEvals, _ := run(true)
			got, gotEvals, ec := run(false)
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("sleeping watcher %v, awake watcher %v", got, want)
			}
			if gotEvals != wantEvals {
				t.Fatalf("settled watcher evals = %d, awake %d", gotEvals, wantEvals)
			}
			if ec.Skipped == 0 {
				t.Fatalf("the watcher never slept: %+v", ec)
			}
		})
	}
}

// counted wraps a component, hiding any Sleeper methods, and counts the
// calls the kernel makes to it.
type counted struct {
	Clocked
	evals, updates int
}

func (c *counted) Eval()   { c.evals++; c.Clocked.Eval() }
func (c *counted) Update() { c.updates++; c.Clocked.Update() }

// TestWrapperSleepsWithInnerSleeper pins sleep by slot: a Sleeper taken off
// its clock and registered again behind a wrapper puts the wrapper's slot
// to sleep, so the kernel calls neither the wrapper's Eval nor its Update
// while the Sleeper sleeps, and a push wakes the slot.
func TestWrapperSleepsWithInnerSleeper(t *testing.T) {
	k := NewKernel()
	c := k.NewClockPeriodPS("c", 1000)
	var log []string
	s := newSink("s", c, &log, nil)
	c.Register(s)
	w := &counted{Clocked: c.TakeComponents()[0]}
	c.Register(w)
	k.RunCycles(c, 5)
	if !s.act.Asleep() || w.evals != 1 || w.updates != 1 {
		t.Fatalf("after 5 idle edges: asleep=%v, wrapper called %d/%d times, want asleep after 1/1",
			s.act.Asleep(), w.evals, w.updates)
	}
	c.Register(&ClockedFunc{OnEval: func() {
		if c.Cycles() == 10 {
			s.in.Push(1)
		}
	}})
	k.RunCycles(c, 10)
	k.Settle()
	if want := []string{"s:1@11"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	// Edge 0 ran and rested; edge 10 ran only the Update (the push came
	// after the sweep); edge 11 popped and rested.
	if w.evals != 2 || w.updates != 3 || s.evals != 15 {
		t.Fatalf("wrapper called %d/%d times, sink evals %d; want 2/3 and 15", w.evals, w.updates, s.evals)
	}
	// The slot counts as able to sleep from its first sleep on.
	if ec := k.EvalCounts()[0]; ec.SleeperRun != 1 {
		t.Fatalf("sleeper evaluations = %d, want 1 (edge 11): %+v", ec.SleeperRun, ec)
	}
}
