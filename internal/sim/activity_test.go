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
}

func (s *sink) Quiescent() bool { return s.in.Len() == 0 && (s.ain == nil || s.ain.Empty()) }

func (s *sink) Credit(evals, updates int64) {
	s.evals += evals
	s.in.Idle(updates)
}

func (s *sink) Activity() *Activity { return &s.act }

// hidden wraps a component behind the bare Clocked interface, hiding any
// Sleeper methods, so the kernel keeps it awake.
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
