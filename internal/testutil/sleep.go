package testutil

import (
	"bytes"
	"testing"

	"mpsocsim/internal/sim"
	"mpsocsim/internal/snapshot"
)

// Rig is one instance of a testbench for CheckSleepContract: its kernel, the
// components under test with the clocks they are registered on, and a
// function serializing their state.
type Rig struct {
	Kernel *sim.Kernel
	Comps  []sim.Sleeper
	Clocks []*sim.Clock // Clocks[i] is Comps[i]'s clock
	Encode func(*snapshot.Encoder)
	// Done reports that the rig's workload has drained.
	Done func() bool
	// Sleeping, when set, reports that the rig is in the sleep state the
	// test targets — a component asleep while blocked in a particular way
	// — and the check requires k steps in a row of it mid-run instead of
	// k steps of any component asleep.
	Sleeping func() bool
}

// hidden exposes only Eval and Update, as a wrapper registered in a
// component's place does: the component then sleeps in the wrapper's slot.
type hidden struct{ sim.Clocked }

func (r *Rig) state() []byte {
	e := snapshot.NewEncoder()
	r.Encode(e)
	return e.Bytes()
}

// CheckSleepContract checks components against the sleep contract
// (sim.Sleeper): whenever they are quiescent, k more Eval+Update calls and
// a k-cycle sleep followed by a wake leave byte-identical EncodeState
// output. build must return identical, deterministic rigs.
//
// Three rigs run in lockstep until the awake one drains: one with its
// components pinned awake, one with them registered directly, and one with
// them re-registered behind a wrapper, sleeping in its slot. After every
// step the sleeping rig is settled and all three states must match. At
// least one component must sleep k cycles in a row mid-run (or the rig
// stay k steps in its Sleeping state). Once drained, the
// sleeping rigs step until each component's clock has advanced at least k
// cycles and are woken, the awake rig's components get one direct
// Eval+Update call per cycle their clock advanced, and the states must
// match again.
func CheckSleepContract(t *testing.T, k, maxSteps int, build func() *Rig) {
	t.Helper()
	ra, rs, rw := build(), build(), build()
	for _, c := range ra.Comps {
		c.Activity().Pin()
	}
	wrap := map[sim.Clocked]bool{}
	for _, c := range rw.Comps {
		wrap[c] = true
	}
	for _, clk := range rw.Kernel.Clocks() {
		for _, c := range clk.TakeComponents() {
			if wrap[c] {
				c = hidden{c}
			}
			clk.Register(c)
		}
	}
	compare := func(when string, step int) {
		t.Helper()
		a := ra.state()
		if s := rs.state(); !bytes.Equal(a, s) {
			t.Fatalf("%s (step %d): kernel-slept state differs from awake state", when, step)
		}
		if w := rw.state(); !bytes.Equal(a, w) {
			t.Fatalf("%s (step %d): wrapper-slept state differs from awake state", when, step)
		}
	}
	streak := make([]int, len(rs.Comps))
	longest, step := 0, 0
	for ; step < maxSteps && !ra.Done(); step++ {
		ra.Kernel.Step()
		rs.Kernel.Step()
		rw.Kernel.Step()
		for _, c := range rs.Comps {
			c.Activity().Settle()
		}
		for i, c := range rs.Comps {
			if rs.Sleeping != nil && rs.Sleeping() || rs.Sleeping == nil && c.Activity().Asleep() {
				streak[i]++
				longest = max(longest, streak[i])
			} else {
				streak[i] = 0
			}
		}
		compare("mid-run", step)
	}
	if !ra.Done() {
		t.Fatalf("rig did not drain in %d steps", maxSteps)
	}
	if longest < k {
		t.Fatalf("no component slept %d steps in a row mid-run in the targeted state (longest %d)", k, longest)
	}
	start := make([]int64, len(rs.Clocks))
	for i, clk := range rs.Clocks {
		start[i] = clk.Cycles()
	}
	for i := range rs.Clocks {
		for rs.Clocks[i].Cycles()-start[i] < int64(k) {
			rs.Kernel.Step()
			rw.Kernel.Step()
		}
	}
	for i, c := range rs.Comps {
		if !c.Activity().Asleep() || !rw.Comps[i].Activity().Asleep() {
			t.Fatalf("%T woke with no input", c)
		}
		c.Activity().Wake()
		rw.Comps[i].Activity().Wake()
		for n := rs.Clocks[i].Cycles() - start[i]; n > 0; n-- {
			ra.Comps[i].Eval()
			ra.Comps[i].Update()
		}
	}
	compare("drained", step)
}
