package dspcore

import (
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/mem"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/stbus"
	"mpsocsim/internal/testutil"
)

// TestRefillWaitSleepContract runs a cache-missing stream kernel against a
// slow memory, so the core sleeps while it waits for each refill and after
// it halts, and checks the sleep contract: the cycles and stall cycles of
// the slept edges are credited.
func TestRefillWaitSleepContract(t *testing.T) {
	build := func() *testutil.Rig {
		k := sim.NewKernel()
		clk := k.NewClock("cpu", 400)
		core := MustNew(DefaultConfig("st220"), StreamKernel(0x1000, 0x200000, 20, 32), clk, &bus.IDSource{}, 0)
		node := stbus.NewNode("n", stbus.Config{Type: stbus.Type3, BytesPerBeat: 4}, bus.Single(0))
		m := mem.New("mem", mem.Config{WaitStates: 20, ReqDepth: 2, RespDepth: 4})
		node.AttachInitiator(core.Port())
		node.AttachTarget(m.Port())
		clk.Register(core)
		clk.Register(node)
		clk.Register(m)
		return &testutil.Rig{
			Kernel: k,
			Comps:  []sim.Sleeper{core},
			Clocks: []*sim.Clock{clk},
			Encode: core.EncodeState,
			// Posted write-backs may still be in flight at the halt.
			Done:     func() bool { return core.Halted() && core.port.Req.Len() == 0 },
			Sleeping: func() bool { return core.act.Asleep() && core.refillWait },
		}
	}
	testutil.CheckSleepContract(t, 8, 100_000, build)
}
