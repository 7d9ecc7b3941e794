package iptg

import (
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/mem"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/stbus"
	"mpsocsim/internal/testutil"
)

// TestGeneratorSleepContract drives a generator whose agents block on their
// outstanding windows, count gaps and wait on a sync agent, against a slow
// memory, and checks the sleep contract (testutil.CheckSleepContract).
func TestGeneratorSleepContract(t *testing.T) {
	cfg := Config{
		Name: "ip",
		Agents: []AgentConfig{
			{Name: "rd", Phases: onePhase(20, 3, 2, 8, 0.8), Outstanding: 2},
			{Name: "wr", Phases: onePhase(10, 0, 1, 4, 0.2), Outstanding: 1, PostedWrites: true, MsgLen: 2},
			{Name: "dep", Phases: onePhase(6, 1, 4, 4, 1), After: "rd", AfterCount: 12},
		},
		Seed: 3,
	}
	build := func() *testutil.Rig {
		k := sim.NewKernel()
		clk := k.NewClock("clk", 250)
		g := MustNew(cfg, clk, &bus.IDSource{}, 7)
		node := stbus.NewNode("n", stbus.DefaultConfig(), bus.Single(0))
		m := mem.New("mem", mem.Config{WaitStates: 15, ReqDepth: 2, RespDepth: 4})
		node.AttachInitiator(g.Port())
		node.AttachTarget(m.Port())
		clk.Register(g)
		clk.Register(node)
		clk.Register(m)
		return &testutil.Rig{
			Kernel: k,
			Comps:  []sim.Sleeper{g},
			Clocks: []*sim.Clock{clk},
			Encode: g.EncodeState,
			Done:   g.Done,
		}
	}
	testutil.CheckSleepContract(t, 8, 100_000, build)
}

// TestFullPortSleepContract drives a generator whose agents outrun a slow
// memory behind a shallow request FIFO, so it sleeps on a full port while
// gaps count down, and checks the sleep contract in that state: the slept
// gap cycles are credited in closed form.
func TestFullPortSleepContract(t *testing.T) {
	cfg := Config{
		Name: "ip",
		Agents: []AgentConfig{
			{Name: "a", Phases: onePhase(24, 6, 2, 4, 0.7), Outstanding: 8},
			{Name: "b", Phases: onePhase(24, 9, 1, 2, 0.5), Outstanding: 8},
		},
		PortReqDepth: 2,
		Seed:         5,
	}
	build := func() *testutil.Rig {
		k := sim.NewKernel()
		clk := k.NewClock("clk", 250)
		g := MustNew(cfg, clk, &bus.IDSource{}, 7)
		node := stbus.NewNode("n", stbus.DefaultConfig(), bus.Single(0))
		m := mem.New("mem", mem.Config{WaitStates: 40, ReqDepth: 1, RespDepth: 4})
		node.AttachInitiator(g.Port())
		node.AttachTarget(m.Port())
		clk.Register(g)
		clk.Register(node)
		clk.Register(m)
		return &testutil.Rig{
			Kernel: k,
			Comps:  []sim.Sleeper{g},
			Clocks: []*sim.Clock{clk},
			Encode: g.EncodeState,
			Done:   g.Done,
			Sleeping: func() bool {
				counting := false
				for _, a := range g.agents {
					counting = counting || a.gapLeft > 0
				}
				return g.act.Asleep() && !g.port.Req.CanPush() && counting
			},
		}
	}
	testutil.CheckSleepContract(t, 4, 100_000, build)
}
