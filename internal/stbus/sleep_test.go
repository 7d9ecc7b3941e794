package stbus

import (
	"fmt"
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/mem"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/testutil"
)

// TestNodeSleepContract drives a two-initiator node against a slow memory
// and checks the sleep contract (testutil.CheckSleepContract) on the node.
func TestNodeSleepContract(t *testing.T) {
	build := func() *testutil.Rig {
		k := sim.NewKernel()
		clk := k.NewClock("clk", 250)
		node := NewNode("n0", Config{Type: Type2, MaxOutstanding: 2, MessageArbitration: true, BytesPerBeat: 8}, bus.Single(0))
		m := mem.New("mem", mem.Config{WaitStates: 12, ReqDepth: 2, RespDepth: 4})
		var inis []*testutil.Scripted
		for i := 0; i < 2; i++ {
			var script []*bus.Request
			for j := 0; j < 8; j++ {
				id, addr := uint64(i*100+j+1), uint64(j)<<6
				r := testutil.Read(id, addr, 4, 8)
				if j%3 == 2 {
					r = testutil.Write(id, addr, 2, 8, j%2 == 0)
				}
				r.MsgEnd = j%2 == 1
				script = append(script, r)
			}
			ini := testutil.NewScripted(fmt.Sprintf("i%d", i), clk, script)
			node.AttachInitiator(ini.Port)
			inis = append(inis, ini)
		}
		node.AttachTarget(m.Port())
		for _, ini := range inis {
			clk.Register(ini)
		}
		clk.Register(node)
		clk.Register(m)
		return &testutil.Rig{
			Kernel: k,
			Comps:  []sim.Sleeper{node},
			Clocks: []*sim.Clock{clk},
			Encode: node.EncodeState,
			Done:   func() bool { return inis[0].Done() && inis[1].Done() },
		}
	}
	testutil.CheckSleepContract(t, 8, 100_000, build)
}
