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

// TestStalledNodeSleepContract drives one initiator into a slow memory with
// a one-entry input FIFO, so the node stalls on the full target with the
// same grant edge after edge, and checks the sleep contract in that state:
// the grant stalls of the slept edges are credited. With message
// arbitration the stalled grant is held by an open message lock.
func TestStalledNodeSleepContract(t *testing.T) {
	for _, msg := range []bool{false, true} {
		t.Run(fmt.Sprintf("msgLock=%v", msg), func(t *testing.T) {
			build := func() *testutil.Rig {
				k := sim.NewKernel()
				clk := k.NewClock("clk", 250)
				node := NewNode("n0", Config{Type: Type3, MaxOutstanding: 8, MessageArbitration: msg, BytesPerBeat: 8}, bus.Single(0))
				m := mem.New("mem", mem.Config{WaitStates: 12, ReqDepth: 1, RespDepth: 4})
				var script []*bus.Request
				for j := 0; j < 16; j++ {
					r := testutil.Read(uint64(j+1), uint64(j)<<6, 2, 8)
					r.MsgEnd = j%4 == 3
					script = append(script, r)
				}
				ini := testutil.NewScripted("i0", clk, script)
				node.AttachInitiator(ini.Port)
				node.AttachTarget(m.Port())
				clk.Register(ini)
				clk.Register(node)
				clk.Register(m)
				return &testutil.Rig{
					Kernel: k,
					Comps:  []sim.Sleeper{node},
					Clocks: []*sim.Clock{clk},
					Encode: node.EncodeState,
					Done:   ini.Done,
					Sleeping: func() bool {
						locked := node.reqCh[0].msgLock >= 0
						return node.act.Asleep() && !m.Port().Req.CanPush() && ini.Port.Req.CanPop() && locked == msg
					},
				}
			}
			testutil.CheckSleepContract(t, 4, 100_000, build)
		})
	}
}
