package bridge

import (
	"testing"

	"mpsocsim/internal/bus"
	"mpsocsim/internal/mem"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/testutil"
)

// TestSideSleepContract drives a clock-crossing bridge against a slow memory
// and checks the sleep contract (testutil.CheckSleepContract) on both sides,
// for the split converter and the blocking lightweight bridge.
func TestSideSleepContract(t *testing.T) {
	for name, cfg := range map[string]Config{"genconv": GenConv(2), "lightweight": Lightweight(1)} {
		t.Run(name, func(t *testing.T) {
			build := func() *testutil.Rig {
				var script []*bus.Request
				for j := 0; j < 12; j++ {
					id, addr := uint64(j+1), uint64(j)<<6
					switch j % 3 {
					case 0:
						script = append(script, wrn(id, addr, 2))
					case 1:
						script = append(script, testutil.Write(id, addr, 2, 8, true))
					default:
						script = append(script, rd(id, addr, 4))
					}
				}
				c := newChain(t, cfg, 200, 250, mem.Config{WaitStates: 15, ReqDepth: 2, RespDepth: 4}, script)
				return &testutil.Rig{
					Kernel: c.k,
					Comps:  []sim.Sleeper{c.br.TargetSide, c.br.InitiatorSide},
					Clocks: []*sim.Clock{c.srcClk, c.dstClk},
					Encode: c.br.EncodeState,
					Done:   c.ini.Done,
				}
			}
			testutil.CheckSleepContract(t, 8, 100_000, build)
		})
	}
}
