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

// TestBlockedSideSleepContract checks the sleep contract in the two
// backpressure states of a split bridge: the initiator side with its
// matured head blocked on a full downstream request FIFO (reads into a
// slow memory), and the target side with acceptance blocked by a full
// outstanding window (non-posted writes), which retireWrite wakes; the
// blocked cycles of its slept edges are credited.
func TestBlockedSideSleepContract(t *testing.T) {
	cases := map[string]struct {
		cfg      func() Config
		req      func(id, addr uint64) *bus.Request
		sleeping func(b *Bridge) bool
	}{
		"initiator-full-port": {
			cfg: func() Config { return GenConv(1) },
			req: func(id, addr uint64) *bus.Request { return rd(id, addr, 4) },
			sleeping: func(b *Bridge) bool {
				return b.InitiatorSide.act.Asleep() && len(b.held) > 0 && !b.iport.Req.CanPush()
			},
		},
		"target-outstanding-window": {
			cfg: func() Config {
				c := GenConv(1)
				c.MaxOutstanding = 2
				return c
			},
			req: func(id, addr uint64) *bus.Request { return wrn(id, addr, 2) },
			sleeping: func(b *Bridge) bool {
				return b.TargetSide.act.Asleep() && b.outstanding >= b.cfg.MaxOutstanding && b.tport.Req.CanPop()
			},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			build := func() *testutil.Rig {
				var script []*bus.Request
				for j := 0; j < 16; j++ {
					script = append(script, tc.req(uint64(j+1), uint64(j)<<6))
				}
				c := newChain(t, tc.cfg(), 250, 250, mem.Config{WaitStates: 20, ReqDepth: 1, RespDepth: 4}, script)
				return &testutil.Rig{
					Kernel: c.k,
					Comps:  []sim.Sleeper{c.br.TargetSide, c.br.InitiatorSide},
					Clocks: []*sim.Clock{c.srcClk, c.dstClk},
					Encode: c.br.EncodeState,
					// Writes are acknowledged upstream at acceptance, so
					// the bridge drains after the initiator.
					Done:     func() bool { return c.ini.Done() && c.br.Outstanding() == 0 },
					Sleeping: func() bool { return tc.sleeping(c.br) },
				}
			}
			testutil.CheckSleepContract(t, 4, 100_000, build)
		})
	}
}
