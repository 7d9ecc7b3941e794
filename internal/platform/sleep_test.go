package platform_test

import (
	"bytes"
	"fmt"
	"testing"

	"mpsocsim/internal/diff"
	"mpsocsim/internal/platform"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/telemetry"
)

// keepAwake pins every sleep-capable component of the platform awake: the
// platform then evaluates every component on every edge, the reference the
// activity-driven kernel must reproduce.
func keepAwake(p *platform.Platform) {
	for _, clk := range p.Kernel.Clocks() {
		comps := clk.TakeComponents()
		for _, c := range comps {
			if s, ok := c.(sim.Sleeper); ok {
				s.Activity().Pin()
			}
			clk.Register(c)
		}
	}
}

// hidden exposes only Eval and Update, hiding the Sleeper methods.
type hidden struct{ sim.Clocked }

// hideSleep re-registers every component behind hidden, in registration
// order, as perfbench's traced probes do: the components then sleep in the
// wrappers' slots.
func hideSleep(p *platform.Platform) {
	for _, clk := range p.Kernel.Clocks() {
		for _, c := range clk.TakeComponents() {
			clk.Register(hidden{c})
		}
	}
}

// equivSpecs are the golden-cycle-count specs (the I/O variant included).
func equivSpecs() map[string]platform.Spec {
	mk := func(proto platform.Protocol, topo platform.Topology, m platform.MemoryKind, io bool) platform.Spec {
		s := platform.DefaultSpec()
		s.Protocol, s.Topology, s.Memory = proto, topo, m
		s.WorkloadScale = 0.2
		s.DSPIterations = 100
		s.IO.Enable = io
		return s
	}
	return map[string]platform.Spec{
		"stbus-distributed-lmi":    mk(platform.STBus, platform.Distributed, platform.LMIDDR, false),
		"ahb-distributed-onchip":   mk(platform.AHB, platform.Distributed, platform.OnChip, false),
		"axi-collapsed-lmi":        mk(platform.AXI, platform.Collapsed, platform.LMIDDR, false),
		"stbus-distributed-lmi-io": mk(platform.STBus, platform.Distributed, platform.LMIDDR, true),
	}
}

// TestSleepingMatchesAwake runs each spec three times in lockstep — as
// built, with idle and blocked components sleeping; with every component
// behind a wrapper that hides its Sleeper methods, so components sleep in
// the wrappers' slots; and with every component pinned awake — and requires
// byte-identical snapshots every 1024 central cycles and byte-identical
// final reports. The I/O spec also runs with attribution and telemetry on,
// and its telemetry streams must be byte-identical too. On a mismatch the
// snapshot bisection localizes the first divergent cycle against the awake
// run.
func TestSleepingMatchesAwake(t *testing.T) {
	const every, budget = 1024, 5e12
	for name, spec := range equivSpecs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			build := func() *platform.Platform {
				p := platform.MustBuild(spec)
				if spec.IO.Enable {
					p.EnableAttribution(0)
					p.EnableTelemetry(256, 1<<14)
				}
				return p
			}
			pa := build()
			keepAwake(pa)
			ps := build()
			ph := build()
			hideSleep(ph)
			runs := []struct {
				name string
				p    *platform.Platform
				prep func(*platform.Platform)
			}{{"kernel-slept", ps, func(*platform.Platform) {}}, {"wrapper-slept", ph, hideSleep}}
			bisect := func(what string, prep func(*platform.Platform)) {
				res, err := diff.Bisect(spec, spec, diff.BisectOptions{
					GridEvery: every,
					Prepare: func(variant int, p *platform.Platform) {
						if variant == 0 {
							keepAwake(p)
						} else {
							prep(p)
						}
					},
				})
				if err != nil {
					t.Fatalf("%s differ; bisect failed: %v", what, err)
				}
				// DivergedAt -1: the instruments agree throughout, so the
				// difference is in state no counter or gauge reads.
				t.Fatalf("%s differ; bisect: diverged at cycle %d (last agreement %d), counters %+v",
					what, res.DivergedAt, res.AgreeCycle, res.FirstCounters)
			}
			snap := func(p *platform.Platform) []byte {
				var b bytes.Buffer
				if err := p.Snapshot(&b); err != nil {
					t.Fatal(err)
				}
				return b.Bytes()
			}
			for c := int64(every); ; c += every {
				more := pa.RunToCycle(c, budget)
				want := snap(pa)
				for _, r := range runs {
					if r.p.RunToCycle(c, budget) != more || !bytes.Equal(snap(r.p), want) {
						bisect(fmt.Sprintf("%s and awake snapshots at cycle %d", r.name, c), r.prep)
					}
				}
				if !more {
					break
				}
			}
			report := func(p *platform.Platform) []byte {
				var b bytes.Buffer
				if err := p.Run(budget).WriteJSON(&b); err != nil {
					t.Fatal(err)
				}
				return b.Bytes()
			}
			want := report(pa)
			for _, r := range runs {
				if !bytes.Equal(report(r.p), want) {
					bisect(r.name+" and awake final reports", r.prep)
				}
			}
			if pa.Telemetry() != nil {
				want := ndjson(t, pa)
				for _, r := range runs {
					if !bytes.Equal(ndjson(t, r.p), want) {
						bisect(r.name+" and awake telemetry streams", r.prep)
					}
				}
			}
			for _, r := range runs {
				var skipped int64
				for _, ec := range r.p.Kernel.EvalCounts() {
					skipped += ec.Skipped
				}
				if skipped == 0 {
					t.Fatalf("the %s run skipped no evaluation", r.name)
				}
			}
		})
	}
}

// ndjson renders every telemetry record p collected as NDJSON bytes.
func ndjson(t *testing.T, p *platform.Platform) []byte {
	t.Helper()
	var b bytes.Buffer
	s := telemetry.NewStreamer(&b, p.Telemetry())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Skipped() != 0 || b.Len() == 0 {
		t.Fatalf("telemetry stream lost %d records (%d bytes kept)", s.Skipped(), b.Len())
	}
	return b.Bytes()
}

// TestEvalCountsReference pins the kernel's evaluation tally for the
// reference spec at scale 1. The counts are deterministic; a change to
// them means the scheduling changed. Components able to sleep — STBus
// nodes, bridge sides, IPTGs and the DSP core on this platform — must skip
// at least 75% of their evaluations, and the kernel may run at most 600,000
// evaluations in all.
func TestEvalCountsReference(t *testing.T) {
	s := platform.DefaultSpec()
	s.WorkloadScale = 1
	p := platform.MustBuild(s)
	if r := p.Run(5e12); !r.Done {
		t.Fatal("reference run did not drain")
	}
	want := []sim.EvalCount{
		{Clock: "central", Run: 180931, Skipped: 289549, SleeperRun: 122121},
		{Clock: "n1_decrypt", Run: 22415, Skipped: 94735, SleeperRun: 22415},
		{Clock: "n2_decode", Run: 24393, Skipped: 116751, SleeperRun: 24393},
		{Clock: "n3_audio", Run: 13318, Skipped: 111826, SleeperRun: 13318},
		{Clock: "n4_resize", Run: 13407, Skipped: 103743, SleeperRun: 13407},
		{Clock: "n5_dma", Run: 94215, Skipped: 199835, SleeperRun: 94215},
		{Clock: "cpu", Run: 26671, Skipped: 255617, SleeperRun: 26671},
	}
	got := p.Kernel.EvalCounts()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("eval counts drifted:\ngot  %+v\nwant %+v", got, want)
	}
	var run, skipped, sleeperRun int64
	for _, ec := range got {
		run += ec.Run
		skipped += ec.Skipped
		sleeperRun += ec.SleeperRun
	}
	if frac := float64(skipped) / float64(skipped+sleeperRun); frac < 0.75 {
		t.Fatalf("sleep-capable components skipped %.1f%% of their evaluations, want >= 75%%", 100*frac)
	}
	if run > 600_000 {
		t.Fatalf("the kernel ran %d evaluations, want <= 600000", run)
	}
}
