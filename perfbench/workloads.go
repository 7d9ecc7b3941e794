package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"mpsocsim/internal/experiments"
	"mpsocsim/internal/platform"
	"mpsocsim/internal/tracecap"
)

// opOut is what one op reports back: host time of its phases and what it
// simulated. err is set when the op failed its output check.
type opOut struct {
	runNs     int64 // run phase (RunToCycle + Run); the whole op for onchip_fabrics
	buildNs   int64
	reportNs  int64
	saveNs    int64
	restoreNs int64
	cycles    int64 // central-clock cycles simulated
	edges     int64 // clock edges of every domain
	chip      chipCounts
	err       error
}

func (o *opOut) fail(err error) opOut {
	if o.err == nil {
		o.err = err
	}
	return *o
}

// workload is one closed-loop benchmark workload.
type workload interface {
	// prepare derives the op inputs from the seed and runs the warm-up op,
	// whose outputs become the reference every later op must match. With
	// traced set it also records what the traced instances must reproduce.
	prepare(seed uint64, traced bool) error
	// op runs one end-to-end op.
	op(sp *spanLog) opOut
	// instances builds and runs the op's platforms directly, behind t's
	// probes when t is non-nil. For ref_lmi and io_observed this is the op
	// itself; for onchip_fabrics it is the five Fig3 platforms without the
	// sweep machinery around them.
	instances(sp *spanLog, t *tracer) opOut
	// observerRound runs one paired round of single-observer runs against a
	// bare run and returns each observer's run-phase ratio to the bare one
	// (nil for workloads without observers).
	observerRound() (map[string]float64, error)
}

// specSeed derives a run's Spec.Seed from the benchmark seed (splitmix64).
func specSeed(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ref_lmi":
		return &refLMI{scale: 1}, nil
	case "onchip_fabrics":
		return &onchipFabrics{scale: 0.2}, nil
	case "io_observed":
		return &ioObserved{scale: 0.4}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ref_lmi, onchip_fabrics or io_observed)", name)
}

// refLMI is the memory-subsystem workload: the paper's reference platform
// (distributed STBus, LMI+DDR, DSP interference). One op is Build, Run and
// Report.
type refLMI struct {
	scale float64
	spec  platform.Spec
	ref   uint64
	rep   platform.Report // the last op's report, kept so rendering it is part of the op
}

func (w *refLMI) prepare(seed uint64, _ bool) error {
	w.spec = platform.DefaultSpec()
	w.spec.WorkloadScale = w.scale
	w.spec.Seed = specSeed(seed)
	o := w.instances(newSpanLog(false), nil)
	return o.err
}

func (w *refLMI) op(sp *spanLog) opOut { return w.instances(sp, nil) }

func (w *refLMI) instances(sp *spanLog, t *tracer) opOut {
	var o opOut
	start := time.Now()
	p, err := platform.Build(w.spec)
	o.buildNs = sp.rec("platform.build", start)
	if err != nil {
		return o.fail(err)
	}
	if t != nil {
		t.wrap(p.Kernel)
	}
	start = time.Now()
	r := p.Run(experiments.Budget)
	o.runNs = sp.rec("platform.run", start)
	start = time.Now()
	w.rep = r.Report()
	o.reportNs = sp.rec("platform.report", start)
	o.cycles, o.edges = r.CentralCycles, edgesOf(p.Kernel)
	if sp.on {
		o.chip.add(p, r)
	}
	if err := checkResult(r); err != nil {
		return o.fail(err)
	}
	d := digestResult(r)
	if w.ref == 0 {
		w.ref = d
	} else if d != w.ref {
		return o.fail(fmt.Errorf("ref_lmi digest %#x != reference %#x", d, w.ref))
	}
	return o
}

func (w *refLMI) observerRound() (map[string]float64, error) { return nil, nil }

// onchipFabrics is the communication-subsystem workload: one op regenerates
// the paper's Fig.3 (on-chip memory; STBus, AHB and AXI, collapsed and
// full) serially.
type onchipFabrics struct {
	scale   float64
	opts    experiments.Options
	specs   []platform.Spec
	ref     uint64   // digest of the Fig3 cycle column
	cycles  []int64  // Fig3 cycle column of the reference op
	instRef []uint64 // per-instance digests of the directly run platforms
}

// fig3Instances mirrors the platform instances experiments.Fig3 builds, in
// its entry order.
var fig3Instances = []struct {
	proto platform.Protocol
	topo  platform.Topology
}{
	{platform.AXI, platform.Collapsed},
	{platform.STBus, platform.Collapsed},
	{platform.STBus, platform.Distributed},
	{platform.AHB, platform.Distributed},
	{platform.AXI, platform.Distributed},
}

func (w *onchipFabrics) prepare(seed uint64, traced bool) error {
	w.opts = experiments.Options{Scale: w.scale, Seed: specSeed(seed), Workers: 1}
	w.specs = w.specs[:0]
	for _, in := range fig3Instances {
		s := platform.DefaultSpec()
		s.WorkloadScale, s.Seed = w.opts.Scale, w.opts.Seed
		s.Protocol, s.Topology, s.Memory = in.proto, in.topo, platform.OnChip
		w.specs = append(w.specs, s)
	}
	sp := newSpanLog(false)
	if o := w.op(sp); o.err != nil {
		return o.err
	}
	if traced {
		return w.instances(sp, nil).err
	}
	return nil
}

func (w *onchipFabrics) op(sp *spanLog) opOut {
	var o opOut
	start := time.Now()
	s, err := experiments.Fig3(w.opts)
	o.runNs = sp.rec("experiments.fig3", start)
	if err != nil {
		return o.fail(err)
	}
	if len(s.Entries) != len(fig3Instances) {
		return o.fail(fmt.Errorf("fig3 returned %d entries, want %d", len(s.Entries), len(fig3Instances)))
	}
	d := newDigester()
	cycles := make([]int64, len(s.Entries))
	for i, e := range s.Entries {
		d.str(e.Name)
		d.num(e.Cycles)
		cycles[i] = e.Cycles
		o.cycles += e.Cycles
	}
	if w.ref == 0 {
		w.ref, w.cycles = d.sum(), cycles
	} else if d.sum() != w.ref {
		return o.fail(fmt.Errorf("fig3 digest %#x != reference %#x (cycles %v, reference %v)", d.sum(), w.ref, cycles, w.cycles))
	}
	return o
}

func (w *onchipFabrics) instances(sp *spanLog, t *tracer) opOut {
	var o opOut
	record := w.instRef == nil
	for i, spec := range w.specs {
		start := time.Now()
		p, err := platform.Build(spec)
		o.buildNs += sp.rec("platform.build", start)
		if err != nil {
			return o.fail(err)
		}
		if t != nil {
			t.wrap(p.Kernel)
		}
		start = time.Now()
		r := p.Run(experiments.Budget)
		o.runNs += sp.rec("platform.run", start)
		o.cycles += r.CentralCycles
		o.edges += edgesOf(p.Kernel)
		if sp.on {
			o.chip.add(p, r)
		}
		if err := checkResult(r); err != nil {
			o.fail(err)
			continue
		}
		if r.CentralCycles != w.cycles[i] {
			o.fail(fmt.Errorf("%s ran %d cycles, fig3 reported %d", spec.Name(), r.CentralCycles, w.cycles[i]))
		}
		d := digestResult(r)
		if record {
			w.instRef = append(w.instRef, d)
		} else if d != w.instRef[i] {
			o.fail(fmt.Errorf("%s digest %#x != reference %#x", spec.Name(), d, w.instRef[i]))
		}
	}
	return o
}

func (w *onchipFabrics) observerRound() (map[string]float64, error) { return nil, nil }

// ioObserved is the I/O-subsystem workload: the reference platform with DMA
// descriptor chains, IRQ agents and the heap allocator, observed by
// attribution, timelines, trace capture and telemetry, checkpointed to
// memory at mid-run and restored before it drains.
type ioObserved struct {
	scale float64
	spec  platform.Spec
	mid   int64  // checkpoint cycle: half the uninterrupted run
	ref   uint64 // digest of the uninterrupted observed run
	snap  bytes.Buffer
	out   bytes.Buffer
}

// telemetryEvery is the telemetry snapshot cadence in central cycles.
const telemetryEvery = 1000

// observers names the observers the op attaches, in attach order.
var observers = []string{"attr", "metrics", "tracecap", "telemetry"}

func (w *ioObserved) attach(p *platform.Platform, name string) {
	switch name {
	case "attr":
		p.EnableAttribution(0)
	case "metrics":
		p.EnableTimelines(0, 0)
	case "tracecap":
		p.AttachCapture(tracecap.NewCapture(w.spec.Name(), 0))
	case "telemetry":
		p.EnableTelemetry(telemetryEvery, 0)
	}
}

func (w *ioObserved) prepare(seed uint64, _ bool) error {
	w.spec = platform.DefaultSpec()
	w.spec.WorkloadScale = w.scale
	w.spec.Seed = specSeed(seed)
	w.spec.IO.Enable = true
	p, err := platform.Build(w.spec)
	if err != nil {
		return err
	}
	for _, name := range observers {
		w.attach(p, name)
	}
	r := p.Run(experiments.Budget)
	if err := checkResult(r); err != nil {
		return err
	}
	if len(r.Deadlines) == 0 {
		return fmt.Errorf("io_observed: no deadline rows")
	}
	w.ref, w.mid = digestResult(r), r.CentralCycles/2
	return w.op(newSpanLog(false)).err
}

func (w *ioObserved) op(sp *spanLog) opOut { return w.instances(sp, nil) }

func (w *ioObserved) instances(sp *spanLog, t *tracer) opOut {
	var o opOut
	start := time.Now()
	p, err := platform.Build(w.spec)
	o.buildNs = sp.rec("platform.build", start)
	if err != nil {
		return o.fail(err)
	}
	for _, name := range observers {
		w.attach(p, name)
	}
	if t != nil {
		t.wrap(p.Kernel)
	}
	start = time.Now()
	paused := p.RunToCycle(w.mid, experiments.Budget)
	o.runNs = sp.rec("platform.run_to_cycle", start)
	if !paused {
		return o.fail(fmt.Errorf("io_observed: run ended before checkpoint cycle %d", w.mid))
	}
	w.snap.Reset()
	start = time.Now()
	err = p.Snapshot(&w.snap)
	o.saveNs = sp.rec("snapshot.save", start)
	if err != nil {
		return o.fail(err)
	}
	start = time.Now()
	q, err := platform.Restore(w.spec, bytes.NewReader(w.snap.Bytes()))
	o.restoreNs = sp.rec("snapshot.restore", start)
	if err != nil {
		return o.fail(err)
	}
	col := q.EnableTelemetry(telemetryEvery, 0)
	if t != nil {
		t.wrap(q.Kernel)
	}
	start = time.Now()
	r := q.Run(experiments.Budget)
	o.runNs += sp.rec("platform.run", start)
	w.out.Reset()
	start = time.Now()
	err = r.WriteJSON(&w.out)
	o.reportNs = sp.rec("platform.write_json", start)
	o.cycles, o.edges = r.CentralCycles, edgesOf(q.Kernel)
	if sp.on {
		o.chip.add(q, r)
	}
	switch {
	case err != nil:
		return o.fail(err)
	case r.ResumedFromCycle < w.mid:
		return o.fail(fmt.Errorf("io_observed: resumed from cycle %d, checkpoint was %d", r.ResumedFromCycle, w.mid))
	case col.Seq() == 0:
		return o.fail(fmt.Errorf("io_observed: restored run collected no telemetry"))
	}
	if err := checkResult(r); err != nil {
		return o.fail(err)
	}
	if d := digestResult(r); d != w.ref {
		return o.fail(fmt.Errorf("io_observed: restored digest %#x != uninterrupted %#x", d, w.ref))
	}
	return o
}

// observerRound runs the bare I/O platform and, in the same round, the same
// platform with each observer alone; every run must simulate the bare run's
// cycles. Only the run phase is timed, after a forced collection.
func (w *ioObserved) observerRound() (map[string]float64, error) {
	runOne := func(name string) (float64, int64, error) {
		p, err := platform.Build(w.spec)
		if err != nil {
			return 0, 0, err
		}
		w.attach(p, name)
		runtime.GC()
		start := time.Now()
		r := p.Run(experiments.Budget)
		ns := float64(time.Since(start))
		return ns, r.CentralCycles, checkResult(r)
	}
	bare, cycles, err := runOne("")
	if err != nil {
		return nil, err
	}
	ratios := map[string]float64{}
	for _, name := range observers {
		ns, c, err := runOne(name)
		if err != nil {
			return nil, err
		}
		if c != cycles {
			return nil, fmt.Errorf("io_observed: %s run simulated %d cycles, bare run %d", name, c, cycles)
		}
		ratios[name] = ns / bare
	}
	return ratios, nil
}
