package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"

	"mpsocsim/internal/iptg"
	"mpsocsim/internal/platform"
)

// checkResult applies the output invariants every op must satisfy: the run
// drained without a watchdog stall, every issued transaction completed,
// attribution phases telescope to the end-to-end latency, and deadline
// accounting conserves (met + missed == serviced == raised).
func checkResult(r platform.Result) error {
	if !r.Done || r.Stalled {
		return fmt.Errorf("%s: run did not drain (done=%v stalled=%v)", r.Spec.Name(), r.Done, r.Stalled)
	}
	if r.Issued != r.Completed {
		return fmt.Errorf("%s: issued %d != completed %d", r.Spec.Name(), r.Issued, r.Completed)
	}
	if a := r.Attribution; a != nil {
		for _, in := range a.Initiators {
			var sum int64
			for _, ph := range in.Phases {
				sum += ph.TotalPS
			}
			if sum != in.TotalPS {
				return fmt.Errorf("%s: attribution phases of %s sum to %d ps, end-to-end total is %d ps",
					r.Spec.Name(), in.Initiator, sum, in.TotalPS)
			}
		}
	}
	for _, d := range r.Deadlines {
		if d.Met+d.Missed != d.Serviced || d.Serviced != d.Raised {
			return fmt.Errorf("%s: deadlines of %s: met %d + missed %d, serviced %d, raised %d",
				r.Spec.Name(), d.Device, d.Met, d.Missed, d.Serviced, d.Raised)
		}
	}
	return nil
}

// digester folds simulated statistics into a 64-bit FNV-1a digest.
type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) str(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0})
}

func (d digester) num(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

// add folds one run's simulated statistics: cycles, transaction totals,
// every counter, gauge and histogram of the metrics snapshot, the deadline
// rows and the attribution totals. ResumedFromCycle is left out, so a run
// restored from a checkpoint digests like the uninterrupted one.
func (d digester) add(r platform.Result) {
	d.num(r.CentralCycles, r.ExecPS, r.Issued, r.Completed, r.TotalBytes)
	if m := r.Metrics; m != nil {
		for _, c := range m.Counters {
			d.str(c.Name)
			d.num(c.Value)
		}
		for _, g := range m.Gauges {
			d.str(g.Name)
			d.num(g.Value)
		}
		for _, h := range m.Histograms {
			d.str(h.Name)
			d.num(h.N, h.Sum, h.Min, h.Max)
		}
	}
	for _, dl := range r.Deadlines {
		d.str(dl.Device)
		d.num(dl.DeadlineCycles, dl.Raised, dl.Serviced, dl.Met, dl.Missed, dl.PendingMax,
			dl.MinSvcCycles, dl.MaxSvcCycles, dl.P50SvcCycles, dl.P90SvcCycles)
	}
	if a := r.Attribution; a != nil {
		d.num(a.Started, a.Finished)
		for _, in := range a.Initiators {
			d.str(in.Initiator)
			d.num(in.Transactions, in.TotalPS)
			for _, ph := range in.Phases {
				d.str(ph.Phase)
				d.num(ph.N, ph.TotalPS)
			}
		}
	}
}

func (d digester) sum() uint64 { return d.h.Sum64() }

// digestResult is the digest of a single run.
func digestResult(r platform.Result) uint64 {
	d := newDigester()
	d.add(r)
	return d.sum()
}

// chipCounts are the modelled-chip statistics of one op, in simulated time:
// numerators and denominators stay separate so ops with several platforms
// (onchip_fabrics) sum before dividing.
type chipCounts struct {
	centralCycles        int64
	iptgTxns, iptgBytes  int64
	stall, stallCycles   map[string]int64 // per fabric layer: grant-stall cycles, layer clock cycles
	bridgeBlocked        int64
	bridgeCycles         int64
	lmiBusy, lmiCycles   int64
	lmiRowHit, lmiRowAll int64
	lmiMerged, lmiServed int64
	lmiFull, lmiFifo     int64
	memBusy, memCycles   int64
	dspStall, dspCycles  int64
	dlMet, dlServiced    int64
	dmaBytes             int64
}

// stallCounter names each fabric layer's grant-stall counter suffix.
var stallCounter = map[string]string{
	"stbus": ".grant_stall_cycles",
	"ahb":   ".stall_cycles",
	"axi":   ".w_stall_cycles",
}

// addChip accumulates the modelled-chip counts of a finished run of p. Fabric
// and bridge stall cycles are divided by the cycles of the clock each node
// runs on, found through the node's "outstanding" gauge.
func (c *chipCounts) add(p *platform.Platform, r platform.Result) {
	if c.stall == nil {
		c.stall, c.stallCycles = map[string]int64{}, map[string]int64{}
	}
	c.centralCycles += r.CentralCycles
	for _, g := range p.Initiators() {
		if _, ok := g.(*iptg.Generator); !ok {
			continue
		}
		c.iptgTxns += g.Completed()
		for _, a := range g.Stats() {
			c.iptgBytes += a.Bytes
		}
	}
	cycles := map[string]int64{}
	for _, clk := range p.Kernel.Clocks() {
		cycles[clk.Name()] = clk.Cycles()
	}
	nodeClock := map[string]string{}
	for _, g := range r.Metrics.Gauges {
		if node, ok := strings.CutSuffix(g.Name, ".outstanding"); ok {
			nodeClock[node] = g.Clock
		}
	}
	get := func(name string) int64 {
		v, _ := r.Metrics.Counter(name)
		return v
	}
	for _, cv := range r.Metrics.Counters {
		layer, _, _ := strings.Cut(cv.Name, ".")
		if suffix, ok := stallCounter[layer]; ok {
			if node, ok := strings.CutSuffix(cv.Name, suffix); ok {
				c.stall[layer] += cv.Value
				c.stallCycles[layer] += cycles[nodeClock[node]]
			}
		}
		switch {
		case layer == "bridge" && strings.HasSuffix(cv.Name, ".blocked_cycles"):
			c.bridgeBlocked += cv.Value
			c.bridgeCycles += cycles[nodeClock[strings.TrimSuffix(cv.Name, ".blocked_cycles")]]
		case layer == "mem" && strings.HasSuffix(cv.Name, ".busy_cycles"):
			c.memBusy += cv.Value
			c.memCycles += get(strings.TrimSuffix(cv.Name, "busy_cycles") + "total_cycles")
		case layer == "dsp" && strings.HasSuffix(cv.Name, ".stall_cycles"):
			c.dspStall += cv.Value
			c.dspCycles += get(strings.TrimSuffix(cv.Name, "stall_cycles") + "cycles")
		case layer == "io" && strings.HasPrefix(cv.Name, "io.dma.") && strings.HasSuffix(cv.Name, ".bytes_moved"):
			c.dmaBytes += cv.Value
		}
	}
	c.lmiBusy += get("lmi.lmi.busy_cycles")
	c.lmiCycles += get("lmi.lmi.cycles")
	hits := get("lmi.lmi.sdram_row_hits")
	c.lmiRowHit += hits
	c.lmiRowAll += hits + get("lmi.lmi.sdram_row_misses")
	c.lmiMerged += get("lmi.lmi.merged_runs")
	c.lmiServed += get("lmi.lmi.served")
	full := get("lmi.lmi.fifo_full_cycles")
	c.lmiFull += full
	c.lmiFifo += full + get("lmi.lmi.fifo_storing_cycles") + get("lmi.lmi.fifo_norequest_cycles")
	for _, d := range r.Deadlines {
		c.dlMet += d.Met
		c.dlServiced += d.Serviced
	}
}

// frac divides, reading 0 for an empty denominator (a layer absent from the
// workload).
func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics renders the counts as per-layer metrics.
func (c *chipCounts) metrics(put func(name, unit string, v float64)) {
	put("sim.central_cycles", "count", float64(c.centralCycles))
	put("iptg.txns", "count", float64(c.iptgTxns))
	put("iptg.bytes", "bytes", float64(c.iptgBytes))
	for _, layer := range []string{"stbus", "ahb", "axi"} {
		put(layer+".grant_stall_frac", "fraction", frac(c.stall[layer], c.stallCycles[layer]))
	}
	put("bridge.blocked_frac", "fraction", frac(c.bridgeBlocked, c.bridgeCycles))
	put("lmi.busy_frac", "fraction", frac(c.lmiBusy, c.lmiCycles))
	put("lmi.row_hit_rate", "fraction", frac(c.lmiRowHit, c.lmiRowAll))
	put("lmi.merge_rate", "fraction", frac(c.lmiMerged, c.lmiServed))
	put("lmi.fifo_full_frac", "fraction", frac(c.lmiFull, c.lmiFifo))
	put("mem.busy_frac", "fraction", frac(c.memBusy, c.memCycles))
	put("dspcore.stall_frac", "fraction", frac(c.dspStall, c.dspCycles))
	put("io.deadline_met_frac", "fraction", frac(c.dlMet, c.dlServiced))
	put("io.dma_bytes", "bytes", float64(c.dmaBytes))
}
