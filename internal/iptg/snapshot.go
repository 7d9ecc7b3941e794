package iptg

import (
	"sort"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/snapshot"
)

// EncodeState serializes the generator's mutable state (DESIGN.md §16): the
// owned initiator port, the PRNG, per-agent progress, and the in-flight
// request index (sorted by request ID so the stream is deterministic).
// Agent configurations are spec-derived; the agent count guards shape.
func (g *Generator) EncodeState(e *snapshot.Encoder) {
	g.act.Settle()
	e.Tag('T')
	bus.EncodeInitiatorPortState(e, g.port)
	e.U(g.rng.State())
	e.U(uint64(len(g.agents)))
	for _, a := range g.agents {
		e.I(int64(a.phase))
		e.I(a.inPhase)
		e.I(a.issued)
		e.I(a.completed)
		e.I(int64(a.inFlight))
		e.I(a.gapLeft)
		e.U(a.cursor)
		e.I(int64(a.msgLeft))
		e.U(a.msgSeq)
		a.latency.EncodeState(e)
		e.I(a.bytes)
		e.I(a.readsIssued)
		e.I(a.writesIssued)
	}
	ids := make([]uint64, 0, len(g.byReqID))
	for id := range g.byReqID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U(uint64(len(ids)))
	for _, id := range ids {
		e.U(id)
		a := g.byReqID[id]
		idx := -1
		for i := range g.agents {
			if g.agents[i] == a {
				idx = i
				break
			}
		}
		e.I(int64(idx))
	}
	e.I(int64(g.rr))
	e.I(g.issuedTotal)
	e.I(g.completedTotal)
}

// DecodeState restores a generator serialized by EncodeState.
func (g *Generator) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('T')
	bus.DecodeInitiatorPortState(d, g.port, col)
	g.rng.SetState(d.U())
	na := d.N(1 << 10)
	if d.Err() != nil {
		return
	}
	if na != len(g.agents) {
		d.Corrupt("iptg %q agent count %d does not match platform's %d", g.cfg.Name, na, len(g.agents))
		return
	}
	for _, a := range g.agents {
		a.phase = int(d.I())
		a.inPhase = d.I()
		a.issued = d.I()
		a.completed = d.I()
		a.inFlight = int(d.I())
		a.gapLeft = d.I()
		a.cursor = d.U()
		a.msgLeft = int(d.I())
		a.msgSeq = d.U()
		a.latency.DecodeState(d)
		a.bytes = d.I()
		a.readsIssued = d.I()
		a.writesIssued = d.I()
	}
	for id := range g.byReqID {
		delete(g.byReqID, id)
	}
	nid := d.N(1 << 22)
	for i := 0; i < nid; i++ {
		id := d.U()
		idx := d.I()
		if d.Err() != nil {
			return
		}
		if idx < 0 || idx >= int64(len(g.agents)) {
			d.Corrupt("iptg %q in-flight entry maps to agent %d of %d", g.cfg.Name, idx, len(g.agents))
			return
		}
		g.byReqID[id] = g.agents[idx]
	}
	g.rr = int(d.I())
	g.issuedTotal = d.I()
	g.completedTotal = d.I()
}
