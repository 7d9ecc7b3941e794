package bridge

import (
	"sort"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/snapshot"
)

// Checkpoint codec (DESIGN.md §16). A reqCtx is aliased across the delay
// line, the crossing FIFO, the latency line, the ordering queues and the
// byDown index, so contexts serialize through the snapshot's shared-object
// table like requests do. byDown itself is not serialized — it is rebuilt
// from the decoded contexts (a context is indexed exactly while its
// downstream clone is unretired) — and every other container is walked in a
// fixed order, with map keys sorted, so the byte stream is deterministic.

// Wire markers for ctx references (same scheme as bus.EncodeReqRef).
const (
	ctxNil  = 0
	ctxBody = 1
	ctxRefs = 2
)

func encodeCtxRef(e *snapshot.Encoder, ctx *reqCtx) {
	if ctx == nil {
		e.U(ctxNil)
		return
	}
	idx, first := e.Ref(ctx)
	if !first {
		e.U(ctxRefs + idx)
		return
	}
	e.U(ctxBody)
	bus.EncodeReqRef(e, ctx.up)
	bus.EncodeReqRef(e, ctx.down)
	e.Bool(ctx.isRead)
	e.I(int64(ctx.upBeats))
	e.I(int64(ctx.emitted))
	e.I(int64(ctx.collect))
	e.Bool(ctx.retired)
	e.I(int64(ctx.src))
	e.Bool(ctx.ackPending)
	e.Bool(ctx.finished)
	e.Bool(ctx.inQ)
	e.I(ctx.acceptCycle)
	e.Bool(ctx.complete)
	e.U(uint64(len(ctx.stash)))
	for _, beat := range ctx.stash {
		bus.EncodeBeat(e, beat)
	}
}

func decodeCtxRef(d *snapshot.Decoder, col *attr.Collector) *reqCtx {
	tag := d.U()
	if d.Err() != nil || tag == ctxNil {
		return nil
	}
	if tag >= ctxRefs {
		ctx, _ := d.Ref(tag - ctxRefs).(*reqCtx)
		if ctx == nil {
			d.Corrupt("bridge context reference %d is not a context", tag-ctxRefs)
		}
		return ctx
	}
	ctx := &reqCtx{}
	d.AddRef(ctx)
	ctx.up = bus.DecodeReqRef(d, col)
	ctx.down = bus.DecodeReqRef(d, col)
	ctx.isRead = d.Bool()
	ctx.upBeats = int(d.I())
	ctx.emitted = int(d.I())
	ctx.collect = int(d.I())
	ctx.retired = d.Bool()
	ctx.src = int(d.I())
	ctx.ackPending = d.Bool()
	ctx.finished = d.Bool()
	ctx.inQ = d.Bool()
	ctx.acceptCycle = d.I()
	ctx.complete = d.Bool()
	ns := d.N(1 << 16)
	for i := 0; i < ns; i++ {
		ctx.stash = append(ctx.stash, bus.DecodeBeat(d, col))
	}
	return ctx
}

// EncodeState serializes the bridge's mutable state: both bus-facing ports
// (the bridge owns them), the emit queue, the crossing FIFOs, the
// store-and-forward and latency lines, the ordering queues, the transaction
// contexts they alias, and the activity counters.
func (b *Bridge) EncodeState(e *snapshot.Encoder) {
	b.TargetSide.act.Settle()
	b.InitiatorSide.act.Settle()
	e.Tag('G')
	bus.EncodeTargetPortState(e, b.tport)
	bus.EncodeInitiatorPortState(e, b.iport)
	e.U(uint64(len(b.emitQ)))
	for _, beat := range b.emitQ {
		bus.EncodeBeat(e, beat)
	}
	sim.EncodeAsyncFifoState(e, b.respX, bus.EncodeBeat)
	e.U(uint64(len(b.delayLine)))
	for _, dr := range b.delayLine {
		encodeCtxRef(e, dr.ctx)
		e.I(dr.ready)
	}
	sim.EncodeAsyncFifoState(e, b.reqX, encodeCtxRef)
	e.U(uint64(len(b.held)))
	for _, hr := range b.held {
		encodeCtxRef(e, hr.ctx)
		e.I(hr.ready)
	}
	e.U(uint64(len(b.globalOrder)))
	for _, ctx := range b.globalOrder {
		encodeCtxRef(e, ctx)
	}
	// perSrc in sorted key order; empty queues are kept (their backing
	// arrays persist across transactions) but carry no information, so only
	// non-empty ones travel.
	srcs := make([]int, 0, len(b.perSrc))
	for src, q := range b.perSrc {
		if len(q) > 0 {
			srcs = append(srcs, src)
		}
	}
	sort.Ints(srcs)
	e.U(uint64(len(srcs)))
	for _, src := range srcs {
		e.I(int64(src))
		q := b.perSrc[src]
		e.U(uint64(len(q)))
		for _, ctx := range q {
			encodeCtxRef(e, ctx)
		}
	}
	// byDown in down-ID order (IDs are unique among live clones); decode
	// rebuilds the map from this list.
	downs := make([]*reqCtx, 0, len(b.byDown))
	for _, ctx := range b.byDown {
		downs = append(downs, ctx)
	}
	sort.Slice(downs, func(i, j int) bool { return downs[i].down.ID < downs[j].down.ID })
	e.U(uint64(len(downs)))
	for _, ctx := range downs {
		encodeCtxRef(e, ctx)
	}
	e.I(int64(b.readsInFlight))
	e.I(int64(b.outstanding))
	e.I(b.accepted)
	e.I(b.blockedCycles)
	e.I(b.reads)
	e.I(b.writes)
	b.residency.EncodeState(e)
}

// DecodeState restores a bridge serialized by EncodeState.
func (b *Bridge) DecodeState(d *snapshot.Decoder, col *attr.Collector) {
	d.Tag('G')
	bus.DecodeTargetPortState(d, b.tport, col)
	bus.DecodeInitiatorPortState(d, b.iport, col)
	nq := d.N(1 << 16)
	b.emitQ = b.emitQ[:0]
	for i := 0; i < nq; i++ {
		b.emitQ = append(b.emitQ, bus.DecodeBeat(d, col))
	}
	sim.DecodeAsyncFifoState(d, b.respX, func(d *snapshot.Decoder) bus.Beat { return bus.DecodeBeat(d, col) })
	nd := d.N(1 << 16)
	b.delayLine = b.delayLine[:0]
	for i := 0; i < nd; i++ {
		ctx := decodeCtxRef(d, col)
		ready := d.I()
		b.delayLine = append(b.delayLine, delayedReq{ctx: ctx, ready: ready})
	}
	sim.DecodeAsyncFifoState(d, b.reqX, func(d *snapshot.Decoder) *reqCtx { return decodeCtxRef(d, col) })
	nh := d.N(1 << 16)
	b.held = b.held[:0]
	for i := 0; i < nh; i++ {
		ctx := decodeCtxRef(d, col)
		ready := d.I()
		b.held = append(b.held, heldReq{ctx: ctx, ready: ready})
	}
	ng := d.N(1 << 16)
	b.globalOrder = b.globalOrder[:0]
	for i := 0; i < ng; i++ {
		b.globalOrder = append(b.globalOrder, decodeCtxRef(d, col))
	}
	for src := range b.perSrc {
		delete(b.perSrc, src)
	}
	nsrc := d.N(1 << 16)
	for i := 0; i < nsrc; i++ {
		src := int(d.I())
		cnt := d.N(1 << 16)
		q := make([]*reqCtx, 0, cnt)
		for j := 0; j < cnt; j++ {
			q = append(q, decodeCtxRef(d, col))
		}
		if d.Err() != nil {
			return
		}
		b.perSrc[src] = q
	}
	for down := range b.byDown {
		delete(b.byDown, down)
	}
	nby := d.N(1 << 16)
	for i := 0; i < nby; i++ {
		ctx := decodeCtxRef(d, col)
		if d.Err() != nil {
			return
		}
		if ctx == nil || ctx.down == nil {
			d.Corrupt("bridge %q byDown entry without a downstream clone", b.name)
			return
		}
		b.byDown[ctx.down] = ctx
	}
	b.readsInFlight = int(d.I())
	b.outstanding = int(d.I())
	b.accepted = d.I()
	b.blockedCycles = d.I()
	b.reads = d.I()
	b.writes = d.I()
	b.residency.DecodeState(d)
}
