// Package iptg reimplements ST's IP Traffic Generator (paper §3.1): a
// configurable block that reproduces the communication behaviour of a
// real-life IP core. An IPTG hosts a number of agents — internal
// sub-processes with their own burst statistics, buffering and pipelining
// capability — that share the IP's single bus interface. Inter-agent
// synchronization points emulate dependencies (e.g. a decoder that consumes
// what the decryptor produced), and per-agent phase lists reproduce
// application regimes of different traffic intensity, which Fig.6 of the
// paper relies on.
package iptg

import (
	"fmt"

	"mpsocsim/internal/attr"
	"mpsocsim/internal/bus"
	"mpsocsim/internal/metrics"
	"mpsocsim/internal/sim"
	"mpsocsim/internal/stats"
)

// AddrPattern selects the agent's address sequence.
type AddrPattern int

// Address patterns.
const (
	// Sequential walks the region burst by burst and wraps — DMA-style
	// traffic that row-hits aggressively in SDRAM.
	Sequential AddrPattern = iota
	// Strided jumps by Stride bytes per transaction.
	Strided
	// Random scatters uniformly over the region.
	Random
)

// String names the pattern.
func (p AddrPattern) String() string {
	switch p {
	case Sequential:
		return "seq"
	case Strided:
		return "stride"
	case Random:
		return "rand"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// Phase describes one traffic regime of an agent.
type Phase struct {
	// Count is the number of transactions issued in this phase.
	Count int64
	// GapMean is the mean idle gap (cycles) between transactions;
	// gaps are geometrically distributed (bursty).
	GapMean float64
	// BurstMin/BurstMax bound the uniformly drawn burst length in beats.
	BurstMin, BurstMax int
	// ReadFrac is the probability a transaction is a read.
	ReadFrac float64
}

// AgentConfig parameterizes one sub-process of the IP.
type AgentConfig struct {
	Name string
	// Phases in issue order; at least one is required.
	Phases []Phase
	// Outstanding is the agent's transaction pipelining capability.
	Outstanding int
	// RegionBase/RegionSize is the address window the agent touches.
	RegionBase, RegionSize uint64
	Pattern                AddrPattern
	// Stride for the Strided pattern, in bytes (defaults to burst size).
	Stride uint64
	// MsgLen groups this many consecutive transactions into one STBus
	// message (memory-controller-friendly traffic); 0 or 1 disables
	// messaging.
	MsgLen int
	// Prio is the request priority label.
	Prio int
	// PostedWrites marks writes as posted where the fabric supports it.
	PostedWrites bool
	// After names another agent of the same IPTG that must have
	// completed AfterCount transactions before this agent starts
	// (inter-agent synchronization point).
	After      string
	AfterCount int64
}

// Config parameterizes an IPTG instance.
type Config struct {
	Name   string
	Agents []AgentConfig
	// BytesPerBeat is the IP's native data width.
	BytesPerBeat int
	// PortReqDepth/PortRespDepth size the bus interface FIFOs.
	PortReqDepth  int
	PortRespDepth int
	// Seed makes the generator deterministic.
	Seed uint64
}

func (c *Config) normalize() error {
	if len(c.Agents) == 0 {
		return fmt.Errorf("iptg %q: no agents", c.Name)
	}
	if c.BytesPerBeat <= 0 {
		c.BytesPerBeat = 8
	}
	if c.PortReqDepth <= 0 {
		c.PortReqDepth = 4
	}
	if c.PortRespDepth <= 0 {
		c.PortRespDepth = 8
	}
	names := map[string]bool{}
	for i := range c.Agents {
		a := &c.Agents[i]
		if a.Name == "" {
			a.Name = fmt.Sprintf("agent%d", i)
		}
		if names[a.Name] {
			return fmt.Errorf("iptg %q: duplicate agent %q", c.Name, a.Name)
		}
		names[a.Name] = true
		if len(a.Phases) == 0 {
			return fmt.Errorf("iptg %q agent %q: no phases", c.Name, a.Name)
		}
		for j := range a.Phases {
			p := &a.Phases[j]
			if p.Count <= 0 {
				return fmt.Errorf("iptg %q agent %q phase %d: non-positive count", c.Name, a.Name, j)
			}
			if p.BurstMin <= 0 {
				p.BurstMin = 1
			}
			if p.BurstMax < p.BurstMin {
				p.BurstMax = p.BurstMin
			}
			if p.ReadFrac < 0 || p.ReadFrac > 1 {
				return fmt.Errorf("iptg %q agent %q phase %d: read fraction %v out of [0,1]", c.Name, a.Name, j, p.ReadFrac)
			}
		}
		if a.Outstanding <= 0 {
			a.Outstanding = 1
		}
		if a.RegionSize == 0 {
			a.RegionSize = 1 << 20
		}
	}
	for _, a := range c.Agents {
		if a.After != "" && !names[a.After] {
			return fmt.Errorf("iptg %q agent %q: unknown sync target %q", c.Name, a.Name, a.After)
		}
	}
	return nil
}

// agent is the runtime state of one sub-process.
type agent struct {
	cfg AgentConfig

	phase     int
	inPhase   int64 // transactions issued in the current phase
	issued    int64
	completed int64
	inFlight  int
	gapLeft   int64
	cursor    uint64
	msgLeft   int
	msgSeq    uint64

	latency      stats.Histogram
	bytes        int64
	readsIssued  int64
	writesIssued int64
}

func (a *agent) currentPhase() *Phase {
	if a.phase >= len(a.cfg.Phases) {
		return nil
	}
	return &a.cfg.Phases[a.phase]
}

// Generator is the IPTG component: a sim.Clocked initiator owning its port.
// It is a sim.Sleeper: it sleeps while its request FIFO is full or no agent
// can issue on its own (see Quiescent); a response push or a request pop
// wakes it.
type Generator struct {
	cfg    Config
	port   *bus.InitiatorPort
	clk    *sim.Clock
	rng    *sim.Rand
	ids    *bus.IDSource
	origin int

	agents  []*agent
	byName  map[string]*agent
	byReqID map[uint64]*agent
	rr      int

	// pool recycles this generator's requests (nil outside platform
	// builds): tracked transactions return on their final response beat;
	// posted writes are reclaimed by the component that consumes them.
	pool *bus.RequestPool

	// attrCol, when set, closes each tracked transaction's attribution
	// record at final-beat consumption (see UseAttribution).
	attrCol *attr.Collector

	// act is the generator's sleep record; quiet records that the last
	// Eval collected nothing and could not issue (see Quiescent).
	act   sim.Activity
	quiet bool

	// total is the transaction count of the whole workload, summed over
	// every agent's phases once at construction: the generator is done
	// exactly when completedTotal reaches it.
	total          int64
	issuedTotal    int64
	completedTotal int64
}

// New builds a generator. The IDSource must be shared platform-wide so
// request IDs stay unique across bridges; origin identifies this IP in
// end-to-end statistics.
func New(cfg Config, clk *sim.Clock, ids *bus.IDSource, origin int) (*Generator, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:     cfg,
		port:    bus.NewInitiatorPort(cfg.Name, cfg.PortReqDepth, cfg.PortRespDepth),
		clk:     clk,
		rng:     sim.NewRand(cfg.Seed ^ 0x5eed),
		ids:     ids,
		origin:  origin,
		byName:  map[string]*agent{},
		byReqID: map[uint64]*agent{},
	}
	for _, ac := range cfg.Agents {
		a := &agent{cfg: ac, cursor: ac.RegionBase}
		g.agents = append(g.agents, a)
		g.byName[ac.Name] = a
		for _, p := range ac.Phases {
			g.total += p.Count
		}
	}
	g.port.BindInitiator(&g.act)
	return g, nil
}

// MustNew is New that panics on config errors, for static platform tables.
func MustNew(cfg Config, clk *sim.Clock, ids *bus.IDSource, origin int) *Generator {
	g, err := New(cfg, clk, ids, origin)
	if err != nil {
		panic(err)
	}
	return g
}

// UseRequestPool makes the generator mint requests from (and return them
// to) the given pool. Call before simulation starts.
func (g *Generator) UseRequestPool(p *bus.RequestPool) { g.pool = p }

// UseAttribution makes the generator finish each tracked transaction's
// latency-attribution record when it consumes the final response beat
// (posted writes finish at the consuming memory instead). Call before
// simulation starts.
func (g *Generator) UseAttribution(col *attr.Collector) { g.attrCol = col }

// Port returns the initiator port to attach to a fabric.
func (g *Generator) Port() *bus.InitiatorPort { return g.port }

// Name returns the IP name.
func (g *Generator) Name() string { return g.cfg.Name }

// Origin returns the platform-wide initiator identity.
func (g *Generator) Origin() int { return g.origin }

// Done reports whether every agent has issued and completed its workload.
// An agent never issues past its phases and completes only what it issued,
// so that is the completed total reaching the workload total.
func (g *Generator) Done() bool { return g.completedTotal >= g.total }

// Unfinished returns the transactions not yet completed: those still to be
// issued plus those in flight. It hits zero exactly when Done flips true —
// the sharded run coordinator uses it to decide how long parallel windows
// are provably safe (the run cannot drain inside a window while Unfinished
// exceeds the per-window completion bound).
func (g *Generator) Unfinished() int64 { return g.total - g.completedTotal }

// MaxConcurrent returns an upper bound on this generator's simultaneously
// in-flight transactions (the sum of the agents' outstanding windows).
func (g *Generator) MaxConcurrent() int64 {
	var n int64
	for _, a := range g.agents {
		n += int64(a.cfg.Outstanding)
	}
	return n
}

// Eval collects responses and issues at most one new transaction per cycle.
func (g *Generator) Eval() {
	collected := g.collect()
	g.tickGaps()
	g.quiet = g.issue() && !collected
}

// Update commits the port FIFOs.
func (g *Generator) Update() {
	g.port.Update()
	g.act.Rest(g)
}

// Quiescent reports that the last Eval collected no response and issued
// nothing, because the request FIFO was full or because no agent was ready
// and none had a gap left to count — every agent finished, its outstanding
// window full or waiting on its sync agent. Until a response push or a
// request pop wakes the generator, later Evals only count gaps down, which
// Credit does in closed form.
func (g *Generator) Quiescent() bool { return g.quiet }

// Credit counts the skipped commits of the port FIFOs and the gap cycles of
// the skipped evaluations.
func (g *Generator) Credit(evals, updates int64) {
	g.port.Req.Idle(updates)
	g.port.Resp.Idle(updates)
	for _, a := range g.agents {
		a.gapLeft = max(a.gapLeft-evals, 0)
	}
}

// Activity returns the generator's sleep record.
func (g *Generator) Activity() *sim.Activity { return &g.act }

// collect consumes every committed response beat and reports whether there
// was one.
func (g *Generator) collect() bool {
	popped := false
	for g.port.Resp.CanPop() {
		popped = true
		beat := g.port.Resp.Pop()
		if !beat.Last {
			continue
		}
		a := g.byReqID[beat.Req.ID]
		if a == nil {
			continue
		}
		delete(g.byReqID, beat.Req.ID)
		a.inFlight--
		a.completed++
		g.completedTotal++
		a.latency.Add(g.clk.Cycles() - beat.Req.IssueCycle)
		if pr := g.port.Probe; pr != nil {
			pr.RequestCompleted(beat.Req, g.clk.Cycles())
		}
		if rec := beat.Req.Attr; rec != nil && g.attrCol != nil {
			g.attrCol.Finish(rec, g.clk.NowPS())
		}
		// The transaction was tracked, so this request is ours and this
		// beat is its final reference: recycle it.
		g.pool.Put(beat.Req)
	}
	return popped
}

func (g *Generator) tickGaps() {
	for _, a := range g.agents {
		if a.gapLeft > 0 {
			a.gapLeft--
		}
	}
}

// ready reports whether the agent can issue this cycle.
func (g *Generator) ready(a *agent) bool {
	ph := a.currentPhase()
	if ph == nil {
		return false
	}
	if a.gapLeft > 0 || a.inFlight >= a.cfg.Outstanding {
		return false
	}
	if a.cfg.After != "" {
		dep := g.byName[a.cfg.After]
		if dep.completed < a.cfg.AfterCount {
			return false
		}
	}
	return true
}

// issue issues from the next ready agent in round-robin order, at most one
// transaction per cycle. It reports whether the generator cannot change on
// its own before a wake: the request FIFO is full, or no agent is ready and
// no gap is counting down.
func (g *Generator) issue() bool {
	if !g.port.Req.CanPush() {
		return true
	}
	n := len(g.agents)
	for k := 0; k < n; k++ {
		a := g.agents[(g.rr+k)%n]
		if !g.ready(a) {
			continue
		}
		g.rr = (g.rr + k + 1) % n
		g.issueFrom(a)
		return false
	}
	for _, a := range g.agents {
		if a.gapLeft > 0 {
			return false
		}
	}
	return true
}

func (g *Generator) issueFrom(a *agent) {
	ph := a.currentPhase()
	beats := g.rng.Range(ph.BurstMin, ph.BurstMax)
	isRead := g.rng.Bool(ph.ReadFrac)
	req := g.pool.Get()
	*req = bus.Request{
		ID:           g.ids.Next(),
		Origin:       g.origin,
		Addr:         g.nextAddr(a, beats),
		Beats:        beats,
		BytesPerBeat: g.cfg.BytesPerBeat,
		Prio:         a.cfg.Prio,
		IssueCycle:   g.clk.Cycles(),
		IssuePS:      g.clk.NowPS(),
		MsgEnd:       true,
	}
	if !isRead {
		req.Op = bus.OpWrite
		req.Posted = a.cfg.PostedWrites
		a.writesIssued++
	} else {
		a.readsIssued++
	}
	if a.cfg.MsgLen > 1 {
		if a.msgLeft == 0 {
			a.msgLeft = a.cfg.MsgLen
			a.msgSeq++
		}
		req.MsgSeq = uint64(g.origin)<<32 | a.msgSeq
		a.msgLeft--
		req.MsgEnd = a.msgLeft == 0
	}
	g.port.Req.Push(req)
	if pr := g.port.Probe; pr != nil {
		pr.RequestIssued(req)
	}
	a.issued++
	a.inPhase++
	g.issuedTotal++
	a.bytes += int64(req.Bytes())
	if req.Op == bus.OpRead || !req.Posted {
		a.inFlight++
		g.byReqID[req.ID] = a
	} else {
		a.completed++ // posted writes complete at issue
		g.completedTotal++
	}
	a.gapLeft = int64(g.rng.Geometric(ph.GapMean))
	if a.inPhase >= ph.Count {
		a.phase++
		a.inPhase = 0
	}
}

func (g *Generator) nextAddr(a *agent, beats int) uint64 {
	size := a.cfg.RegionSize
	burstBytes := uint64(beats * g.cfg.BytesPerBeat)
	var addr uint64
	switch a.cfg.Pattern {
	case Sequential:
		addr = a.cursor
		a.cursor += burstBytes
		if a.cursor >= a.cfg.RegionBase+size {
			a.cursor = a.cfg.RegionBase
		}
	case Strided:
		addr = a.cursor
		stride := a.cfg.Stride
		if stride == 0 {
			stride = burstBytes
		}
		a.cursor += stride
		if a.cursor >= a.cfg.RegionBase+size {
			a.cursor = a.cfg.RegionBase + (a.cursor-a.cfg.RegionBase)%size
		}
	case Random:
		span := size / burstBytes
		if span == 0 {
			span = 1
		}
		addr = a.cfg.RegionBase + (uint64(g.rng.Intn(int(span))))*burstBytes
	}
	return addr
}

// AgentStats reports one agent's activity.
type AgentStats struct {
	Name        string
	Issued      int64
	Completed   int64
	Reads       int64
	Writes      int64
	Bytes       int64
	MeanLatency float64
	MaxLatency  int64
	// P50Latency/P90Latency are bucketed upper bounds on the latency
	// quantiles (see stats.Histogram.Quantile).
	P50Latency   int64
	P90Latency   int64
	CurrentPhase int
}

// Stats returns per-agent statistics, in configuration order.
func (g *Generator) Stats() []AgentStats {
	out := make([]AgentStats, 0, len(g.agents))
	for _, a := range g.agents {
		out = append(out, AgentStats{
			Name:         a.cfg.Name,
			Issued:       a.issued,
			Completed:    a.completed,
			Reads:        a.readsIssued,
			Writes:       a.writesIssued,
			Bytes:        a.bytes,
			MeanLatency:  a.latency.Mean(),
			MaxLatency:   a.latency.Max(),
			P50Latency:   a.latency.Quantile(0.5),
			P90Latency:   a.latency.Quantile(0.9),
			CurrentPhase: a.phase,
		})
	}
	return out
}

// RegisterMetrics registers the generator's telemetry under "ip.<name>.*" on
// the given clock domain: IP-level issue/complete counters and a request-FIFO
// depth gauge, plus per-agent counters and the per-agent completion-latency
// histogram under "ip.<name>.<agent>.*". Func-backed: the issue path is
// untouched.
func (g *Generator) RegisterMetrics(m *metrics.Registry, clock string) {
	p := "ip." + g.cfg.Name + "."
	m.CounterFunc(p+"issued", func() int64 { return g.issuedTotal })
	m.CounterFunc(p+"completed", func() int64 { return g.completedTotal })
	m.GaugeFunc(p+"req_depth", clock, func() int64 { return int64(g.port.Req.Len()) })
	for _, a := range g.agents {
		a := a
		ap := p + a.cfg.Name + "."
		m.CounterFunc(ap+"issued", func() int64 { return a.issued })
		m.CounterFunc(ap+"completed", func() int64 { return a.completed })
		m.CounterFunc(ap+"bytes", func() int64 { return a.bytes })
		m.Histogram(ap+"latency", &a.latency)
	}
}

// Issued returns the total transactions issued by all agents.
func (g *Generator) Issued() int64 { return g.issuedTotal }

// Completed returns the total completed transactions.
func (g *Generator) Completed() int64 { return g.completedTotal }
