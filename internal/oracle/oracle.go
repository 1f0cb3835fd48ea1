// Package oracle is the verification layer of the simulator: a
// pluggable invariant checker that hooks a System's queues through
// vlq.Probe and the device observation points, and checks — online
// during the run and again at drain — that the machine never loses,
// duplicates, reorders, or corrupts a message, that the device tables
// stay structurally sound, and that the end-of-run counters balance.
//
// On top of the per-run checker sits the differential check: a SPAMeR
// run must deliver the same per-link message sequences as the baseline
// VL run of the same workload (speculative-push safety, §3/Fig. 5).
// See docs/TESTING.md for the invariant catalogue and the determinism
// contract they enforce.
package oracle

import (
	"fmt"
	"sort"

	"spamer"
	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
	"spamer/internal/vlq"
)

// Violation is one invariant failure. Violations are data, not errors:
// a campaign collects them, attaches them to the failing case, and
// writes the pair to disk as a repro.
type Violation struct {
	// Invariant names the broken invariant ("message-loss",
	// "fifo-order", "differential-delivery", ...).
	Invariant string `json:"invariant"`
	// Context locates the run ("alg=vl"); filled by the
	// case-level drivers.
	Context string `json:"context,omitempty"`
	// Queue names the queue involved, when one is.
	Queue string `json:"queue,omitempty"`
	// Detail is the human-readable specifics.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	s := v.Invariant
	if v.Context != "" {
		s += " [" + v.Context + "]"
	}
	if v.Queue != "" {
		s += " queue=" + v.Queue
	}
	return s + ": " + v.Detail
}

// maxViolations bounds recording per checker: a systemic failure (e.g.
// a wrong retry path) violates an invariant per message, and one repro
// does not need thousands of copies.
const maxViolations = 32

// structCheckEvery is the online structural-check cadence: every N-th
// observed pop the checker walks the device and specBuf tables.
const structCheckEvery = 16

// Checker observes one System's complete message traffic and checks the
// per-run invariants. It implements vlq.Probe; install with Attach
// before the workload builds its queues.
type Checker struct {
	sys *spamer.System

	qs         map[*vlq.Queue]*queueState
	order      []*vlq.Queue
	violations []Violation
	pops       uint64
	finished   bool
}

// queueState tracks one queue's observed traffic.
type queueState struct {
	name string
	srcs map[int]*srcState

	// lastSeq[consumer][src] records the last sequence each consumer
	// took from each producer (stored +1; 0 = none yet). A regression is
	// recorded as a FIFO candidate and reported at Finish only if the
	// queue ends up with a single consumer endpoint: per-link FIFO is
	// only defined there (with several consumers, a missed speculative
	// push legitimately re-targets a different endpoint, so one consumer
	// may observe a per-src gap that another fills).
	lastSeq  map[int]map[int]uint64
	fifoViol *Violation
}

// srcState tracks one producer endpoint's stream within a queue.
type srcState struct {
	payload []uint64 // payload by sequence number (push order)
	popped  []bool   // delivery flags by sequence number
	nPopped uint64
}

// Attach builds a Checker and installs it on sys. Must be called after
// NewSystem and before the workload creates queues.
func Attach(sys *spamer.System) *Checker {
	c := &Checker{
		sys: sys,
		qs:  make(map[*vlq.Queue]*queueState),
	}
	sys.SetQueueProbe(c)
	return c
}

func (c *Checker) state(q *vlq.Queue) *queueState {
	st := c.qs[q]
	if st == nil {
		st = &queueState{
			name:    q.Name(),
			srcs:    make(map[int]*srcState),
			lastSeq: make(map[int]map[int]uint64),
		}
		c.qs[q] = st
		c.order = append(c.order, q)
	}
	return st
}

func (st *queueState) src(id int) *srcState {
	s := st.srcs[id]
	if s == nil {
		s = &srcState{}
		st.srcs[id] = s
	}
	return s
}

func (c *Checker) report(v Violation) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, v)
	}
}

// Push implements vlq.Probe: record the submitted message under its
// (queue, src, seq) link tag.
func (c *Checker) Push(q *vlq.Queue, producer int, tick uint64, msg mem.Message) {
	st := c.state(q)
	s := st.src(msg.Src)
	if msg.Seq != uint64(len(s.payload)) {
		c.report(Violation{Invariant: "push-seq", Queue: st.name,
			Detail: fmt.Sprintf("producer %d submitted seq %d, expected dense %d", msg.Src, msg.Seq, len(s.payload))})
		return
	}
	s.payload = append(s.payload, msg.Payload)
	s.popped = append(s.popped, false)
}

// Accept, Fetch and Fill implement vlq.Probe. The invariants are checked
// where a message enters (Push) and leaves (Pop) the queue.
func (c *Checker) Accept(*vlq.Queue, int, uint64, uint64)         {}
func (c *Checker) Fetch(*vlq.Queue, int, int, uint64)             {}
func (c *Checker) Fill(*vlq.Queue, int, int, uint64, mem.Message) {}

// Pop implements vlq.Probe: check the delivered message against the
// recorded push stream — exactly-once, payload-intact, and in per-link
// order — and periodically walk the device structures.
func (c *Checker) Pop(q *vlq.Queue, consumer, _ int, tick uint64, msg mem.Message) {
	st := c.state(q)
	s := st.src(msg.Src)
	switch {
	case msg.Seq >= uint64(len(s.payload)):
		c.report(Violation{Invariant: "phantom-delivery", Queue: st.name,
			Detail: fmt.Sprintf("consumer %d received (src %d, seq %d) but only %d messages were pushed", consumer, msg.Src, msg.Seq, len(s.payload))})
		return
	case s.popped[msg.Seq]:
		c.report(Violation{Invariant: "duplicate-delivery", Queue: st.name,
			Detail: fmt.Sprintf("(src %d, seq %d) delivered twice (second time to consumer %d at tick %d)", msg.Src, msg.Seq, consumer, tick)})
	default:
		s.popped[msg.Seq] = true
		s.nPopped++
	}
	if want := s.payload[msg.Seq]; want != msg.Payload {
		c.report(Violation{Invariant: "payload-corruption", Queue: st.name,
			Detail: fmt.Sprintf("(src %d, seq %d) delivered payload %#x, pushed %#x", msg.Src, msg.Seq, msg.Payload, want)})
	}
	last := st.lastSeq[consumer]
	if last == nil {
		last = make(map[int]uint64)
		st.lastSeq[consumer] = last
	}
	if prev := last[msg.Src]; prev > 0 && msg.Seq < prev-1 && st.fifoViol == nil {
		st.fifoViol = &Violation{Invariant: "fifo-order", Queue: st.name,
			Detail: fmt.Sprintf("consumer %d took (src %d, seq %d) after seq %d", consumer, msg.Src, msg.Seq, prev-1)}
	}
	if msg.Seq+1 > last[msg.Src] {
		last[msg.Src] = msg.Seq + 1
	}
	c.pops++
	if c.pops%structCheckEvery == 0 {
		c.checkStructures("online")
	}
}

// checkStructures walks every device table, specBuf table, and the
// line-arena slab.
func (c *Checker) checkStructures(when string) {
	for i, d := range c.sys.Devices() {
		if err := d.CheckStructure(); err != nil {
			c.report(Violation{Invariant: "device-structure",
				Detail: fmt.Sprintf("%s, device %d: %v", when, i, err)})
			return // table state is unreliable past the first failure
		}
	}
	for i, b := range c.sys.SpecBufs() {
		if err := b.CheckStructure(); err != nil {
			c.report(Violation{Invariant: "specbuf-structure",
				Detail: fmt.Sprintf("%s, specBuf %d: %v", when, i, err)})
			return
		}
	}
	if err := c.sys.AddressSpace().CheckStructure(); err != nil {
		c.report(Violation{Invariant: "arena-structure",
			Detail: fmt.Sprintf("%s, arena: %v", when, err)})
	}
}

// Finish runs the drain-time invariants once the run has ended and
// returns every recorded violation. res is the run's Result, or nil if
// Run panicked (conservation and structural checks still apply; the
// counter-balance checks need the Result and are skipped).
func (c *Checker) Finish(res *spamer.Result) []Violation {
	if c.finished {
		return c.violations
	}
	c.finished = true

	var pushedTotal, poppedTotal uint64
	for _, q := range c.order {
		st := c.qs[q]
		// Per-link conservation: every pushed sequence delivered
		// exactly once.
		for _, src := range sortedSrcs(st) {
			s := st.srcs[src]
			pushedTotal += uint64(len(s.payload))
			poppedTotal += s.nPopped
			if s.nPopped == uint64(len(s.payload)) {
				continue
			}
			missing := make([]uint64, 0, 4)
			for seq, got := range s.popped {
				if !got {
					missing = append(missing, uint64(seq))
					if len(missing) == 4 {
						break
					}
				}
			}
			c.report(Violation{Invariant: "message-loss", Queue: st.name,
				Detail: fmt.Sprintf("src %d: %d pushed, %d delivered; first missing seqs %v", src, len(s.payload), s.nPopped, missing)})
		}
		// Per-link FIFO (single-consumer queues only; see queueState).
		if st.fifoViol != nil && len(q.Consumers()) == 1 {
			c.report(*st.fifoViol)
		}
		// Probe coverage: the endpoint counters must agree with what the
		// probe saw, or some traffic bypassed observation.
		var qPushed, qPopped uint64
		for _, s := range st.srcs {
			qPushed += uint64(len(s.payload))
			qPopped += s.nPopped
		}
		if q.Pushed() != qPushed || q.Popped() != qPopped {
			c.report(Violation{Invariant: "probe-coverage", Queue: st.name,
				Detail: fmt.Sprintf("endpoints count %d pushed/%d popped, probe saw %d/%d", q.Pushed(), q.Popped(), qPushed, qPopped)})
		}
	}

	// Structural invariants at drain.
	c.checkStructures("at drain")
	for i, d := range c.sys.Devices() {
		if !d.Quiescent() {
			c.report(Violation{Invariant: "device-not-quiescent",
				Detail: fmt.Sprintf("device %d still holds producer data or in-flight work at drain", i)})
		}
	}
	for i, b := range c.sys.SpecBufs() {
		if n := b.OnFlyCount(); n != 0 {
			c.report(Violation{Invariant: "onfly-leak",
				Detail: fmt.Sprintf("specBuf %d: %d entries still marked on-fly at drain", i, n)})
		}
	}
	// Consumer-line balance: at drain every fill was consumed.
	for _, q := range c.order {
		for ci, cons := range q.Consumers() {
			for li, line := range cons.Lines() {
				if line.Fills() != line.Vacates() {
					c.report(Violation{Invariant: "line-balance", Queue: q.Name(),
						Detail: fmt.Sprintf("consumer %d line %d: %d fills, %d vacates at drain", ci, li, line.Fills(), line.Vacates())})
				}
			}
		}
	}

	if res != nil {
		c.checkCounters(res, pushedTotal, poppedTotal)
	}
	return c.violations
}

// checkCounters verifies the end-of-run counter balance equations
// (stash balance and bus-occupancy conservation).
func (c *Checker) checkCounters(res *spamer.Result, pushed, popped uint64) {
	d := res.Device
	type eq struct {
		name string
		a, b uint64
	}
	eqs := []eq{
		{"result pushed == popped", res.Pushed, res.Popped},
		{"probe pushed == result pushed", pushed, res.Pushed},
		{"demand pushes == demand hits + misses", d.DemandPushes, d.DemandHits + d.DemandMisses},
		{"spec pushes == spec hits + misses", d.SpecPushes, d.SpecHits + d.SpecMisses},
		{"spec scheduled == spec pushes", d.SpecScheduled, d.SpecPushes},
		{"push accepts == hits", d.PushAccepts, d.DemandHits + d.SpecHits},
		{"bus stash packets == total pushes", res.Bus.Packets[noc.PktStash], d.TotalPushes()},
		{"bus resp packets == total pushes", res.Bus.Packets[noc.PktResp], d.TotalPushes()},
	}
	for _, e := range eqs {
		if e.a != e.b {
			c.report(Violation{Invariant: "counter-balance",
				Detail: fmt.Sprintf("%s: %d != %d", e.name, e.a, e.b)})
		}
	}
}

func sortedSrcs(st *queueState) []int {
	srcs := make([]int, 0, len(st.srcs))
	for id := range st.srcs {
		srcs = append(srcs, id)
	}
	sort.Ints(srcs)
	return srcs
}

// ---------------------------------------------------------------------
// Delivery snapshots: the differential-replay currency.
// ---------------------------------------------------------------------

// Delivery is the canonical delivered-message record of one run: per
// queue, per producer link, the delivered count and an order-sensitive
// checksum over the payload sequence. Two runs of the same workload
// under different algorithms must produce equal
// Deliveries — the speculative-push safety contract.
type Delivery struct {
	Queues []QueueDelivery `json:"queues"`
}

// QueueDelivery is one queue's slice of a Delivery.
type QueueDelivery struct {
	Name   string        `json:"name"`
	PerSrc []SrcDelivery `json:"per_src"`
}

// SrcDelivery summarizes one producer link's delivered stream.
type SrcDelivery struct {
	Src   int    `json:"src"`
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"` // FNV-1a over payloads in sequence order
}

// Delivery snapshots the checker's observed traffic. Call after the
// run. Queues are listed in name order, not first-observation order, so
// runs that first touch a DAG's queues in different interleavings still
// compare equal when they deliver the same sequences.
func (c *Checker) Delivery() Delivery {
	order := append([]*vlq.Queue(nil), c.order...)
	sort.SliceStable(order, func(i, j int) bool {
		return c.qs[order[i]].name < c.qs[order[j]].name
	})
	var d Delivery
	for _, q := range order {
		st := c.qs[q]
		qd := QueueDelivery{Name: st.name}
		for _, src := range sortedSrcs(st) {
			s := st.srcs[src]
			h := uint64(sim.TraceOffset)
			for seq, p := range s.payload {
				if s.popped[seq] {
					h = sim.TraceFold(h, uint64(seq), p)
				}
			}
			qd.PerSrc = append(qd.PerSrc, SrcDelivery{Src: src, Count: s.nPopped, Sum: h})
		}
		d.Queues = append(d.Queues, qd)
	}
	return d
}

// CompareDeliveries reports the differences between two runs' delivered
// message sequences (empty = identical).
func CompareDeliveries(a, b Delivery) []string {
	var diffs []string
	if len(a.Queues) != len(b.Queues) {
		return []string{fmt.Sprintf("queue count %d != %d", len(a.Queues), len(b.Queues))}
	}
	for i := range a.Queues {
		qa, qb := a.Queues[i], b.Queues[i]
		if qa.Name != qb.Name {
			diffs = append(diffs, fmt.Sprintf("queue %d named %q vs %q", i, qa.Name, qb.Name))
			continue
		}
		if len(qa.PerSrc) != len(qb.PerSrc) {
			diffs = append(diffs, fmt.Sprintf("%s: %d producer links vs %d", qa.Name, len(qa.PerSrc), len(qb.PerSrc)))
			continue
		}
		for j := range qa.PerSrc {
			sa, sb := qa.PerSrc[j], qb.PerSrc[j]
			if sa != sb {
				diffs = append(diffs, fmt.Sprintf("%s src %d: delivered (count %d, sum %#x) vs (count %d, sum %#x)",
					qa.Name, sa.Src, sa.Count, sa.Sum, sb.Count, sb.Sum))
			}
		}
	}
	return diffs
}
