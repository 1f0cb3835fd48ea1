package vl

import (
	"fmt"

	"spamer/internal/config"
	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
)

// Device is the routing device attached to the coherence network. With a
// nil SpecExtension it is the baseline VLRD; internal/core supplies the
// extension that turns it into the SPAMeR SRD.
type Device struct {
	k   *sim.Kernel
	bus *noc.Bus
	as  *mem.AddressSpace

	spec SpecExtension

	prod []prodEntry
	cons []consEntry
	link []linkRow // indexed by SQI; row 0 reserved

	freeProd []int
	freeCons []int

	// Occupancy peaks: the maximum number of simultaneously allocated
	// prodBuf and consBuf entries ever observed. Purely diagnostic — the
	// admission logic never reads them — but the structural walk checks
	// they bound the live counts, and the harness sizes Table 1 buffers
	// from them.
	prodHighWater int
	consHighWater int

	// Per-SQI prodBuf admission control. Every active SQI has one
	// reserved slot; the remaining entries form a shared pool any SQI
	// may draw from. The reservation guarantees each queue can always
	// buffer at least one message, so a fan-in stage can never wedge
	// the shared buffer and deadlock a pipeline (a cycle we hit with
	// unrestricted sharing: upstream data fills prodBuf, the middle
	// stage blocks pushing downstream, and the pop that would drain the
	// buffer never runs). The shared pool keeps burst throughput on
	// many-queue workloads (halo: 48 SQIs on a 64-entry prodBuf).
	usedPerSQI []int
	sharedUsed int
	activeSQIs int

	// Producer input queue (PIHR/PITR of Figure 5).
	inputHead, inputTail int

	// Sending queue (shared stash output port).
	sendHead, sendTail int

	mapBusy  bool
	sendBusy bool

	nextSQI SQI

	stats Stats

	// Scheduling callbacks bound once at construction. The device
	// schedules events every cycle while traffic flows (mapper ticks,
	// send-issue spacing, bus deliveries); passing these stored func
	// values through sim.Kernel.AfterFunc/noc.Bus.SendFunc with the
	// entry index as the argument keeps the steady-state tick path free
	// of per-event closure allocations.
	mapperTickFn      func(uint64)
	completeMappingFn func(uint64) // arg: prodBuf index
	releaseSpecFn     func(uint64) // arg: prodBuf index
	appendSendFn      func(uint64) // arg: prodBuf index
	deliverStashFn    func(uint64) // arg: prodBuf index
	handleResponseFn  func(uint64) // arg: prodBuf index << 1 | hit
	sendIssueDoneFn   func(uint64)

	// Fault injection (verification only): when faultDropNth is non-zero
	// the faultDropNth-th stash delivery acknowledges a hit without
	// filling the line; when faultCorruptNth is non-zero the
	// faultCorruptNth-th delivery fills the line with a flipped payload.
	// See FaultDropStash and FaultCorruptStash.
	faultDropNth     uint64
	faultCorruptNth  uint64
	stashesDelivered uint64
}

// New creates a routing device on the given kernel, bus and address space.
func New(k *sim.Kernel, bus *noc.Bus, as *mem.AddressSpace, cfg Config) *Device {
	if cfg.ProdEntries == 0 {
		cfg.ProdEntries = config.SRDEntries
	}
	if cfg.ConsEntries == 0 {
		cfg.ConsEntries = config.SRDEntries
	}
	if cfg.LinkEntries == 0 {
		cfg.LinkEntries = config.SRDEntries
	}
	d := &Device{
		k:          k,
		bus:        bus,
		as:         as,
		prod:       make([]prodEntry, cfg.ProdEntries),
		cons:       make([]consEntry, cfg.ConsEntries),
		link:       make([]linkRow, cfg.LinkEntries+1),
		usedPerSQI: make([]int, cfg.LinkEntries+1),
		inputHead:  nilIdx,
		inputTail:  nilIdx,
		sendHead:   nilIdx,
		sendTail:   nilIdx,
		nextSQI:    1,
	}
	for i := range d.prod {
		d.freeProd = append(d.freeProd, i)
		d.prod[i].next = nilIdx
	}
	for i := range d.cons {
		d.freeCons = append(d.freeCons, i)
		d.cons[i].next = nilIdx
	}
	for i := range d.link {
		d.link[i].consHead = nilIdx
		d.link[i].consTail = nilIdx
		d.link[i].prodHead = nilIdx
		d.link[i].prodTail = nilIdx
	}
	d.mapperTickFn = func(uint64) { d.mapperTick() }
	d.completeMappingFn = func(idx uint64) { d.completeMapping(int(idx)) }
	d.releaseSpecFn = func(idx uint64) { d.releaseSpec(int(idx)) }
	d.appendSendFn = func(idx uint64) { d.appendSend(int(idx)) }
	d.deliverStashFn = d.deliverStash
	d.handleResponseFn = func(arg uint64) { d.handleResponse(int(arg>>1), arg&1 != 0) }
	d.sendIssueDoneFn = func(uint64) {
		d.sendBusy = false
		d.ensureSending()
	}
	return d
}

// SetSpecExtension installs the SPAMeR extension. Must be called before
// any traffic reaches the device.
func (d *Device) SetSpecExtension(s SpecExtension) { d.spec = s }

// Speculative reports whether the SPAMeR extension is installed.
func (d *Device) Speculative() bool { return d.spec != nil }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// AllocSQI claims a fresh Shared Queue Identifier. It corresponds to the
// OS-mediated queue creation of the VL library (§3.6: "allocates or frees
// resources via system calls similar to memory management").
func (d *Device) AllocSQI() (SQI, error) {
	for int(d.nextSQI) < len(d.link) {
		s := d.nextSQI
		d.nextSQI++
		if !d.link[s].used {
			d.link[s].used = true
			d.activeSQIs++
			return s, nil
		}
	}
	return 0, fmt.Errorf("vl: linkTab exhausted (%d rows)", len(d.link)-1)
}

// sharedCap is the size of the non-reserved prodBuf pool.
func (d *Device) sharedCap() int {
	c := len(d.prod) - d.activeSQIs
	if c < 0 {
		c = 0
	}
	return c
}

// admitProd decides whether a push for SQI s may take a prodBuf entry,
// updating the reservation accounting. The first entry of an SQI uses
// its reserved slot; further entries draw from the shared pool.
func (d *Device) admitProd(s SQI) bool {
	if len(d.freeProd) == 0 {
		return false
	}
	if d.usedPerSQI[s] == 0 {
		d.usedPerSQI[s]++
		return true
	}
	if d.sharedUsed < d.sharedCap() {
		d.sharedUsed++
		d.usedPerSQI[s]++
		return true
	}
	return false
}

// releaseProd returns the accounting for a freed entry of SQI s.
func (d *Device) releaseProd(s SQI) {
	d.usedPerSQI[s]--
	if d.usedPerSQI[s] >= 1 {
		d.sharedUsed--
	}
}

// FreeSQI releases a Shared Queue Identifier. Undelivered producer data
// is an error; pending consumer requests (e.g. prerequests that will
// never be answered) are flushed, and any speculative targets are
// unregistered.
func (d *Device) FreeSQI(s SQI) error {
	if err := d.checkSQI(s); err != nil {
		return err
	}
	r := &d.link[s]
	if r.prodHead != nilIdx {
		return fmt.Errorf("vl: FreeSQI(%d): undelivered producer data", s)
	}
	for c := r.consHead; c != nilIdx; {
		next := d.cons[c].next
		d.cons[c] = consEntry{next: nilIdx}
		d.freeCons = append(d.freeCons, c)
		c = next
	}
	r.consHead, r.consTail = nilIdx, nilIdx
	if d.spec != nil {
		d.spec.Unregister(s)
	}
	r.used = false
	d.activeSQIs--
	if s < d.nextSQI {
		d.nextSQI = s
	}
	return nil
}

func (d *Device) checkSQI(s SQI) error {
	if s <= 0 || int(s) >= len(d.link) || !d.link[s].used {
		return fmt.Errorf("vl: invalid SQI %d", s)
	}
	return nil
}

// ---------------------------------------------------------------------
// Producer side: vl_push arrival ((3) in Figure 3).
// ---------------------------------------------------------------------

// Push is called when a vl_push packet reaches the device. It returns
// false (NACK) when prodBuf is exhausted; the sender retries. On true,
// ownership of the message has transferred to the device.
func (d *Device) Push(s SQI, msg mem.Message) bool {
	if err := d.checkSQI(s); err != nil {
		panic(err)
	}
	if !d.admitProd(s) {
		d.stats.PushNACKs++
		return false
	}
	idx := d.freeProd[len(d.freeProd)-1]
	d.freeProd = d.freeProd[:len(d.freeProd)-1]
	if used := len(d.prod) - len(d.freeProd); used > d.prodHighWater {
		d.prodHighWater = used
	}
	e := &d.prod[idx]
	*e = prodEntry{state: entryInput, sqi: s, msg: msg, next: nilIdx}
	d.stats.PushAccepts++
	d.appendInput(idx)
	d.ensureMapping()
	return true
}

func (d *Device) appendInput(idx int) {
	d.prod[idx].next = nilIdx
	d.prod[idx].state = entryInput
	if d.inputTail == nilIdx {
		d.inputHead, d.inputTail = idx, idx
		return
	}
	d.prod[d.inputTail].next = idx
	d.inputTail = idx
}

func (d *Device) popInput() int {
	idx := d.inputHead
	if idx == nilIdx {
		return nilIdx
	}
	d.inputHead = d.prod[idx].next
	if d.inputHead == nilIdx {
		d.inputTail = nilIdx
	}
	d.prod[idx].next = nilIdx
	return idx
}

// ---------------------------------------------------------------------
// Address-mapping pipeline (Figure 4): three stages, one entry issued
// per cycle (full pipelining), MapPipelineCycles of latency per entry.
// Completions retire in issue order because every entry has the same
// latency, so per-SQI FIFO order is preserved.
// ---------------------------------------------------------------------

func (d *Device) ensureMapping() {
	if d.mapBusy {
		return
	}
	d.mapBusy = true
	d.mapperTick()
}

// mapperTick issues the input-queue head into the pipeline and
// reschedules itself every cycle until the input queue drains.
func (d *Device) mapperTick() {
	idx := d.popInput()
	if idx == nilIdx {
		d.mapBusy = false
		return
	}
	d.prod[idx].state = entryMapping
	d.k.AfterFunc(config.MapPipelineCycles, d.completeMappingFn, uint64(idx))
	d.k.AfterFunc(1, d.mapperTickFn, 0)
}

func (d *Device) completeMapping(idx int) {
	e := &d.prod[idx]
	s := e.sqi
	row := &d.link[s]

	switch {
	case row.consHead != nilIdx:
		// Stage 2 found a registered consumer request: Path C.
		c := row.consHead
		row.consHead = d.cons[c].next
		if row.consHead == nilIdx {
			row.consTail = nilIdx
		}
		e.target = d.cons[c].target
		e.spec = false
		d.cons[c] = consEntry{next: nilIdx}
		d.freeCons = append(d.freeCons, c)
		d.appendSend(idx)

	default:
		if d.spec != nil {
			if addr, cookie, sendTick, ok := d.spec.SelectTarget(s, d.k.Now()); ok {
				// Path A: speculative push queue.
				e.target = addr
				e.spec = true
				e.cookie = cookie
				e.state = entrySpecWait
				d.stats.SpecScheduled++
				if sendTick < d.k.Now() {
					sendTick = d.k.Now()
				}
				d.k.AtFunc(sendTick, d.releaseSpecFn, uint64(idx))
				break
			}
		}
		// Path B: buffering queue of the SQI.
		d.appendBuffered(s, idx)
	}
}

func (d *Device) appendBuffered(s SQI, idx int) {
	row := &d.link[s]
	e := &d.prod[idx]
	e.state = entryBuffered
	e.next = nilIdx
	if row.prodTail == nilIdx {
		row.prodHead, row.prodTail = idx, idx
		return
	}
	d.prod[row.prodTail].next = idx
	row.prodTail = idx
}

// prependBuffered re-inserts an entry at the head of its SQI's buffering
// queue. Used by the miss-retry path: the missed entry is older than every
// entry currently buffered for the SQI (it passed through the mapping
// pipeline first), so head insertion preserves per-SQI FIFO order. The
// paper re-enters missed entries "after PITR" (§3.1), which can reorder
// them behind younger buffered data; we keep the retry loop but preserve
// order, which the message-conservation invariants of the test suite
// depend on.
func (d *Device) prependBuffered(s SQI, idx int) {
	row := &d.link[s]
	e := &d.prod[idx]
	e.state = entryBuffered
	e.next = row.prodHead
	row.prodHead = idx
	if row.prodTail == nilIdx {
		row.prodTail = idx
	}
}

func (d *Device) popBuffered(s SQI) int {
	row := &d.link[s]
	idx := row.prodHead
	if idx == nilIdx {
		return nilIdx
	}
	row.prodHead = d.prod[idx].next
	if row.prodHead == nilIdx {
		row.prodTail = nilIdx
	}
	d.prod[idx].next = nilIdx
	return idx
}

// DemandRetryCycles spaces retries of an on-demand push whose target
// line has not vacated yet.
const DemandRetryCycles = 16

// releaseSpec moves a spec-wait entry into the sending queue when its
// predicted send tick arrives.
func (d *Device) releaseSpec(idx int) {
	e := &d.prod[idx]
	if e.state != entrySpecWait {
		panic(fmt.Sprintf("vl: releaseSpec on %s entry", e.state))
	}
	d.appendSend(idx)
}

// ---------------------------------------------------------------------
// Sending queue: stash issue, one per SendIssueCycles (shared port).
// ---------------------------------------------------------------------

func (d *Device) appendSend(idx int) {
	e := &d.prod[idx]
	e.state = entrySendQueued
	e.next = nilIdx
	if d.sendTail == nilIdx {
		d.sendHead, d.sendTail = idx, idx
	} else {
		d.prod[d.sendTail].next = idx
		d.sendTail = idx
	}
	d.ensureSending()
}

func (d *Device) ensureSending() {
	if d.sendBusy || d.sendHead == nilIdx {
		return
	}
	d.sendBusy = true
	idx := d.sendHead
	d.sendHead = d.prod[idx].next
	if d.sendHead == nilIdx {
		d.sendTail = nilIdx
	}
	e := &d.prod[idx]
	e.next = nilIdx
	e.state = entryInFlight
	if e.spec {
		d.stats.SpecPushes++
	} else {
		d.stats.DemandPushes++
	}
	d.bus.SendFunc(noc.PktStash, d.deliverStashFn, uint64(idx))
	d.k.AfterFunc(config.SendIssueCycles, d.sendIssueDoneFn, 0)
}

// deliverStash runs at the stash packet's arrival tick: the targeted
// line tries to take the fill, and the hit/miss response signal travels
// back to the device (Figure 5). The entry stays entryInFlight — and its
// target and msg stay frozen — until handleResponse, so reading them at
// delivery time is equivalent to capturing them at issue time without
// allocating a closure per packet.
func (d *Device) deliverStash(idx uint64) {
	e := &d.prod[idx]
	d.stashesDelivered++
	if d.faultDropNth != 0 && d.stashesDelivered == d.faultDropNth {
		// Injected loss: report a hit without filling the line, so the
		// device frees the entry and the message vanishes.
		d.bus.SendFunc(noc.PktResp, d.handleResponseFn, idx<<1|1)
		return
	}
	msg := e.msg
	if d.faultCorruptNth != 0 && d.stashesDelivered == d.faultCorruptNth {
		// Injected corruption: the fill carries a flipped payload while
		// seq/src metadata stays intact, so delivery succeeds and only a
		// content check can tell the message went bad in flight.
		msg.Payload ^= 0xbad0_dead_beef_cafe
	}
	line := d.as.Lookup(e.target)
	var hitBit uint64
	if line.TryFill(msg) {
		hitBit = 1
	}
	// Response signal from the targeted cache controller (Figure 5).
	d.bus.SendFunc(noc.PktResp, d.handleResponseFn, idx<<1|hitBit)
}

// handleResponse implements the hit/miss outcomes of Figure 5: "hit
// invalidates prodBuf entry … miss reenters prodBuf entry".
func (d *Device) handleResponse(idx int, hit bool) {
	e := &d.prod[idx]
	if e.state != entryInFlight {
		panic(fmt.Sprintf("vl: response for %s entry", e.state))
	}
	s := e.sqi
	wasSpec := e.spec
	if wasSpec {
		d.spec.OnResult(e.cookie, hit, d.k.Now())
		if hit {
			d.stats.SpecHits++
		} else {
			d.stats.SpecMisses++
		}
	} else {
		if hit {
			d.stats.DemandHits++
		} else {
			d.stats.DemandMisses++
		}
	}
	switch {
	case hit:
		d.releaseProd(s)
		*e = prodEntry{state: entryFree, next: nilIdx}
		d.freeProd = append(d.freeProd, idx)
	case wasSpec:
		// Speculative retry: the entry goes back to the front of its
		// SQI's buffering queue and is re-dispatched — to a pending
		// consumer request if one arrived meanwhile, else to a
		// (possibly new) speculative target with an updated delay.
		e.target = 0
		e.spec = false
		d.prependBuffered(s, idx)
		d.matchPending(s)
	default:
		// On-demand retry: the consumer request named this line and
		// stays armed until satisfied — a miss means the line had not
		// vacated yet, so retry the same entry/target pairing after a
		// short backoff. Dropping the pairing instead would consume the
		// request without a fill and strand the data (the consumer
		// tracks one outstanding request per line and will not repost).
		e.state = entrySpecWait // parked until its re-send tick
		d.k.AfterFunc(DemandRetryCycles, d.appendSendFn, uint64(idx))
	}
	if wasSpec {
		// The response cleared the entry's on-fly throttle; buffered
		// data of this SQI may now have a speculation opportunity.
		d.kickBuffered(s)
	}
	d.ensureMapping()
}

// matchPending pairs buffered producer data with queued consumer requests
// of the same SQI, oldest-to-oldest, dispatching each pair to the sending
// queue. This mirrors what the mapping pipeline would do if the entries
// re-entered it while requests were waiting.
func (d *Device) matchPending(s SQI) {
	row := &d.link[s]
	for row.prodHead != nilIdx && row.consHead != nilIdx {
		idx := d.popBuffered(s)
		c := row.consHead
		row.consHead = d.cons[c].next
		if row.consHead == nilIdx {
			row.consTail = nilIdx
		}
		e := &d.prod[idx]
		e.target = d.cons[c].target
		e.spec = false
		d.cons[c] = consEntry{next: nilIdx}
		d.freeCons = append(d.freeCons, c)
		d.appendSend(idx)
	}
}

// kickBuffered gives the head of an SQI's buffering queue a speculation
// opportunity. Taking only the head, directly (without re-entering the
// input queue), preserves per-SQI FIFO order.
func (d *Device) kickBuffered(s SQI) {
	if d.spec == nil {
		return
	}
	row := &d.link[s]
	for row.prodHead != nilIdx && row.consHead == nilIdx {
		addr, cookie, sendTick, ok := d.spec.SelectTarget(s, d.k.Now())
		if !ok {
			return
		}
		idx := d.popBuffered(s)
		e := &d.prod[idx]
		e.target = addr
		e.spec = true
		e.cookie = cookie
		e.state = entrySpecWait
		d.stats.SpecScheduled++
		if sendTick < d.k.Now() {
			sendTick = d.k.Now()
		}
		d.k.AtFunc(sendTick, d.releaseSpecFn, uint64(idx))
	}
}

// ---------------------------------------------------------------------
// Consumer side: vl_fetch arrival ((4) in Figure 3).
// ---------------------------------------------------------------------

// Fetch is called when a vl_fetch packet reaches the device. It returns
// false (NACK) when consBuf is exhausted. A fetch that finds buffered
// producer data dispatches it immediately; otherwise the request is
// registered in consBuf.
func (d *Device) Fetch(s SQI, target mem.Addr) bool {
	if err := d.checkSQI(s); err != nil {
		panic(err)
	}
	d.stats.Fetches++
	if idx := d.popBuffered(s); idx != nilIdx {
		e := &d.prod[idx]
		e.target = target
		e.spec = false
		d.appendSend(idx)
		return true
	}
	if len(d.freeCons) == 0 {
		d.stats.FetchNACKs++
		return false
	}
	c := d.freeCons[len(d.freeCons)-1]
	d.freeCons = d.freeCons[:len(d.freeCons)-1]
	if used := len(d.cons) - len(d.freeCons); used > d.consHighWater {
		d.consHighWater = used
	}
	d.cons[c] = consEntry{used: true, sqi: s, target: target, next: nilIdx}
	row := &d.link[s]
	if row.consTail == nilIdx {
		row.consHead, row.consTail = c, c
	} else {
		d.cons[row.consTail].next = c
		row.consTail = c
	}
	return true
}

// Register is called when a spamer_register packet reaches the device
// (§3.3): a vl_fetch alias addressed to the specBuf device-memory range.
func (d *Device) Register(s SQI, base mem.Addr, n int) error {
	if err := d.checkSQI(s); err != nil {
		return err
	}
	if d.spec == nil {
		return fmt.Errorf("vl: spamer_register on a device without speculation support")
	}
	d.stats.Registers++
	if err := d.spec.Register(s, base, n); err != nil {
		return err
	}
	// Newly registered targets may unblock buffered producer data.
	d.kickBuffered(s)
	return nil
}

// ---------------------------------------------------------------------
// Introspection for tests and the harness.
// ---------------------------------------------------------------------

// FreeProdEntries reports the number of unallocated prodBuf slots.
func (d *Device) FreeProdEntries() int { return len(d.freeProd) }

// FreeConsEntries reports the number of unallocated consBuf slots.
func (d *Device) FreeConsEntries() int { return len(d.freeCons) }

// ProdHighWater reports the peak number of simultaneously allocated
// prodBuf entries.
func (d *Device) ProdHighWater() int { return d.prodHighWater }

// ConsHighWater reports the peak number of simultaneously allocated
// consBuf entries.
func (d *Device) ConsHighWater() int { return d.consHighWater }

// BufferedLen reports the length of the buffering queue of an SQI.
func (d *Device) BufferedLen(s SQI) int {
	n := 0
	for idx := d.link[s].prodHead; idx != nilIdx; idx = d.prod[idx].next {
		n++
	}
	return n
}

// PendingRequests reports the number of consBuf requests queued for s.
func (d *Device) PendingRequests(s SQI) int {
	n := 0
	for c := d.link[s].consHead; c != nilIdx; c = d.cons[c].next {
		n++
	}
	return n
}

// Quiescent reports whether the device holds no producer data and no
// in-flight work (pending consumer requests are allowed: a demand-driven
// consumer parks requests that no producer will ever answer once the
// workload drains).
func (d *Device) Quiescent() bool {
	return len(d.freeProd) == len(d.prod) && !d.mapBusy && !d.sendBusy
}
