package vl

import (
	"fmt"
	"sync"

	"spamer/internal/blocks"
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

	// The next columns of prodBuf and consBuf: the entry after each one
	// in its chain.
	prodNext []int
	consNext []int

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

	input chain // producer input queue (PIHR/PITR of Figure 5)
	send  chain // sending queue (shared stash output port)

	mapBusy  bool
	sendBusy bool

	nextSQI SQI

	stats Stats

	callbacks

	// Fault injection (verification only): when faultDropNth is non-zero
	// the faultDropNth-th stash delivery acknowledges a hit without
	// filling the line; when faultCorruptNth is non-zero the
	// faultCorruptNth-th delivery fills the line with a flipped payload.
	// See FaultDropStash and FaultCorruptStash.
	faultDropNth     uint64
	faultCorruptNth  uint64
	stashesDelivered uint64
}

// callbacks are the device's scheduling callbacks. The device schedules
// events every cycle while traffic flows (mapper ticks, send-issue
// spacing, bus deliveries); passing these stored func values through
// sim.Kernel.AfterFunc/noc.Bus.SendFunc with the entry index as the
// argument keeps the steady-state tick path free of per-event closure
// allocations. They capture only their device, so they are bound once
// per Device value and survive recycling.
type callbacks struct {
	mapperTickFn      func(uint64)
	completeMappingFn func(uint64) // arg: prodBuf index
	releaseSpecFn     func(uint64) // arg: prodBuf index
	appendSendFn      func(uint64) // arg: prodBuf index
	deliverStashFn    func(uint64) // arg: prodBuf index
	handleResponseFn  func(uint64) // arg: prodBuf index << 1 | hit
	sendIssueDoneFn   func(uint64)
}

// devices holds released devices for New to reuse (see Release).
var devices sync.Pool

// New creates a routing device on the given kernel, bus and address
// space. It reuses the storage of a released device when the pool holds
// one.
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
	d, _ := devices.Get().(*Device)
	if d == nil {
		d = new(Device)
	}
	d.init(k, bus, as, cfg)
	return d
}

// init empties the device and sizes its tables to cfg, reusing the
// arrays a released device brings when they are large enough, so a
// fresh and a recycled device start from the same state.
func (d *Device) init(k *sim.Kernel, bus *noc.Bus, as *mem.AddressSpace, cfg Config) {
	*d = Device{
		k:          k,
		bus:        bus,
		as:         as,
		prod:       blocks.Resize(d.prod, cfg.ProdEntries),
		cons:       blocks.Resize(d.cons, cfg.ConsEntries),
		link:       blocks.Resize(d.link, cfg.LinkEntries+1),
		prodNext:   blocks.Resize(d.prodNext, cfg.ProdEntries),
		consNext:   blocks.Resize(d.consNext, cfg.ConsEntries),
		freeProd:   blocks.Resize(d.freeProd, cfg.ProdEntries),
		freeCons:   blocks.Resize(d.freeCons, cfg.ConsEntries),
		usedPerSQI: blocks.Resize(d.usedPerSQI, cfg.LinkEntries+1),
		input:      emptyChain,
		send:       emptyChain,
		nextSQI:    1,
		callbacks:  d.callbacks,
	}
	for i := range d.freeProd {
		d.freeProd[i] = i
	}
	for i := range d.freeCons {
		d.freeCons[i] = i
	}
	for i := range d.link {
		d.link[i] = linkRow{reqs: emptyChain, buf: emptyChain}
	}
	if d.mapperTickFn == nil {
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
	}
}

// Release hands the device's storage to a later New. Call it only when
// nothing will touch the device again: the next device may already own
// the storage. The tables hold only indices and message words, so
// dropping the kernel, bus, address space and specBuf extension leaves
// a pooled device referring to nothing but itself.
func (d *Device) Release() {
	d.k, d.bus, d.as, d.spec = nil, nil, nil, nil
	devices.Put(d)
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
	if r.buf.head != nilIdx {
		return fmt.Errorf("vl: FreeSQI(%d): undelivered producer data", s)
	}
	for r.reqs.head != nilIdx {
		d.takeRequest(r)
	}
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
// false (NACK) when prodBuf is exhausted; the producer endpoint replays
// the write. On true, ownership of the message has transferred to the
// device.
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
	d.prod[idx] = prodEntry{state: entryInput, sqi: s, msg: msg}
	d.stats.PushAccepts++
	d.input.push(d.prodNext, idx)
	d.ensureMapping()
	return true
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
	idx := d.input.pop(d.prodNext)
	if idx == nilIdx {
		d.mapBusy = false
		return
	}
	d.prod[idx].state = entryMapping
	d.k.AfterFunc(config.MapPipelineCycles, d.completeMappingFn, uint64(idx))
	d.k.AfterFunc(1, d.mapperTickFn, 0)
}

func (d *Device) completeMapping(idx int) {
	s := d.prod[idx].sqi
	row := &d.link[s]
	switch {
	case row.reqs.head != nilIdx:
		// Stage 2 found a registered consumer request: Path C.
		d.sendTo(idx, d.takeRequest(row))
	case d.trySpec(s, idx):
		// Path A: the entry waits in the speculative push queue.
	default:
		// Path B: buffering queue of the SQI.
		d.prod[idx].state = entryBuffered
		row.buf.push(d.prodNext, idx)
	}
}

// takeRequest pops the oldest consumer request of a row, frees its
// consBuf entry and returns the line it names.
func (d *Device) takeRequest(row *linkRow) mem.Addr {
	c := row.reqs.pop(d.consNext)
	target := d.cons[c].target
	d.cons[c] = consEntry{}
	d.freeCons = append(d.freeCons, c)
	return target
}

// sendTo dispatches prodBuf entry idx on demand to the line a consumer
// request named: the entry joins the sending queue.
func (d *Device) sendTo(idx int, target mem.Addr) {
	e := &d.prod[idx]
	e.target = target
	e.spec = false
	d.appendSend(idx)
}

// trySpec is Path A: it asks the SpecExtension for a target of SQI s
// and, when there is one, parks prodBuf entry idx in the speculative
// push queue until the predicted send tick. It reports whether the
// entry was taken.
func (d *Device) trySpec(s SQI, idx int) bool {
	if d.spec == nil {
		return false
	}
	addr, cookie, sendTick, ok := d.spec.SelectTarget(s, d.k.Now())
	if !ok {
		return false
	}
	e := &d.prod[idx]
	e.target = addr
	e.spec = true
	e.cookie = cookie
	e.state = entrySpecWait
	d.stats.SpecScheduled++
	d.k.AtFunc(max(sendTick, d.k.Now()), d.releaseSpecFn, uint64(idx))
	return true
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
	d.prod[idx].state = entrySendQueued
	d.send.push(d.prodNext, idx)
	d.ensureSending()
}

func (d *Device) ensureSending() {
	if d.sendBusy || d.send.head == nilIdx {
		return
	}
	d.sendBusy = true
	idx := d.send.pop(d.prodNext)
	e := &d.prod[idx]
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
		*e = prodEntry{}
		d.freeProd = append(d.freeProd, idx)
	case wasSpec:
		// Speculative retry: the entry goes back to the front of its
		// SQI's buffering queue and is re-dispatched — to a pending
		// consumer request if one arrived meanwhile, else to a
		// (possibly new) speculative target with an updated delay.
		// The missed entry is older than every entry buffered for the
		// SQI (it passed through the mapping pipeline first), so the
		// head keeps per-SQI FIFO order. The paper re-enters missed
		// entries "after PITR" (§3.1), which can reorder them behind
		// younger buffered data; we keep the retry loop but preserve
		// order, which the message-conservation invariants of the test
		// suite depend on.
		e.target = 0
		e.spec = false
		e.state = entryBuffered
		d.link[s].buf.pushFront(d.prodNext, idx)
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
	for row.buf.head != nilIdx && row.reqs.head != nilIdx {
		d.sendTo(row.buf.pop(d.prodNext), d.takeRequest(row))
	}
}

// kickBuffered gives the head of an SQI's buffering queue a speculation
// opportunity. Taking only the head, directly (without re-entering the
// input queue), preserves per-SQI FIFO order.
func (d *Device) kickBuffered(s SQI) {
	row := &d.link[s]
	for row.buf.head != nilIdx && row.reqs.head == nilIdx && d.trySpec(s, row.buf.head) {
		row.buf.pop(d.prodNext)
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
	row := &d.link[s]
	if idx := row.buf.pop(d.prodNext); idx != nilIdx {
		d.sendTo(idx, target)
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
	d.cons[c] = consEntry{used: true, sqi: s, target: target}
	row.reqs.push(d.consNext, c)
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
func (d *Device) BufferedLen(s SQI) int { return d.link[s].buf.len(d.prodNext) }

// PendingRequests reports the number of consBuf requests queued for s.
func (d *Device) PendingRequests(s SQI) int { return d.link[s].reqs.len(d.consNext) }

// Quiescent reports whether the device holds no producer data and no
// in-flight work (pending consumer requests are allowed: a demand-driven
// consumer parks requests that no producer will ever answer once the
// workload drains).
func (d *Device) Quiescent() bool {
	return len(d.freeProd) == len(d.prod) && !d.mapBusy && !d.sendBusy
}
