package vl

import "fmt"

// FaultDropStash arms a verification fault: the n-th stash delivery
// (1-based, counted across the run) acknowledges a hit without filling
// the target line — the device frees the prodBuf entry believing the
// message arrived, and the message is lost. Intended for internal/oracle
// tests proving the conservation invariant catches real loss.
func (d *Device) FaultDropStash(n uint64) { d.faultDropNth = n }

// FaultCorruptStash arms a verification fault: the n-th stash delivery
// (1-based, counted across the run) fills its target line with a
// payload whose bits were flipped in flight — metadata intact, content
// wrong. Unlike FaultDropStash the run completes normally; only the
// oracle's payload-integrity check can catch it.
func (d *Device) FaultCorruptStash(n uint64) { d.faultCorruptNth = n }

// CheckStructure walks the device tables and verifies their structural
// invariants: the free lists and the allocated entries partition prodBuf
// and consBuf; every entry's queue membership matches its state (input,
// per-SQI buffered, and sending queues are disjoint, acyclic, and
// correctly terminated); and the prodBuf admission accounting
// (usedPerSQI, sharedUsed, activeSQIs) agrees with the tables. It
// returns the first inconsistency found, or nil.
//
// The walk is read-only and safe at any quiescent point of a sequential
// run; the verification oracle calls it online from queue probes and
// once more at drain.
func (d *Device) CheckStructure() error {
	// membership[i] names the queue that linked prodBuf entry i.
	membership := make([]entryState, len(d.prod))

	walk := func(label string, head, tail int, want entryState) error {
		n := 0
		last := nilIdx
		for idx := head; idx != nilIdx; idx = d.prod[idx].next {
			if idx < 0 || idx >= len(d.prod) {
				return fmt.Errorf("vl: %s chain holds out-of-range index %d", label, idx)
			}
			if membership[idx] != entryFree {
				return fmt.Errorf("vl: prodBuf entry %d linked by both %s and %s chains", idx, membership[idx], want)
			}
			membership[idx] = want
			if st := d.prod[idx].state; st != want {
				return fmt.Errorf("vl: prodBuf entry %d in %s chain has state %s", idx, label, st)
			}
			last = idx
			if n++; n > len(d.prod) {
				return fmt.Errorf("vl: %s chain cycles", label)
			}
		}
		if last != tail {
			return fmt.Errorf("vl: %s chain tail is %d, register says %d", label, last, tail)
		}
		return nil
	}

	if err := walk("input", d.inputHead, d.inputTail, entryInput); err != nil {
		return err
	}
	if err := walk("send", d.sendHead, d.sendTail, entrySendQueued); err != nil {
		return err
	}

	activeRows := 0
	perSQI := make([]int, len(d.link))
	for s := range d.link {
		row := &d.link[s]
		if row.used {
			activeRows++
		}
		if row.prodHead == nilIdx && row.consHead == nilIdx && !row.used {
			continue
		}
		if err := walk(fmt.Sprintf("SQI %d buffered", s), row.prodHead, row.prodTail, entryBuffered); err != nil {
			return err
		}
		for idx := row.prodHead; idx != nilIdx; idx = d.prod[idx].next {
			if d.prod[idx].sqi != SQI(s) {
				return fmt.Errorf("vl: prodBuf entry %d buffered under SQI %d but tagged SQI %d", idx, s, d.prod[idx].sqi)
			}
		}
		// Consumer-request chain of the row.
		n := 0
		last := nilIdx
		for c := row.consHead; c != nilIdx; c = d.cons[c].next {
			if c < 0 || c >= len(d.cons) {
				return fmt.Errorf("vl: SQI %d request chain holds out-of-range index %d", s, c)
			}
			ce := &d.cons[c]
			if !ce.used || ce.sqi != SQI(s) {
				return fmt.Errorf("vl: consBuf entry %d in SQI %d chain is used=%v sqi=%d", c, s, ce.used, ce.sqi)
			}
			last = c
			if n++; n > len(d.cons) {
				return fmt.Errorf("vl: SQI %d request chain cycles", s)
			}
		}
		if last != row.consTail {
			return fmt.Errorf("vl: SQI %d request chain tail is %d, register says %d", s, last, row.consTail)
		}
	}
	if activeRows != d.activeSQIs {
		return fmt.Errorf("vl: %d used linkTab rows but activeSQIs=%d", activeRows, d.activeSQIs)
	}

	// Free list vs. states: together with the chain membership above,
	// every entry must be accounted for exactly once.
	for _, idx := range d.freeProd {
		if idx < 0 || idx >= len(d.prod) {
			return fmt.Errorf("vl: prodBuf free list holds out-of-range index %d", idx)
		}
		if membership[idx] != entryFree || d.prod[idx].state != entryFree {
			return fmt.Errorf("vl: prodBuf entry %d on free list with state %s", idx, d.prod[idx].state)
		}
		membership[idx] = entryInput // reuse as a "seen" mark for duplicates
	}
	allocated := 0
	for i := range d.prod {
		st := d.prod[i].state
		if st == entryFree {
			if membership[i] != entryInput {
				return fmt.Errorf("vl: prodBuf entry %d free but not on the free list", i)
			}
			continue
		}
		allocated++
		perSQI[d.prod[i].sqi]++
		// Unlinked states hold the entry outside every chain; linked
		// states must have been claimed by their chain's walk.
		switch st {
		case entryMapping, entrySpecWait, entryInFlight:
			if membership[i] != entryFree {
				return fmt.Errorf("vl: prodBuf entry %d is %s but linked into a %s chain", i, st, membership[i])
			}
		default:
			if membership[i] != st {
				return fmt.Errorf("vl: prodBuf entry %d is %s but not linked into its chain", i, st)
			}
		}
	}
	if allocated+len(d.freeProd) != len(d.prod) {
		return fmt.Errorf("vl: %d allocated + %d free != %d prodBuf entries", allocated, len(d.freeProd), len(d.prod))
	}
	if d.prodHighWater < allocated || d.prodHighWater > len(d.prod) {
		return fmt.Errorf("vl: prodBuf high-water %d outside [allocated %d, capacity %d]", d.prodHighWater, allocated, len(d.prod))
	}

	// Admission accounting: usedPerSQI mirrors the per-SQI allocation
	// counts, and sharedUsed is the beyond-reservation excess.
	shared := 0
	for s := range d.usedPerSQI {
		if d.usedPerSQI[s] != perSQI[s] {
			return fmt.Errorf("vl: SQI %d holds %d prodBuf entries but usedPerSQI says %d", s, perSQI[s], d.usedPerSQI[s])
		}
		if d.usedPerSQI[s] > 1 {
			shared += d.usedPerSQI[s] - 1
		}
	}
	if shared != d.sharedUsed {
		return fmt.Errorf("vl: shared-pool excess is %d but sharedUsed=%d", shared, d.sharedUsed)
	}
	if d.sharedUsed > d.sharedCap() {
		return fmt.Errorf("vl: sharedUsed=%d exceeds shared capacity %d", d.sharedUsed, d.sharedCap())
	}

	// consBuf free list vs. used flags.
	usedCons := 0
	for i := range d.cons {
		if d.cons[i].used {
			usedCons++
		}
	}
	if usedCons+len(d.freeCons) != len(d.cons) {
		return fmt.Errorf("vl: %d used + %d free != %d consBuf entries", usedCons, len(d.freeCons), len(d.cons))
	}
	if d.consHighWater < usedCons || d.consHighWater > len(d.cons) {
		return fmt.Errorf("vl: consBuf high-water %d outside [used %d, capacity %d]", d.consHighWater, usedCons, len(d.cons))
	}
	for _, c := range d.freeCons {
		if c < 0 || c >= len(d.cons) || d.cons[c].used {
			return fmt.Errorf("vl: consBuf free list holds used/out-of-range index %d", c)
		}
	}
	return nil
}
