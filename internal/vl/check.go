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
// and consBuf; every entry's chain matches its state (the input,
// per-SQI buffering and sending queues are disjoint, acyclic, and
// correctly terminated, and a request list holds only in-use requests of
// its SQI); and the prodBuf admission accounting (usedPerSQI, sharedUsed,
// activeSQIs) agrees with the tables. It returns the first inconsistency
// found, or nil.
//
// The walk is read-only and safe at any quiescent point of a sequential
// run; the verification oracle calls it online from queue probes and
// once more at drain.
func (d *Device) CheckStructure() error {
	// membership[i] names the chain that linked prodBuf entry i.
	membership := make([]entryState, len(d.prod))

	// prodChain checks a chain of prodBuf entries in state want and,
	// on SQI s's buffering queue (s > 0), tagged s.
	prodChain := func(c chain, want entryState, s SQI) error {
		return c.check(d.prodNext, func(idx int) error {
			switch e := &d.prod[idx]; {
			case membership[idx] != entryFree:
				return fmt.Errorf("prodBuf entry %d also linked by a %s chain", idx, membership[idx])
			case e.state != want:
				return fmt.Errorf("prodBuf entry %d has state %s", idx, e.state)
			case s != 0 && e.sqi != s:
				return fmt.Errorf("prodBuf entry %d tagged SQI %d", idx, e.sqi)
			}
			membership[idx] = want
			return nil
		})
	}
	if err := prodChain(d.input, entryInput, 0); err != nil {
		return fmt.Errorf("vl: input chain: %w", err)
	}
	if err := prodChain(d.send, entrySendQueued, 0); err != nil {
		return fmt.Errorf("vl: send chain: %w", err)
	}

	activeRows := 0
	perSQI := make([]int, len(d.link))
	for s := range d.link {
		row := &d.link[s]
		if row.used {
			activeRows++
		}
		if err := prodChain(row.buf, entryBuffered, SQI(s)); err != nil {
			return fmt.Errorf("vl: SQI %d buffered chain: %w", s, err)
		}
		err := row.reqs.check(d.consNext, func(c int) error {
			switch ce := &d.cons[c]; {
			case !ce.used:
				return fmt.Errorf("consBuf entry %d not in use", c)
			case ce.sqi != SQI(s):
				return fmt.Errorf("consBuf entry %d tagged SQI %d", c, ce.sqi)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("vl: SQI %d request chain: %w", s, err)
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

// check walks the chain over next, handing each entry to visit, which
// fails on an entry that does not belong. check itself fails on an
// index out of range, a chain longer than the table (it cycles), and a
// tail register that does not name the last entry.
func (c chain) check(next []int, visit func(idx int) error) error {
	last := nilIdx
	n := 0
	for idx := c.head; idx != nilIdx; idx = next[idx] {
		if idx < 0 || idx >= len(next) {
			return fmt.Errorf("holds out-of-range index %d", idx)
		}
		if n++; n > len(next) {
			return fmt.Errorf("cycles")
		}
		if err := visit(idx); err != nil {
			return err
		}
		last = idx
	}
	if last != c.tail {
		return fmt.Errorf("tail is %d, register says %d", last, c.tail)
	}
	return nil
}
