package dag

import (
	"fmt"

	"spamer"
	"spamer/internal/mem"
	"spamer/internal/sim"
	"spamer/internal/traffic"
)

// plan is the static realization of a spec at one scale: resolved edge
// policies and statically propagated per-replica message counts. Build
// computes it fresh per run; tests use it to assert count propagation.
type plan struct {
	spec  *Spec
	scale int
	idx   map[string]int
	// counts[i][r] is the item count of stage i's replica r. Dynamic
	// sinks (shared M:N drains) carry -1; their totals live on the edge.
	counts [][]int
	edges  []edgePlan
}

type edgePlan struct {
	policy string
	fi, ti int
	// total is the edge's whole-run message count (the WorkCounter
	// budget on dynamic shared edges).
	total int
}

// shardCount is the number of items j in [0, k) a shard producer with
// rotation p routes to consumer c of n: j with (j+p) mod n == c.
func shardCount(k, p, c, n int) int {
	r := ((c-p)%n + n) % n
	if k <= r {
		return 0
	}
	return (k - r + n - 1) / n
}

// newPlan propagates message counts through the DAG in topological
// order. The spec must have passed Validate.
func (s *Spec) newPlan(scale int) (*plan, error) {
	if scale <= 0 {
		scale = 1
	}
	idx, err := s.stageIndex()
	if err != nil {
		return nil, err
	}
	order, err := s.topoOrder(idx)
	if err != nil {
		return nil, err
	}
	p := &plan{spec: s, scale: scale, idx: idx}
	p.counts = make([][]int, len(s.Stages))
	p.edges = make([]edgePlan, len(s.Edges))
	for i := range s.Edges {
		e := &s.Edges[i]
		fi, ti := idx[e.From], idx[e.To]
		p.edges[i] = edgePlan{
			policy: resolvePolicy(e, &s.Stages[fi], &s.Stages[ti]),
			fi:     fi, ti: ti,
		}
	}
	indeg := s.inDegree(idx)
	for _, si := range order {
		st := &s.Stages[si]
		c := make([]int, st.Replicas)
		if indeg[si] == 0 {
			for r := range c {
				if len(st.Replay) > 0 {
					// Replica r replays events r, r+R, ... — counts come
					// from the trace and are not scaled.
					c[r] = (len(st.Replay) - r + st.Replicas - 1) / st.Replicas
				} else {
					c[r] = st.Messages * scale
				}
			}
		} else {
			dynamic := false
			for ei := range p.edges {
				ep := &p.edges[ei]
				if ep.ti != si {
					continue
				}
				from := p.counts[ep.fi]
				switch ep.policy {
				case PolicyPair:
					for r := range c {
						c[r] += from[r]
					}
				case PolicyShard:
					for r := range c {
						for pr := range from {
							c[r] += shardCount(from[pr], pr, r, st.Replicas)
						}
					}
				case PolicyShared:
					total := 0
					for pr := range from {
						total += from[pr]
					}
					if st.Replicas > 1 {
						dynamic = true
					} else {
						c[0] += total
					}
				}
			}
			if dynamic {
				for r := range c {
					c[r] = -1
				}
			}
		}
		p.counts[si] = c
	}
	// Edge totals: sum of the producer side's per-replica counts.
	for ei := range p.edges {
		ep := &p.edges[ei]
		for _, k := range p.counts[ep.fi] {
			ep.total += k
		}
	}
	return p, nil
}

// TotalMessages returns the whole-run queue message count at the given
// scale (the sum over edges of their producer-side emissions).
func (s *Spec) TotalMessages(scale int) int {
	p, err := s.newPlan(scale)
	if err != nil {
		return 0
	}
	total := 0
	for i := range p.edges {
		total += p.edges[i].total
	}
	return total
}

// outPort is one replica's producer side of one edge: a single endpoint
// on pair/shared edges, N rotated endpoints on shard edges.
type outPort struct {
	qs     []*spamer.Queue    // the queues the replica feeds on the edge
	txs    []*spamer.Producer // their endpoints, once opened
	window int
	rot    int // shard rotation = producer replica index
	gid    int // global endpoint id feeding payloadFor
}

// payloadFor is the canonical payload of the j-th message of port gid —
// the same Fibonacci-hash spread the synthetic shapes use, so corrupted
// or cross-wired deliveries cannot alias a valid payload by accident.
func payloadFor(gid, j int) uint64 {
	return (uint64(gid)<<32 | uint64(uint32(j))) * 0x9e3779b97f4a7c15
}

// edgeLines is the consumer line-page size of an edge.
func edgeLines(e *Edge) int {
	if e.Lines == 0 {
		return 2
	}
	return e.Lines
}

// Build realizes the DAG on sys: queues in edge-declaration order,
// threads in stage-declaration order (replica-major), so core
// placement and the dispatch trace are pure functions of the spec. The
// spec must have passed Validate; Build panics otherwise.
func (s *Spec) Build(sys *spamer.System, scale int) {
	p, err := s.newPlan(scale)
	if err != nil {
		panic("dag: Build on invalid spec: " + err.Error())
	}

	// Queue layout per edge: pair holds R queues indexed by replica;
	// shard holds M*N queues producer-major (p*N + c); shared holds 1.
	queues := make([][]*spamer.Queue, len(s.Edges))
	counters := make([]*spamer.WorkCounter, len(s.Edges))
	for ei := range s.Edges {
		e := &s.Edges[ei]
		ep := &p.edges[ei]
		name := fmt.Sprintf("%s>%s", e.From, e.To)
		switch ep.policy {
		case PolicyPair:
			n := s.Stages[ep.fi].Replicas
			qs := make([]*spamer.Queue, n)
			for r := 0; r < n; r++ {
				qs[r] = sys.NewQueue(fmt.Sprintf("%s.p%d", name, r))
			}
			queues[ei] = qs
		case PolicyShard:
			m, n := s.Stages[ep.fi].Replicas, s.Stages[ep.ti].Replicas
			qs := make([]*spamer.Queue, m*n)
			for pr := 0; pr < m; pr++ {
				for c := 0; c < n; c++ {
					qs[pr*n+c] = sys.NewQueue(fmt.Sprintf("%s.s%d.%d", name, pr, c))
				}
			}
			queues[ei] = qs
		case PolicyShared:
			queues[ei] = []*spamer.Queue{sys.NewQueue(name)}
			if s.Stages[ep.ti].Replicas > 1 {
				counters[ei] = spamer.NewWorkCounter(name, ep.total)
			}
		}
	}

	reps := make([]replica, s.Threads())
	gid := 0 // global out-port id, assigned in spawn order
	i := 0
	for si := range s.Stages {
		st := &s.Stages[si]
		for r := 0; r < st.Replicas; r++ {
			m := &reps[i]
			i++
			*m = replica{st: st, n: p.counts[si][r], smp: newSampler(st.Work, s.Seed, si, r),
				arrivalID: s.globalReplica(si, r), r: r}

			// Producer ports, in edge-declaration order.
			for ei := range s.Edges {
				ep := &p.edges[ei]
				if ep.fi != si {
					continue
				}
				o := outPort{window: s.Edges[ei].Window, gid: gid}
				gid++
				switch ep.policy {
				case PolicyPair:
					o.qs = queues[ei][r : r+1]
				case PolicyShard:
					n := s.Stages[ep.ti].Replicas
					o.qs = queues[ei][r*n : (r+1)*n]
					o.rot = r
				case PolicyShared:
					o.qs = queues[ei]
				}
				o.txs = make([]*spamer.Producer, len(o.qs))
				m.ports = append(m.ports, o)
			}

			// Consumer streams: one per incoming queue, in
			// edge-declaration order (shard edges contribute one stream
			// per producer replica). A dynamic sink's only input is its
			// shared edge, drained through the edge's WorkCounter.
			for ei := range s.Edges {
				ep := &p.edges[ei]
				if ep.ti != si {
					continue
				}
				lines := edgeLines(&s.Edges[ei])
				from := p.counts[ep.fi]
				switch ep.policy {
				case PolicyPair:
					m.streams = append(m.streams, inStream{q: queues[ei][r], lines: lines, remaining: from[r]})
				case PolicyShard:
					for pr := range from {
						m.streams = append(m.streams, inStream{q: queues[ei][pr*st.Replicas+r], lines: lines,
							remaining: shardCount(from[pr], pr, r, st.Replicas)})
					}
				case PolicyShared:
					m.streams = append(m.streams, inStream{q: queues[ei][0], lines: lines, remaining: ep.total})
					m.wc = counters[ei]
				}
			}
			m.sigs = make([]*sim.Signal, 0, len(m.streams))

			m.spawn(sys, fmt.Sprintf("dag/%s.%d", st.Name, r))
		}
	}
}

// inStream is one statically-counted input queue of a replica.
type inStream struct {
	q         *spamer.Queue
	lines     int
	rx        *spamer.Consumer // the endpoint on q, once opened
	remaining int
	taken     int // messages popped so far; next line is taken % lines
}

// ready reports whether the stream's next line already holds a message
// (valid, or evicted with its write-back preserved) so a Pop completes
// without waiting for a new delivery.
func (in *inStream) ready() bool {
	lines := in.rx.Lines()
	return lines[in.taken%len(lines)].State != mem.LineEmpty
}

// fillSignal is the wake-up signal of the stream's next line.
func (in *inStream) fillSignal() *sim.Signal {
	lines := in.rx.Lines()
	return &lines[in.taken%len(lines)].OnFill
}

// replica is one stage replica, a thread on System.SpawnFunc: a state
// machine whose steps are kernel events and the continuations of its
// queue operations, so a message costs no host thread switch. It
// opens its producers, then its consumers, and runs as a source, a
// WorkCounter drain (a dynamic sink) or the fair merge of an interior
// stage. Each work draw is its own AfterFunc event, and a zero draw
// schedules none; each queue operation and endpoint open happens in the
// order a replica written as a loop makes it, so the dispatch trace is
// the one the goldens recorded with blocking replicas
// (TestGoldenDAGScenarios and the oracle's
// TestGoldenGeneratedDAGTraces pin it).
type replica struct {
	k    *sim.Kernel
	task *sim.Task
	step func(uint64)
	cell sim.WaitCell // the merge's wait on its streams' fill signals

	st        *Stage
	r         int // replica index in the stage
	n         int // items a source emits
	smp       sampler
	arrivalID int // the replica's arrival stream (sources with Arrival)

	ports   []outPort
	streams []inStream
	sigs    []*sim.Signal       // the merge's wait set
	wc      *spamer.WorkCounter // a dynamic sink's shared count

	// Open-loop source: the arrival source and one chunk of arrival
	// ticks, refilled in place.
	src *traffic.Source
	buf []uint64
	pos int

	j      int // the current item; items before it are emitted
	o      int // cursor: endpoint being opened, port being pushed, stream being prefetched
	active int // merge: streams with messages left
	cursor int // merge: rotation start
	picked int // merge: the stream being popped
}

// replica steps.
const (
	rpStart      uint64 = iota // open the producers
	rpOpen                     // open the consumers from streams[o] on
	rpOpened                   // consumer streams[o] registered
	rpSource                   // source: start item j, or exit after the last
	rpSourceWork               // source: charge item j's work
	rpEmit                     // push item j on ports[o] on
	rpEmitted                  // ports[o]'s push done
	rpTake                     // drain: take the next message, or exit
	rpTook                     // drain: a take completed
	rpMerge                    // merge: pop the first ready stream, or prefetch and wait
	rpPrefetched               // merge: streams[o]'s prefetch done
	rpPopped                   // merge: streams[picked]'s pop done
)

// spawn adds the replica to sys; its first step runs at tick 0.
func (m *replica) spawn(sys *spamer.System, name string) {
	m.k, m.step = sys.Kernel(), m.run
	m.cell.Init(m.k, m.step)
	m.task = sys.SpawnFunc(name, m.step, rpStart).Task
}

// compute charges d cycles of local work, then runs step next.
func (m *replica) compute(d, next uint64) { m.k.AfterFunc(d, m.step, next) }

// then is the continuation that resumes the replica at step next.
func (m *replica) then(next uint64) sim.Cont { return sim.Cont{Fn: m.step, Arg: next} }

// run advances the replica from step state until it waits on an event
// or a queue operation, or exits. Steps that complete at once loop
// here rather than recurse, so a source with no work and no outputs
// runs its items in one step.
func (m *replica) run(state uint64) {
	for {
		switch state {
		case rpStart:
			for k := range m.ports {
				o := &m.ports[k]
				for c, q := range o.qs {
					o.txs[c] = q.NewProducer(o.window)
				}
			}
			state = rpOpen
		case rpOpened:
			m.o++
			state = rpOpen
		case rpOpen:
			for ; m.o < len(m.streams); m.o++ {
				in := &m.streams[m.o]
				var pending bool
				in.rx, pending = in.q.NewConsumerThen(in.lines, m.then(rpOpened))
				if pending {
					return
				}
			}
			switch {
			case m.wc != nil:
				state = rpTake
			case len(m.streams) == 0:
				m.startSource()
				state = rpSource
			default:
				for k := range m.streams {
					if m.streams[k].remaining > 0 {
						m.active++
					}
				}
				state = rpMerge
			}

		case rpSource:
			if m.j == m.n {
				m.task.Exit()
				return
			}
			var at uint64
			switch {
			case len(m.st.Replay) > 0:
				at = m.replayEvent().At
			case m.src != nil:
				if m.pos == len(m.buf) {
					m.src.Fill(m.buf)
					m.pos = 0
				}
				at = m.buf[m.pos]
				m.pos++
			}
			// Open loop: idle until the item is due. A replica that fell
			// behind emits at once — the schedule never slips.
			if now := m.k.Now(); now < at {
				m.compute(at-now, rpSourceWork)
				return
			}
			state = rpSourceWork
		case rpSourceWork:
			var w uint64
			if len(m.st.Replay) > 0 {
				ev := m.replayEvent()
				w = ev.Work + ev.Size*m.st.WorkPerByte
			} else {
				w = m.smp.draw()
			}
			if m.work(w) {
				return
			}
			state = rpEmit

		case rpEmitted:
			m.o++
			state = rpEmit
		case rpEmit:
			if m.o < len(m.ports) {
				o := &m.ports[m.o]
				o.txs[(m.j+o.rot)%len(o.txs)].PushThen(payloadFor(o.gid, m.j), m.then(rpEmitted))
				return
			}
			m.j++
			state = rpSource
			if len(m.streams) > 0 {
				state = rpMerge
			}

		case rpTake:
			if !m.wc.TakeThen(m.streams[0].rx, m.then(rpTook)) {
				m.task.Exit()
			}
			return
		case rpTook:
			if _, ok := m.streams[0].rx.Result(); !ok {
				m.task.Exit()
				return
			}
			if w := m.smp.draw(); w > 0 {
				m.compute(w, rpTake)
				return
			}
			state = rpTake

		case rpMerge:
			if m.active == 0 {
				m.task.Exit()
				return
			}
			if !m.merge() {
				m.sigs, m.o = m.sigs[:0], 0
				m.prefetch()
			}
			return
		case rpPrefetched:
			if !m.prefetched() {
				m.o++
				m.prefetch()
			}
			return
		case rpPopped:
			in := &m.streams[m.picked]
			in.taken++
			in.remaining--
			if in.remaining == 0 {
				m.active--
			}
			m.cursor = (m.picked + 1) % len(m.streams)
			if m.work(m.smp.draw()) {
				return
			}
			state = rpEmit
		}
	}
}

// work starts item j's emission after w cycles of work: with w > 0 it
// schedules the compute event that emits the item and reports true; a
// zero draw schedules nothing, and the caller emits at once.
func (m *replica) work(w uint64) bool {
	m.o = 0
	if w > 0 {
		m.compute(w, rpEmit)
		return true
	}
	return false
}

// startSource prepares a source replica's arrival schedule.
func (m *replica) startSource() {
	if m.st.Arrival == nil {
		return
	}
	// The stream is selected by a globally unique endpoint id so
	// replicas of different stages never share arrival draws.
	m.src = traffic.NewSource(*m.st.Arrival, m.arrivalID)
	m.buf = make([]uint64, min(arrivalChunk, m.n))
	m.pos = len(m.buf)
}

// replayEvent is the recorded event of a replaying source's item j:
// replica r replays events r, r+R, ...
func (m *replica) replayEvent() *TraceEvent {
	return &m.st.Replay[m.r+m.j*m.st.Replicas]
}

// merge pops the first stream, from the rotation cursor on, whose next
// line already holds data; it reports false when no stream is ready.
//
// The interior stage is an event-driven fair merge. Each round pops the
// first ready rotation stream; when no stream is ready, the replica
// keeps one demand request posted per stream and waits on the union of
// their fill signals. A consumer therefore never blocks on one empty
// stream while another stream has deliverable data sitting in the
// routing device — the strict round-robin alternative deadlocks on
// diamonds once bounded push windows and the shared prodBuf pool fill
// with messages only this replica can drain.
func (m *replica) merge() bool {
	for off := range m.streams {
		k := (m.cursor + off) % len(m.streams)
		if m.streams[k].remaining > 0 && m.streams[k].ready() {
			m.pop(k)
			return true
		}
	}
	return false
}

// prefetch posts (or refreshes) one demand request per stream, from
// streams[o] on, so stash data keeps flowing into lines, re-checking
// each stream after its request: a fill can land during the posting
// overhead, and fill signals are edge-triggered. Once every stream is
// posted and none is ready, it arms the replica's wait cell on their
// fill signals.
func (m *replica) prefetch() {
	for ; m.o < len(m.streams); m.o++ {
		if m.streams[m.o].remaining == 0 {
			continue
		}
		if m.streams[m.o].rx.PrefetchThen(m.then(rpPrefetched)) || m.prefetched() {
			return
		}
	}
	sim.WaitAnyCell(&m.cell, rpMerge, m.sigs...)
}

// prefetched re-checks streams[o] after its request: it pops the stream
// when ready, else adds its fill signal to the wait set.
func (m *replica) prefetched() bool {
	in := &m.streams[m.o]
	if in.ready() {
		m.pop(m.o)
		return true
	}
	m.sigs = append(m.sigs, in.fillSignal())
	return false
}

// pop pops stream k.
func (m *replica) pop(k int) {
	m.picked = k
	m.streams[k].rx.PopThen(m.then(rpPopped))
}

// arrivalChunk sizes the pooled arrival-record block each open-loop
// source refills in place (the synthetic shapes use the same size).
const arrivalChunk = 256

// globalReplica is the replica's index in spawn order across the whole
// DAG — the stable endpoint id arrival streams key on.
func (s *Spec) globalReplica(si, r int) int {
	id := r
	for i := 0; i < si; i++ {
		id += s.Stages[i].Replicas
	}
	return id
}
