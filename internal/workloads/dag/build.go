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
	txs []*spamer.Producer
	rot int // shard rotation = producer replica index
	gid int // global endpoint id feeding payloadFor
}

func (o *outPort) push(t *spamer.Thread, j int) {
	o.txs[(j+o.rot)%len(o.txs)].Push(t.Proc, payloadFor(o.gid, j))
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

	gid := 0 // global out-port id, assigned in spawn order
	for si := range s.Stages {
		st := &s.Stages[si]
		for r := 0; r < st.Replicas; r++ {
			si, r := si, r
			portGID := make([]int, 0, 4)
			for ei := range s.Edges {
				if p.edges[ei].fi == si {
					portGID = append(portGID, gid)
					gid++
				}
			}
			name := fmt.Sprintf("dag/%s.%d", st.Name, r)
			sys.Spawn(name, func(t *spamer.Thread) {
				s.runReplica(t, p, queues, counters, si, r, portGID)
			})
		}
	}
}

// inStream is one statically-counted input queue of a replica.
type inStream struct {
	rx        *spamer.Consumer
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

// runReplica is the thread body of stage si's replica r.
func (s *Spec) runReplica(t *spamer.Thread, p *plan, queues [][]*spamer.Queue,
	counters []*spamer.WorkCounter, si, r int, portGID []int) {
	st := &s.Stages[si]

	// Producer endpoints, in edge-declaration order.
	var ports []outPort
	pi := 0
	for ei := range s.Edges {
		ep := &p.edges[ei]
		if ep.fi != si {
			continue
		}
		e := &s.Edges[ei]
		port := outPort{gid: portGID[pi]}
		pi++
		switch ep.policy {
		case PolicyPair:
			port.txs = []*spamer.Producer{queues[ei][r].NewProducer(e.Window)}
		case PolicyShard:
			n := s.Stages[ep.ti].Replicas
			port.txs = make([]*spamer.Producer, n)
			for c := 0; c < n; c++ {
				port.txs[c] = queues[ei][r*n+c].NewProducer(e.Window)
			}
			port.rot = r
		case PolicyShared:
			port.txs = []*spamer.Producer{queues[ei][0].NewProducer(e.Window)}
		}
		ports = append(ports, port)
	}

	smp := newSampler(st.Work, s.Seed, si, r)
	emit := func(j int) {
		for k := range ports {
			ports[k].push(t, j)
		}
	}

	// Dynamic sink: drain the shared queue through its WorkCounter.
	if p.counts[si][r] < 0 {
		for ei := range s.Edges {
			ep := &p.edges[ei]
			if ep.ti != si || counters[ei] == nil {
				continue
			}
			rx := queues[ei][0].NewConsumer(t.Proc, edgeLines(&s.Edges[ei]))
			for {
				if _, ok := counters[ei].Take(rx, t.Proc); !ok {
					return
				}
				if w := smp.draw(); w > 0 {
					t.Compute(w)
				}
			}
		}
		return
	}

	// Consumer endpoints: one stream per incoming queue, in
	// edge-declaration order (shard edges contribute one stream per
	// producer replica).
	var streams []inStream
	for ei := range s.Edges {
		ep := &p.edges[ei]
		if ep.ti != si {
			continue
		}
		e := &s.Edges[ei]
		from := p.counts[ep.fi]
		switch ep.policy {
		case PolicyPair:
			streams = append(streams, inStream{
				rx:        queues[ei][r].NewConsumer(t.Proc, edgeLines(e)),
				remaining: from[r],
			})
		case PolicyShard:
			n := st.Replicas
			for pr := range from {
				streams = append(streams, inStream{
					rx:        queues[ei][pr*n+r].NewConsumer(t.Proc, edgeLines(e)),
					remaining: shardCount(from[pr], pr, r, n),
				})
			}
		case PolicyShared:
			streams = append(streams, inStream{
				rx:        queues[ei][0].NewConsumer(t.Proc, edgeLines(e)),
				remaining: ep.total,
			})
		}
	}

	if len(streams) == 0 {
		s.runSource(t, smp, emit, si, r, p.counts[si][r])
		return
	}

	// Interior stage: event-driven fair merge. Each round pops the
	// first rotation stream whose next line already holds data; when no
	// stream is ready, the replica keeps one demand request posted per
	// stream and parks on the union of their fill signals. A consumer
	// therefore never blocks on one empty stream while another stream
	// has deliverable data sitting in the routing device — the strict
	// round-robin alternative deadlocks on diamonds once bounded push
	// windows and the shared prodBuf pool fill with messages only this
	// replica can drain.
	active := 0
	for k := range streams {
		if streams[k].remaining > 0 {
			active++
		}
	}
	j := 0
	cursor := 0
	sigs := make([]*sim.Signal, 0, len(streams))
	for active > 0 {
		picked := -1
		for o := 0; o < len(streams); o++ {
			k := (cursor + o) % len(streams)
			if streams[k].remaining > 0 && streams[k].ready() {
				picked = k
				break
			}
		}
		if picked < 0 {
			// Post (or refresh) one demand request per stream so stash
			// data keeps flowing into lines, then re-check: a fill can
			// land during the posting overhead, and fill signals are
			// edge-triggered.
			sigs = sigs[:0]
			for k := range streams {
				in := &streams[k]
				if in.remaining == 0 {
					continue
				}
				in.rx.Prefetch(t.Proc)
				if in.ready() {
					picked = k
					break
				}
				sigs = append(sigs, in.fillSignal())
			}
			if picked < 0 {
				sim.WaitAny(t.Proc, sigs...)
				continue
			}
		}
		in := &streams[picked]
		in.rx.Pop(t.Proc)
		in.taken++
		in.remaining--
		if in.remaining == 0 {
			active--
		}
		cursor = (picked + 1) % len(streams)
		if w := smp.draw(); w > 0 {
			t.Compute(w)
		}
		emit(j)
		j++
	}
}

// arrivalChunk sizes the pooled arrival-record block each open-loop
// source refills in place (the synthetic shapes use the same size).
const arrivalChunk = 256

// runSource drives a source replica for n items: recorded-trace
// replay, an open-loop arrival schedule, or a closed loop timed by the
// stage's compute distribution.
func (s *Spec) runSource(t *spamer.Thread, smp sampler, emit func(int), si, r, n int) {
	st := &s.Stages[si]

	if len(st.Replay) > 0 {
		// Open-loop replay: wait until each recorded timestamp, charge
		// the recorded work, emit. A replica that falls behind emits
		// immediately — the schedule never slips.
		for j, ei := 0, r; ei < len(st.Replay); j, ei = j+1, ei+st.Replicas {
			ev := &st.Replay[ei]
			if now := t.Now(); now < ev.At {
				t.Compute(ev.At - now)
			}
			if w := ev.Work + ev.Size*st.WorkPerByte; w > 0 {
				t.Compute(w)
			}
			emit(j)
		}
		return
	}

	if st.Arrival != nil {
		// Open-loop schedule: the stream is selected by a globally
		// unique endpoint id so replicas of different stages never
		// share arrival draws.
		src := traffic.NewSource(*st.Arrival, s.globalReplica(si, r))
		buf := make([]uint64, arrivalChunk)
		if n < len(buf) {
			buf = buf[:n]
		}
		done := 0
		for done < n {
			src.Fill(buf)
			for _, at := range buf {
				if done >= n {
					break
				}
				if now := t.Now(); now < at {
					t.Compute(at - now)
				}
				if w := smp.draw(); w > 0 {
					t.Compute(w)
				}
				emit(done)
				done++
			}
		}
		return
	}

	for j := 0; j < n; j++ {
		if w := smp.draw(); w > 0 {
			t.Compute(w)
		}
		emit(j)
	}
}

// globalReplica is the replica's index in spawn order across the whole
// DAG — the stable endpoint id arrival streams key on.
func (s *Spec) globalReplica(si, r int) int {
	id := r
	for i := 0; i < si; i++ {
		id += s.Stages[i].Replicas
	}
	return id
}
