// Package spamer is a library-level reproduction of "SPAMeR: Speculative
// Push for Anticipated Message Requests in Multi-Core Systems"
// (Wu et al., ICPP 2022).
//
// It assembles a deterministic cycle-granularity simulation of a
// multi-core system whose cores communicate through hardware message
// queues: the Virtual-Link routing device (the paper's baseline) and the
// SPAMeR Routing Device, which speculatively pushes messages into
// consumer cache lines in anticipation of requests.
//
// A System bundles the simulation kernel, the coherence-network bus, the
// routing device, and the software queue library. Application threads
// communicate through Queues created with NewQueue. A thread is a step
// machine on the simulation kernel: a Source (closed-loop producer) or a
// Stage (sink, relay or WorkCounter worker) filled in and spawned, or a
// machine of its own on SpawnFunc. Run drives the simulation to
// completion and returns a Result with the metrics the paper's
// evaluation reports: execution time, consumer-line empty/non-empty
// cycle breakdown (Figure 9), push failure rates (Figure 10a), and bus
// utilization (Figure 10b).
//
// Minimal example:
//
//	sys := spamer.NewSystem(spamer.Config{Algorithm: spamer.AlgTuned})
//	q := sys.NewQueue("work")
//	(&spamer.Source{Out: q, N: 100}).Spawn(sys, "producer")
//	(&spamer.Stage{In: q, Lines: 4, N: 100}).Spawn(sys, "consumer")
//	res := sys.Run()
//	fmt.Println(res.Ticks, res.FailureRate(), res.BusUtilization)
package spamer

import (
	"fmt"

	"spamer/internal/config"
	"spamer/internal/core"
	"spamer/internal/mem"
	"spamer/internal/noc"
	"spamer/internal/sim"
	"spamer/internal/vl"
	"spamer/internal/vlq"
)

// Algorithm names accepted by Config.Algorithm.
const (
	// AlgBaseline selects the plain Virtual-Link routing device: no
	// specBuf, demand-driven pushes only.
	AlgBaseline = "vl"
	// AlgZeroDelay selects SPAMeR with the 0-delay algorithm (§3.5).
	AlgZeroDelay = "0delay"
	// AlgAdaptive selects SPAMeR with the adaptive delay algorithm.
	AlgAdaptive = "adapt"
	// AlgTuned selects SPAMeR with the tuned algorithm of Listing 1.
	AlgTuned = "tuned"
)

// Configs returns the four evaluation configurations in paper order:
// VL baseline, then SPAMeR with 0-delay, adaptive, and tuned.
func Configs() []string {
	return []string{AlgBaseline, AlgZeroDelay, AlgAdaptive, AlgTuned}
}

// Config parameterizes a System.
type Config struct {
	// Algorithm picks the routing device flavour: AlgBaseline (or "")
	// for Virtual-Link, or one of the SPAMeR delay algorithms.
	Algorithm string

	// Tuned overrides the tuned-algorithm parameters when Algorithm is
	// AlgTuned; the zero value selects the paper's published set.
	Tuned config.TunedParams

	// CustomAlgorithm installs a caller-supplied delay-prediction
	// algorithm instead of the named ones (Algorithm must then be
	// "custom"). Used by ablation studies and instrumented runs.
	CustomAlgorithm core.DelayAlgorithm

	// Inlined selects macro-inlined queue library functions (§3.4).
	// The paper's evaluation applies inlining to baseline and SPAMeR
	// alike; NewSystem therefore defaults it to true. Set
	// NoInline to get the function-call overhead instead.
	NoInline bool

	// SRDEntries sizes every routing device: n prodBuf and consBuf
	// entries, and max(n, 64) linkTab rows and specBuf entries
	// (default: Table 1, 64 entries each).
	SRDEntries int

	// HopLatency overrides the one-way core<->device hop latency in
	// cycles (default config.HopCycles).
	HopLatency uint64

	// BusChannels overrides the interconnect channel count
	// (default noc.DefaultChannels). Topology sensitivity studies use
	// 1 for a single shared bus.
	BusChannels int

	// Devices sets the number of routing devices attached to the
	// network (default 1). The paper treats the routing device "like a
	// slice of system cache ... as such a system could have more than
	// one router" (§3.1); queues are distributed round-robin across
	// devices. All devices share the interconnect.
	Devices int

	// FaultDropStash arms a message-drop fault for verification runs: the
	// n-th stash delivery of the primary routing device (1-based, counted
	// across the run) acknowledges a hit without filling the target line —
	// the classic lost-message bug the oracle's conservation invariant
	// exists to catch. 0 disables. It exists so tests can prove the
	// verification layer detects real loss, never for measurement.
	FaultDropStash uint64

	// FaultCorruptStash arms a payload-corruption fault: the n-th stash
	// delivery fills its line with flipped payload bits (metadata
	// intact), so the run completes and only the oracle's
	// payload-integrity invariant can flag it. 0 disables.
	FaultCorruptStash uint64

	// EvictEvery enables failure injection: every EvictEvery cycles one
	// consumer cache line (rotating deterministically over all
	// endpoints) loses residency, as a cache conflict would cause. The
	// system must deliver every message regardless — pushes to the
	// evicted line miss and retry, and the consumer refetches on its
	// next access. 0 disables.
	EvictEvery uint64

	// Deadline bounds simulated time; Run panics past it (default 2^40,
	// effectively unlimited but converts livelock into a loud failure).
	Deadline uint64
}

// System is one simulated machine: kernel, bus, routing device(s),
// queue library, and the application threads spawned onto it.
type System struct {
	cfg Config

	kernel *sim.Kernel
	bus    *noc.Bus
	as     *mem.AddressSpace

	// One slice entry per routing device; index 0 is the primary the
	// single-device accessors expose.
	devs  []*vl.Device
	specs []*core.SpecBuf
	libs  []*vlq.Lib

	nextDev int

	traceRec *sim.TraceRecorder

	queues []*Queue

	queueProbe vlq.Probe

	ran    bool
	done   bool // Run returned: the run completed and was not drained
	result Result
}

// KnownAlgorithm reports whether NewSystem accepts name as
// Config.Algorithm when no CustomAlgorithm is set: "" or AlgBaseline
// for Virtual-Link, or the Name of a delay algorithm core.ByName finds.
func KnownAlgorithm(name string) bool {
	_, ok := algorithm(Config{Algorithm: name})
	return ok
}

// NewSystem builds a system per cfg. It panics on an algorithm name
// KnownAlgorithm rejects.
func NewSystem(cfg Config) *System {
	if cfg.Algorithm == "" {
		cfg.Algorithm = AlgBaseline
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 1 << 40
	}
	hop := cfg.HopLatency
	if hop == 0 {
		hop = config.HopCycles
	}
	ndev := cfg.Devices
	if ndev <= 0 {
		ndev = 1
	}
	k := sim.New()
	k.SetDeadline(cfg.Deadline)
	bus := noc.NewWithOptions(k, hop, cfg.BusChannels)
	as := mem.NewAddressSpace(k)

	n := cfg.SRDEntries
	if n <= 0 {
		n = config.SRDEntries
	}
	srd := vl.Config{ProdEntries: n, ConsEntries: n, LinkEntries: max(n, config.SRDEntries)}

	s := &System{cfg: cfg, kernel: k, bus: bus, as: as}
	for i := 0; i < ndev; i++ {
		dev := vl.New(k, bus, as, srd)
		alg, ok := algorithm(cfg)
		if !ok {
			panic(fmt.Sprintf("spamer: unknown algorithm %q", cfg.Algorithm))
		}
		if alg != nil {
			spec := core.NewSpecBuf(srd.LinkEntries, alg)
			dev.SetSpecExtension(spec)
			s.specs = append(s.specs, spec)
		}
		lib := vlq.New(k, bus, as, dev)
		lib.Inlined = !cfg.NoInline
		s.devs = append(s.devs, dev)
		s.libs = append(s.libs, lib)
	}
	if cfg.FaultDropStash > 0 {
		s.devs[0].FaultDropStash(cfg.FaultDropStash)
	}
	if cfg.FaultCorruptStash > 0 {
		s.devs[0].FaultCorruptStash(cfg.FaultCorruptStash)
	}
	return s
}

// algorithm builds the delay algorithm cfg selects: nil for the VL
// baseline, and false for a name no device flavour has.
func algorithm(cfg Config) (core.DelayAlgorithm, bool) {
	if cfg.Algorithm == "" || cfg.Algorithm == AlgBaseline {
		return nil, true
	}
	if cfg.CustomAlgorithm != nil {
		return cfg.CustomAlgorithm, true
	}
	if cfg.Algorithm == AlgTuned && cfg.Tuned != (config.TunedParams{}) {
		return core.Tuned{P: cfg.Tuned}, true
	}
	return core.ByName(cfg.Algorithm)
}

// Speculative reports whether the system runs SPAMeR routing devices
// (any algorithm) rather than the VL baseline.
func (s *System) Speculative() bool { return len(s.specs) > 0 }

// Kernel exposes the simulation kernel (advanced use: custom events).
func (s *System) Kernel() *sim.Kernel { return s.kernel }

// Bus exposes the coherence-network bus (advanced use: custom traffic).
func (s *System) Bus() *noc.Bus { return s.bus }

// Device exposes the primary routing device (advanced use: direct
// inspection). Multi-device systems expose the rest via Devices.
func (s *System) Device() *vl.Device { return s.devs[0] }

// Devices exposes every routing device.
func (s *System) Devices() []*vl.Device { return s.devs }

// SpecBuf exposes the primary device's specBuf, or nil on the VL
// baseline.
func (s *System) SpecBuf() *core.SpecBuf {
	if len(s.specs) == 0 {
		return nil
	}
	return s.specs[0]
}

// SpecBufs exposes every device's specBuf (empty on the VL baseline).
func (s *System) SpecBufs() []*core.SpecBuf { return s.specs }

// AddressSpace exposes the line arena every endpoint page lives in. The
// verification oracle walks its slab bookkeeping alongside the device and
// specBuf tables.
func (s *System) AddressSpace() *mem.AddressSpace { return s.as }

// SetQueueProbe installs p on every queue subsequently created with
// NewQueue; a queue's probe is fixed when the queue is made. Call it
// before the workload builds its queues. The verification layer
// (internal/oracle) uses it to observe every message entering and
// leaving the system, and the Figure 7 tracer (internal/trace) to
// timestamp each transaction. See vlq.Probe for the events and the
// observer contract (no event scheduling; trace-neutral).
func (s *System) SetQueueProbe(p vlq.Probe) { s.queueProbe = p }

// SpawnFunc adds an application thread: a state machine with step
// function fn whose first step, fn(arg), runs at tick 0, in spawn
// order. It advances through the queue operations (PushThen, PopThen,
// ...), each of which runs a continuation (the returned Task's Then)
// when it completes, and through local work (the Task's Compute), and
// it is live, for Run's deadlock check and the eviction injector, until
// a step calls the Task's Exit. The model gives every thread a core of
// its own ("each thread is assigned to a core", §4.1), so the Table 1
// core count bounds nothing. SpawnFunc panics once Run has been called.
// Source and Stage are ready-made machines on it.
func (s *System) SpawnFunc(name string, fn func(uint64), arg uint64) *sim.Task {
	if s.ran {
		panic("spamer: SpawnFunc after Run")
	}
	return s.kernel.GoFunc(name, fn, arg)
}

// Threads reports how many threads have been spawned.
func (s *System) Threads() int { return s.kernel.Tasks() }

// Run drives the simulation until every thread exits, then gathers the
// Result. Run may be called once. It panics on deadlock (threads still
// waiting with no pending events), on the watchdog deadline, and with
// any panic raised inside a thread's step; each failure first drains
// every waiting thread.
func (s *System) Run() Result {
	if s.ran {
		panic("spamer: Run called twice")
	}
	s.ran = true
	if s.cfg.EvictEvery > 0 {
		s.startEvictionInjector(s.cfg.EvictEvery)
	}
	s.kernel.Run()
	if live := s.kernel.LiveProcs(); live != 0 {
		s.kernel.Drain() // exit the waiting threads before failing
		panic(fmt.Sprintf("spamer: deadlock — %d threads still parked with no pending events", live))
	}
	s.result = s.collect()
	s.done = true
	return s.result
}

// Release hands the system's storage (its kernel, line arena, routing
// devices, specBufs and queue libraries) to later NewSystem calls
// for reuse, so a caller that runs many short simulations stops
// allocating it afresh. Only the system's sole owner may call it, once
// Run has returned, and only if nothing will touch the system or
// anything taken from it (queues, endpoints, threads, lines, the
// kernel) again: the next system may already own that storage. A
// system whose Run did not return (it panicked on a deadlock, the
// watchdog or a failed step, and drained its kernel) is never recycled;
// Release leaves it to the garbage collector. Release empties s, so a
// later use of it fails at once.
func (s *System) Release() {
	if !s.done {
		return
	}
	for _, l := range s.libs {
		l.Release()
	}
	for _, b := range s.specs {
		b.Release()
	}
	for _, d := range s.devs {
		d.Release()
	}
	s.as.Release()
	s.kernel.Release()
	*s = System{}
}

// EnableDispatchTrace arms dispatch-trace hashing for golden tests. Must
// be called before Run; read the hash with DispatchTraceHash after Run.
func (s *System) EnableDispatchTrace() {
	s.traceRec = sim.NewTraceRecorder()
	s.traceRec.Attach(s.kernel)
}

// DispatchTraceHash reports the FNV-1a hash of the kernel's (tick, seq)
// dispatch stream.
func (s *System) DispatchTraceHash() uint64 {
	if s.traceRec == nil {
		panic("spamer: DispatchTraceHash without EnableDispatchTrace")
	}
	return s.traceRec.Sum()
}

func (s *System) collect() Result {
	r := Result{
		Algorithm:      s.cfg.Algorithm,
		Ticks:          s.kernel.Now(),
		Bus:            s.bus.Stats(),
		BusUtilization: s.bus.Utilization(),
	}
	for _, d := range s.devs {
		r.Device = r.Device.Add(d.Stats())
	}
	r.MS = config.TicksToMS(r.Ticks)
	for _, q := range s.queues {
		r.Pushed += q.Pushed()
		r.Popped += q.Popped()
		for _, c := range q.Consumers() {
			e, v := mem.Occupancy(c.Lines())
			r.EmptyTicks += e
			r.NonEmptyTicks += v
			r.ConsumerLines += len(c.Lines())
		}
	}
	if r.ConsumerLines > 0 {
		r.AvgEmptyTicks = float64(r.EmptyTicks) / float64(r.ConsumerLines)
		r.AvgNonEmptyTicks = float64(r.NonEmptyTicks) / float64(r.ConsumerLines)
	}
	return r
}

// startEvictionInjector arms the failure injector: a recurring event
// that evicts consumer lines in a deterministic rotation. Endpoints are
// discovered lazily (threads create them after startup).
func (s *System) startEvictionInjector(period uint64) {
	victim := 0
	lines := make([]*mem.Line, 0, 64) // reused across ticks
	var tickFn func(uint64)
	tickFn = func(uint64) {
		if s.kernel.LiveProcs() == 0 {
			return
		}
		lines = lines[:0]
		for _, q := range s.queues {
			for _, c := range q.Consumers() {
				lines = append(lines, c.Lines()...)
			}
		}
		if len(lines) > 0 {
			lines[victim%len(lines)].Evict()
			victim++
		}
		s.kernel.AfterFunc(period, tickFn, 0)
	}
	s.kernel.AfterFunc(period, tickFn, 0)
}

// Result carries the metrics of one completed run.
type Result struct {
	Algorithm string

	// Ticks is the end-to-end execution time in cycles; MS converts to
	// milliseconds at the Table 1 clock.
	Ticks uint64
	MS    float64

	// Pushed and Popped count messages through all queues; equal runs
	// conserve messages.
	Pushed, Popped uint64

	// Device and Bus are the raw counter snapshots.
	Device vl.Stats
	Bus    noc.Stats

	// BusUtilization is the Figure 10b metric.
	BusUtilization float64

	// EmptyTicks/NonEmptyTicks integrate consumer-line occupancy over
	// all consumer lines; the Avg forms divide by ConsumerLines —
	// the Figure 9 breakdown ("average consumer cacheline empty
	// cycles" vs non-empty).
	EmptyTicks, NonEmptyTicks uint64
	ConsumerLines             int
	AvgEmptyTicks             float64
	AvgNonEmptyTicks          float64
}

// FailureRate is the Figure 10a metric: failed pushes out of all pushes.
func (r Result) FailureRate() float64 { return r.Device.FailureRate() }

// Speedup reports baseline.Ticks / r.Ticks — how much faster r is.
func (r Result) Speedup(baseline Result) float64 {
	if r.Ticks == 0 {
		return 0
	}
	return float64(baseline.Ticks) / float64(r.Ticks)
}
