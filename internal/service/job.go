package service

import (
	"sync"
	"time"

	"spamer/internal/experiments"
	"spamer/internal/harness"
)

// Job states. A job moves queued → running → done|failed; a cache hit
// is born done.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Event is one SSE frame of a job's progress stream. Terminal events
// (type done/failed) are delivered exactly once per subscriber;
// per-run events are lossy under a slow consumer (the stream favours
// liveness over completeness — the terminal snapshot is authoritative).
type Event struct {
	Type   string `json:"type"` // queued|running|run_start|run_done|done|failed
	Job    string `json:"job"`
	State  string `json:"state"`
	Done   int    `json:"done"`   // simulations finished
	Total  int    `json:"total"`  // simulations in the job
	Failed int    `json:"failed"` // simulations that errored
	Label  string `json:"label,omitempty"`
}

// Status is the JSON body of GET /v1/jobs/{id}.
type Status struct {
	ID       string                `json:"id"`
	SpecHash string                `json:"spec_hash"`
	State    string                `json:"state"`
	Cached   bool                  `json:"cached,omitempty"`
	Created  time.Time             `json:"created"`
	Started  *time.Time            `json:"started,omitempty"`
	Finished *time.Time            `json:"finished,omitempty"`
	Runs     RunProgress           `json:"runs"`
	Outcomes []experiments.Outcome `json:"outcomes,omitempty"`
	Errors   []string              `json:"errors,omitempty"`
}

// RunProgress counts individual (spec, algorithm) simulations.
type RunProgress struct {
	Done   int `json:"done"`
	Total  int `json:"total"`
	Failed int `json:"failed"`
}

type job struct {
	id      string
	hash    string
	specs   []experiments.Spec
	cached  bool
	created time.Time

	mu                 sync.Mutex
	state              string
	started, finished  time.Time
	done, total, fails int
	outcomes           []experiments.Outcome
	errs               []string
	subs               map[chan Event]struct{}

	doneCh chan struct{} // closed exactly once, on terminal transition
}

func newJob(id, hash string, specs []experiments.Spec, totalRuns int) *job {
	return &job{
		id:      id,
		hash:    hash,
		specs:   specs,
		created: time.Now(),
		state:   StateQueued,
		total:   totalRuns,
		subs:    map[chan Event]struct{}{},
		doneCh:  make(chan struct{}),
	}
}

// totalRuns counts the simulations a spec list will launch: one per
// (spec, canonical algorithm) pair.
func totalRuns(specs []experiments.Spec) int {
	n := 0
	for i := range specs {
		n += len(specs[i].Canonical().Algorithms)
	}
	return n
}

func (j *job) eventLocked(typ string) Event {
	return Event{Type: typ, Job: j.id, State: j.state,
		Done: j.done, Total: j.total, Failed: j.fails}
}

// publishLocked fans ev to every subscriber without blocking: a stalled
// SSE client drops frames rather than stalling the executor.
func (j *job) publishLocked(ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers an event channel and returns it with a snapshot
// of the job's current progress to seed the stream.
func (j *job) subscribe() (chan Event, Event) {
	ch := make(chan Event, 16)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs[ch] = struct{}{}
	return ch, j.eventLocked(j.state)
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

func (j *job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = time.Now()
	j.publishLocked(j.eventLocked("running"))
}

// runStart / runDone translate harness progress callbacks into events.
func (j *job) runStart(p harness.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev := j.eventLocked("run_start")
	ev.Label = p.Label
	j.publishLocked(ev)
}

func (j *job) runDone(p harness.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.fails = p.Done, p.Failed
	ev := j.eventLocked("run_done")
	ev.Label = p.Label
	j.publishLocked(ev)
}

// complete moves the job to its terminal state. Terminal events are
// not pushed through subscriber channels: closing doneCh wakes every
// stream, which then emits the terminal snapshot itself — exactly-once
// delivery regardless of channel backlog.
func (j *job) complete(outcomes []experiments.Outcome, errs []string) {
	j.mu.Lock()
	j.outcomes = outcomes
	j.errs = errs
	j.finished = time.Now()
	if len(errs) > 0 && len(outcomes) == 0 {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	j.mu.Unlock()
	close(j.doneCh)
}

// completeCached marks a cache-hit job done at birth.
func (j *job) completeCached(outcomes []experiments.Outcome) {
	j.cached = true
	j.mu.Lock()
	j.outcomes = outcomes
	j.state = StateDone
	j.done = j.total
	now := time.Now()
	j.started, j.finished = now, now
	j.mu.Unlock()
	close(j.doneCh)
}

// terminalEvent snapshots the job after doneCh closes.
func (j *job) terminalEvent() Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	typ := "done"
	if j.state == StateFailed {
		typ = "failed"
	}
	return j.eventLocked(typ)
}

func (j *job) terminal() bool {
	select {
	case <-j.doneCh:
		return true
	default:
		return false
	}
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.id,
		SpecHash: j.hash,
		State:    j.state,
		Cached:   j.cached,
		Created:  j.created,
		Runs:     RunProgress{Done: j.done, Total: j.total, Failed: j.fails},
		Outcomes: j.outcomes,
		Errors:   j.errs,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}
