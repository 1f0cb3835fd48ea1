package spamer

import "spamer/internal/vlq"

// The endpoint API is the §3.4 queue library itself (internal/vlq).
type (
	// Queue is one M:N message channel (one Shared Queue Identifier).
	// Producers and consumers subscribe endpoints to it; the paper
	// writes the shape as (M:N)xk in Table 2.
	Queue = vlq.Queue
	// Producer is a producer endpoint.
	Producer = vlq.Producer
	// Consumer is a consumer endpoint. It is spec-push-enabled when its
	// queue's routing device runs SPAMeR, demand-driven on the VL
	// baseline or when opened with NewConsumerLegacy.
	Consumer = vlq.Consumer
	// WorkCounter lets consumers drain a global message count whose
	// per-consumer share is not known statically.
	WorkCounter = vlq.WorkCounter
)

// NewWorkCounter returns a counter for total messages.
func NewWorkCounter(name string, total int) *WorkCounter { return vlq.NewWorkCounter(name, total) }

// NewQueue creates a message channel. On multi-device systems queues
// are placed round-robin across the routing devices.
func (s *System) NewQueue(name string) *Queue {
	lib := s.libs[s.nextDev%len(s.libs)]
	s.nextDev++
	q := lib.NewQueue(name, s.queueProbe)
	s.queues = append(s.queues, q)
	return q
}

// Queues returns every queue created on the system.
func (s *System) Queues() []*Queue { return s.queues }
