package fabric

import (
	"container/list"
	"sync"

	"spamer/internal/experiments"
)

// Store is the shared content-addressed result store: canonical
// per-spec hash (experiments.Spec.Hash) → the outcomes that spec
// produced, wherever they were computed. The simulator is
// deterministic, so a hit is exact; because the key is per spec — not
// per job — a worker finishing a spec inside one client's batch
// answers the same spec inside every other client's batch, and a
// never-seen combination of already-seen specs costs zero simulation.
//
// The service layer (internal/service) keeps a second Store keyed by
// whole job (experiments.HashSpecs), which short-circuits repeated job
// lists before they reach the fabric; this one fills the gaps spec by
// spec. Bounded LRU; capacity <= 0 disables storing.
type Store struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type storeEntry struct {
	hash     string
	outcomes []experiments.Outcome
}

// NewStore builds a Store bounded to capacity entries.
func NewStore(capacity int) *Store {
	return &Store{cap: capacity, ll: list.New(), m: map[string]*list.Element{}}
}

// Get returns the stored outcomes for hash, refreshing recency. The
// returned slice is shared — callers must not mutate it.
func (s *Store) Get(hash string) ([]experiments.Outcome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[hash]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(e)
	return e.Value.(*storeEntry).outcomes, true
}

// Put stores outcomes under hash, evicting the least recently used
// entry past capacity.
func (s *Store) Put(hash string, outcomes []experiments.Outcome) {
	if s.cap <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[hash]; ok {
		s.ll.MoveToFront(e)
		e.Value.(*storeEntry).outcomes = outcomes
		return
	}
	s.m[hash] = s.ll.PushFront(&storeEntry{hash: hash, outcomes: outcomes})
	for s.ll.Len() > s.cap {
		old := s.ll.Back()
		s.ll.Remove(old)
		delete(s.m, old.Value.(*storeEntry).hash)
	}
}

// Len reports the live entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
