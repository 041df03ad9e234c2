package invindex

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"ita/internal/model"
)

// Store is the FIFO list of valid documents from Figure 1 of the paper.
// It is shared by all engines; only ITA layers inverted lists on top of
// it. The Naïve baseline uses a bare Store so that it is not charged for
// index maintenance it would never perform.
//
// Document ids strictly ascend in arrival order, so Get needs no id map:
// it indexes the FIFO by the id's distance from the oldest valid id,
// exact for the consecutive ids the engine assigns, and binary-searches
// below that offset for sparse ids.
type Store struct {
	fifo []*model.Document // arrival order; live region starts at head
	head int
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Len returns the number of valid documents.
func (s *Store) Len() int { return len(s.fifo) - s.head }

// Get returns a valid document by id.
func (s *Store) Get(id model.DocID) (*model.Document, bool) {
	live := s.fifo[s.head:]
	if len(live) == 0 || id < live[0].ID {
		return nil, false
	}
	if off := uint64(id - live[0].ID); off < uint64(len(live)) {
		if d := live[off]; d.ID == id {
			return d, true
		}
		live = live[:off] // ascending ids sit no further than off
	}
	byID := func(d *model.Document, id model.DocID) int { return cmp.Compare(d.ID, id) }
	if i, ok := slices.BinarySearchFunc(live, id, byID); ok {
		return live[i], true
	}
	return nil, false
}

// Oldest returns the document at the head of the FIFO, or nil when the
// store is empty.
func (s *Store) Oldest() *model.Document {
	if s.head >= len(s.fifo) {
		return nil
	}
	return s.fifo[s.head]
}

// Insert appends an arriving document. Its id must be above every valid
// document's id.
func (s *Store) Insert(d *model.Document) error {
	if err := s.ascending([]*model.Document{d}); err != nil {
		return err
	}
	s.fifo = append(s.fifo, d)
	return nil
}

// ascending fails unless the ids of docs ascend from above every valid
// document's id.
func (s *Store) ascending(docs []*model.Document) error {
	var last *model.Document
	if s.Len() > 0 {
		last = s.fifo[len(s.fifo)-1]
	}
	for _, d := range docs {
		if last != nil && d.ID <= last.ID {
			return fmt.Errorf("invindex: document id %d is not above %d: ids must ascend in arrival order", d.ID, last.ID)
		}
		last = d
	}
	return nil
}

// RemoveOldest pops and returns the FIFO head, or nil when empty.
func (s *Store) RemoveOldest() *model.Document {
	d := s.Oldest()
	if d == nil {
		return nil
	}
	s.fifo[s.head] = nil // the drained prefix must not pin expired documents
	s.head++
	// Reclaim the drained prefix once it dominates the backing array so
	// the store uses O(window) rather than O(stream) memory.
	if s.head > 1024 && s.head*2 > len(s.fifo) {
		s.fifo = append([]*model.Document(nil), s.fifo[s.head:]...)
		s.head = 0
	}
	return d
}

// MemoryBytes estimates the store's heap footprint: the FIFO backing
// array and the documents themselves (struct + postings).
func (s *Store) MemoryBytes() uint64 {
	b := uint64(cap(s.fifo)) * 8
	for i := s.head; i < len(s.fifo); i++ {
		b += allocSize(uint64(unsafe.Sizeof(model.Document{}))) +
			allocSize(uint64(cap(s.fifo[i].Postings))*uint64(unsafe.Sizeof(model.Posting{})))
	}
	return b
}

// Docs calls fn for every valid document in arrival order — the
// full-scan primitive of the Naïve baseline and the test oracle.
func (s *Store) Docs(fn func(d *model.Document)) {
	for i := s.head; i < len(s.fifo); i++ {
		fn(s.fifo[i])
	}
}
