package invindex

import (
	"fmt"
	"unsafe"

	"ita/internal/model"
)

// Store is the FIFO list of valid documents from Figure 1 of the paper,
// with O(1) id lookup. It is shared by all engines; only ITA layers
// inverted lists on top of it. The Naïve baseline uses a bare Store so
// that it is not charged for index maintenance it would never perform.
type Store struct {
	docs map[model.DocID]*model.Document
	fifo []*model.Document // arrival order; live region starts at head
	head int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{docs: make(map[model.DocID]*model.Document)}
}

// Len returns the number of valid documents.
func (s *Store) Len() int { return len(s.docs) }

// Get returns a valid document by id.
func (s *Store) Get(id model.DocID) (*model.Document, bool) {
	d, ok := s.docs[id]
	return d, ok
}

// Oldest returns the document at the head of the FIFO, or nil when the
// store is empty.
func (s *Store) Oldest() *model.Document {
	if s.head >= len(s.fifo) {
		return nil
	}
	return s.fifo[s.head]
}

// Insert appends an arriving document. It fails on a duplicate id.
func (s *Store) Insert(d *model.Document) error {
	if _, dup := s.docs[d.ID]; dup {
		return fmt.Errorf("invindex: duplicate document id %d", d.ID)
	}
	s.docs[d.ID] = d
	s.fifo = append(s.fifo, d)
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
	delete(s.docs, d.ID)
	return d
}

// MemoryBytes estimates the store's heap footprint: the id map, the
// FIFO backing array, and the documents themselves (struct + postings).
func (s *Store) MemoryBytes() uint64 {
	const mapEntry = 48
	b := uint64(len(s.docs))*mapEntry + uint64(cap(s.fifo))*8
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
