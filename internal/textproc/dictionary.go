package textproc

import (
	"fmt"

	"ita/internal/model"
)

// Dictionary interns term strings to dense TermIDs. IDs are assigned in
// first-seen order starting at 0, so a dictionary built from the same
// corpus in the same order is identical across runs.
//
// A Dictionary is not safe for concurrent use; the public facade
// serializes access.
type Dictionary struct {
	ids   map[string]model.TermID
	terms []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[string]model.TermID)}
}

// Intern returns the id of term, assigning a fresh one on first sight.
func (d *Dictionary) Intern(term string) model.TermID {
	if id, ok := d.ids[term]; ok {
		return id
	}
	id := model.TermID(len(d.terms))
	d.ids[term] = id
	d.terms = append(d.terms, term)
	return id
}

// internBytes is Intern for a term held in a byte slice. It allocates
// only for a new term.
func (d *Dictionary) internBytes(term []byte) model.TermID {
	if id, ok := d.ids[string(term)]; ok {
		return id
	}
	return d.Intern(string(term))
}

// Lookup returns the id of term without interning it.
func (d *Dictionary) Lookup(term string) (model.TermID, bool) {
	id, ok := d.ids[term]
	return id, ok
}

// Term returns the string for id. It panics on an unknown id, which
// indicates a cross-dictionary mixup upstream.
func (d *Dictionary) Term(id model.TermID) string {
	if int(id) >= len(d.terms) {
		panic(fmt.Sprintf("textproc: unknown term id %d (dictionary has %d terms)", id, len(d.terms)))
	}
	return d.terms[id]
}

// Size returns the number of distinct interned terms.
func (d *Dictionary) Size() int { return len(d.terms) }
