package textproc

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"math/rand/v2"
	"unsafe"

	"ita/internal/model"
)

// Dictionary interns term strings to dense TermIDs. IDs are assigned in
// first-seen order starting at 0, so a dictionary built from the same
// corpus in the same order is identical across runs.
//
// It is one pointer-free open-addressing table. Each 16-byte slot holds
// a term's first eight bytes inline beside a hash tag, its length (up to
// 255) and its id, so a hit on a term of eight bytes or fewer reads one
// cache line and follows no pointer. Every term's bytes also sit in an
// append-only arena of chunks that never move, found from the id, which
// Term returns without copying and a longer term is compared against.
// The collector has no pointer to scan in either. The hash seed is drawn
// per dictionary: ids never depend on where a term sits in the table.
//
// A Dictionary is not safe for concurrent use; the public facade
// serializes access. Lookup, Term and Size only read it, so any number
// of them may run together while nothing interns.
type Dictionary struct {
	slots []slot   // power-of-two length, linear probing, at most ¾ full
	mask  uint64   // len(slots) - 1
	locs  []uint64 // per id: the term's arena offset << 8 | min(len, 255)

	// chunks is the arena: chunk i holds offsets [i, i+1) << chunkShift.
	// A term never straddles two chunks; one longer than a chunk gets a
	// run of consecutive chunks over one allocation. used is the offset
	// the next term's bytes go to.
	chunks [][]byte
	used   uint64

	seed         maphash.Seed // hashes terms longer than eight bytes
	seed0, seed1 uint64       // hash the rest from their inline prefix
	tagMask      uint32       // all ones; a test clears it to make every tag collide
}

// slot is one entry of the table; id 0 marks an empty slot.
type slot struct {
	prefix uint64 // the term's first eight bytes, little-endian, zero-padded
	id     uint32 // the term's id + 1
	meta   uint32 // hash tag in the top 24 bits, min(len, 255) in the low 8
}

const (
	minSlots   = 64
	chunkShift = 14
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	// longLen marks, in a location or a slot, a term of at least this
	// many bytes; the arena holds such a term's length as a uvarint
	// before its bytes.
	longLen = 0xff
)

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		slots:   make([]slot, minSlots),
		mask:    minSlots - 1,
		seed:    maphash.MakeSeed(),
		seed0:   rand.Uint64(),
		seed1:   rand.Uint64(),
		tagMask: math.MaxUint32,
	}
}

// Intern returns the id of term, assigning a fresh one on first sight.
// It copies a new term into the arena and keeps no reference to term.
func (d *Dictionary) Intern(term string) model.TermID {
	return d.intern(term, d.hash(term))
}

// intern is Intern for a term whose hash is h.
func (d *Dictionary) intern(term string, h uint64) model.TermID {
	i := d.find(term, h)
	if id := d.slots[i].id; id != 0 {
		return model.TermID(id - 1)
	}
	if 4*(len(d.locs)+1) > 3*len(d.slots) {
		d.grow()
		i = d.find(term, h)
	}
	id := len(d.locs)
	d.locs = append(d.locs, d.store(term)<<8|uint64(min(len(term), longLen)))
	d.slots[i] = slot{prefix: prefix(term), id: uint32(id + 1), meta: d.meta(h, len(term))}
	return model.TermID(id)
}

// Lookup returns the id of term without interning it.
func (d *Dictionary) Lookup(term string) (model.TermID, bool) {
	return d.lookup(term, d.hash(term))
}

// lookup is Lookup for a term whose hash is h.
func (d *Dictionary) lookup(term string, h uint64) (model.TermID, bool) {
	id := d.slots[d.find(term, h)].id
	return model.TermID(id - 1), id != 0
}

// Term returns the string for id. It panics on an unknown id, which
// indicates a cross-dictionary mixup upstream. The string shares the
// arena's bytes, which never change.
func (d *Dictionary) Term(id model.TermID) string {
	if int(id) >= len(d.locs) {
		panic(fmt.Sprintf("textproc: unknown term id %d (dictionary has %d terms)", id, len(d.locs)))
	}
	loc := d.locs[id]
	n := int(loc & 0xff)
	if n == 0 {
		return ""
	}
	off := loc >> 8
	c := d.chunks[off>>chunkShift][off&chunkMask:]
	if n == longLen {
		v, w := binary.Uvarint(c)
		c, n = c[w:], int(v)
	}
	return unsafe.String(&c[0], n)
}

// Size returns the number of distinct interned terms.
func (d *Dictionary) Size() int { return len(d.locs) }

// MemoryBytes is the dictionary's heap footprint: the slot table, the
// id table and the arena's chunks.
func (d *Dictionary) MemoryBytes() uint64 {
	return uint64(len(d.slots))*uint64(unsafe.Sizeof(slot{})) + uint64(cap(d.locs))*8 + uint64(len(d.chunks))<<chunkShift
}

// reset empties d for reuse as a scratch table that hashes as o does.
// Its id table shrinks under trim's policy, counting in low, and its slot
// table with it: in the round trim shrinks the ids, a larger slot table
// is cut to the size the new id table wants, and in any other round only
// one more than twice that size is, so a warm round never reallocates.
// Its arena keeps one chunk.
func (d *Dictionary) reset(o *Dictionary, low *int) {
	had := cap(d.locs)
	d.locs = trim(d.locs, low)
	n := minSlots
	for 3*n < 4*cap(d.locs) {
		n *= 2
	}
	if len(d.slots) == 0 || len(d.slots) > 2*n || cap(d.locs) < had && len(d.slots) > n {
		d.slots = make([]slot, n)
	} else {
		clear(d.slots)
	}
	d.mask = uint64(len(d.slots) - 1)
	clear(d.chunks[min(1, len(d.chunks)):])
	d.chunks, d.used = d.chunks[:min(1, len(d.chunks))], 0
	d.seed, d.seed0, d.seed1, d.tagMask = o.seed, o.seed0, o.seed1, o.tagMask
}

// find returns the index of term's slot, or of the empty slot that ends
// its probe sequence. It only reads the table.
func (d *Dictionary) find(term string, h uint64) uint64 {
	p, meta := prefix(term), d.meta(h, len(term))
	for i := h & d.mask; ; i = (i + 1) & d.mask {
		s := &d.slots[i]
		if s.id == 0 || s.meta == meta && s.prefix == p && (len(term) <= 8 || d.Term(model.TermID(s.id - 1))[8:] == term[8:]) {
			return i
		}
	}
}

// grow doubles the table. A slot keeps its meta: its hash is the same.
func (d *Dictionary) grow() {
	old := d.slots
	d.slots = make([]slot, 2*len(old))
	d.mask = uint64(len(d.slots) - 1)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		var h uint64
		if n := int(s.meta & 0xff); n <= 8 {
			h = d.hashShort(s.prefix, n)
		} else {
			h = maphash.String(d.seed, d.Term(model.TermID(s.id-1)))
		}
		i := h & d.mask
		for d.slots[i].id != 0 {
			i = (i + 1) & d.mask
		}
		d.slots[i] = s
	}
}

// store copies term into the arena and returns its offset.
func (d *Dictionary) store(term string) uint64 {
	var head [binary.MaxVarintLen64]byte
	w := 0
	if len(term) >= longLen {
		w = binary.PutUvarint(head[:], uint64(len(term)))
	}
	need := uint64(w + len(term))
	off := d.used
	if need == 0 {
		return off
	}
	if need > uint64(len(d.chunks))<<chunkShift-off {
		off = uint64(len(d.chunks)) << chunkShift
		n := max(1, (need+chunkMask)>>chunkShift)
		run := make([]byte, n<<chunkShift)
		for i := range n {
			d.chunks = append(d.chunks, run[i<<chunkShift:])
		}
	}
	c := d.chunks[off>>chunkShift][off&chunkMask:]
	copy(c[copy(c, head[:w]):], term)
	d.used = off + need
	return off
}

// hash is term's hash: a multiply-mix of its inline prefix for a term of
// eight bytes or fewer, maphash for a longer one.
func (d *Dictionary) hash(term string) uint64 {
	if len(term) > 8 {
		return maphash.String(d.seed, term)
	}
	return d.hashShort(prefix(term), len(term))
}

// hashShort is the hash of the n-byte term whose prefix is p.
func (d *Dictionary) hashShort(p uint64, n int) uint64 {
	hi, lo := bits.Mul64(p^d.seed0, d.seed1^uint64(n))
	return hi ^ lo
}

// meta is the slot meta of an n-byte term whose hash is h: the hash's
// top 24 bits above min(n, 255). The slot index takes the low bits.
func (d *Dictionary) meta(h uint64, n int) uint32 {
	return uint32(h>>32)&^0xff&d.tagMask | uint32(min(n, longLen))
}

// prefix is term's first eight bytes as a little-endian word, padded
// with zeros.
func prefix(term string) uint64 {
	if len(term) >= 8 {
		return binary.LittleEndian.Uint64(unsafe.Slice(unsafe.StringData(term), 8))
	}
	var p uint64
	for i := len(term) - 1; i >= 0; i-- {
		p = p<<8 | uint64(term[i])
	}
	return p
}

// bytesString views b as a string without copying; the caller must not
// change b while the string is in use.
func bytesString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
