package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"ita/internal/model"
	"ita/internal/topk"
)

// This file implements the RCU-style published read path. A Maintainer
// owns one publication slot per dense query id; at every publication
// boundary (an epoch boundary, a Register/Unregister, an explicit
// expiry) the slot's pointer is swapped to a freshly frozen immutable
// top-k snapshot. Readers load three atomics — the ext→dense lookup,
// the slab directory and the slot's snapshot pointer — and never block
// on, or even observe, the engine's write path: result reads are
// wait-free for every settled query.
//
// Publication slots are dense slices (slabs indexed by dense id), not a
// per-query heap object: at a million registered queries the whole
// publication surface is a few thousand contiguous slabs. Dense ids are
// recycled on Unregister, so a reader racing a slot reuse could load a
// snapshot that now belongs to a different query; every published
// snapshot therefore carries its query (topk.Frozen.Query: id, k,
// terms and text), and readers discard a snapshot whose query id is not
// the one they asked for. The slab directory is grow-only and
// published atomically, and a lookup entry is stored only after its
// slab exists, so a reader that resolves a dense id always finds its
// slab.
//
// Consistency model: each published snapshot is exactly the query's
// top-k at some publication boundary; states internal to an epoch are
// never published. A reader therefore always observes, per query, the
// result Result would have returned at that boundary — byte-identical,
// because the snapshot is frozen from the same ResultSet Result reads.
// Different queries observed by one reader may come from adjacent
// boundaries (publication swaps slots one at a time), but every
// individual query's view is a real boundary state at least as fresh
// as the last boundary completed before the read began.

// viewSlab is one slab of publication slots, parallel to the
// maintainer's state slabs.
type viewSlab [slabSize]viewEntry

type viewEntry struct {
	top atomic.Pointer[topk.Frozen]
}

// Views is the published, read-only side of a Maintainer: the external
// id → dense id lookup (a read-optimized concurrent map — wait-free
// for settled queries) and the dense publication slots. Slot contents
// change at every publication boundary via a single atomic store.
type Views struct {
	slabs  atomic.Pointer[[]*viewSlab]
	lookup sync.Map // model.QueryID → uint32 dense id
}

// ensure grows the slab directory to cover dense id i. Writer-side
// only; must complete before the lookup entry for i is stored.
func (v *Views) ensure(i uint32) {
	cur := v.slabs.Load()
	need := int(i>>slabBits) + 1
	if cur != nil && len(*cur) >= need {
		return
	}
	var next []*viewSlab
	if cur != nil {
		next = append(next, *cur...)
	}
	for len(next) < need {
		next = append(next, new(viewSlab))
	}
	v.slabs.Store(&next)
}

// entry returns slot i; the slab must exist (writer side).
func (v *Views) entry(i uint32) *viewEntry {
	return &(*v.slabs.Load())[i>>slabBits][i&slabMask]
}

// publish swaps slot i to snapshot f.
func (v *Views) publish(i uint32, f *topk.Frozen) { v.entry(i).top.Store(f) }

// clear empties slot i (Unregister).
func (v *Views) clear(i uint32) { v.entry(i).top.Store(nil) }

// load resolves a published snapshot by dense id with slab-bounds
// protection for readers holding an older slab directory.
func (v *Views) load(i uint32) *topk.Frozen {
	slabs := v.slabs.Load()
	if slabs == nil || int(i>>slabBits) >= len(*slabs) {
		return nil
	}
	return (*slabs)[i>>slabBits][i&slabMask].top.Load()
}

// Result returns the query's last published top-k snapshot. The second
// result is false for a query that is unknown, never published, or
// whose dense slot has been recycled to another query since the lookup
// (the ownership check). Safe for concurrent use from any goroutine.
func (v *Views) Result(id model.QueryID) (*topk.Frozen, bool) {
	d, ok := v.lookup.Load(id)
	if !ok {
		return nil, false
	}
	f := v.load(d.(uint32))
	if f == nil || f.Query.ID != id {
		return nil, false
	}
	return f, true
}

// Each calls fn for every published query in unspecified order. The
// enumeration is weakly consistent: each query's snapshot is a real
// publication-boundary state, but queries registered or unregistered
// concurrently with the iteration may or may not be included.
func (v *Views) Each(fn func(id model.QueryID, top *topk.Frozen)) {
	v.lookup.Range(func(k, d any) bool {
		id := k.(model.QueryID)
		if f := v.load(d.(uint32)); f != nil && f.Query.ID == id {
			fn(id, f)
		}
		return true
	})
}

// memoryBytes estimates the publication surface: the slab directory,
// the slabs, and the lookup entries (estimated at sync.Map's measured
// per-entry cost).
func (v *Views) memoryBytes() uint64 {
	const lookupEntry = 96
	var b uint64
	if slabs := v.slabs.Load(); slabs != nil {
		b += uint64(len(*slabs)) * (8 + uint64(unsafe.Sizeof(viewSlab{})))
	}
	v.lookup.Range(func(any, any) bool { b += lookupEntry; return true })
	return b
}

// ViewReader is the wait-free read handle an engine hands to its
// serving layer. The handle is stable for the engine's lifetime: it
// always reflects the latest published boundary.
type ViewReader interface {
	// Result returns the last published top-k of a query; false for a
	// query that is unknown at the last published boundary.
	Result(id model.QueryID) (*topk.Frozen, bool)
	// Each enumerates every published query (weakly consistent).
	Each(fn func(id model.QueryID, top *topk.Frozen))
}
