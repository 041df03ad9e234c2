package wal

import "encoding/binary"

// Kind enumerates the logged operation types. Values are part of the
// on-disk format; never renumber.
type Kind uint8

const (
	// KindRegister is a query registration: Query (the id the facade
	// will assign), K and Text.
	KindRegister Kind = 1
	// KindUnregister removes query Query.
	KindUnregister Kind = 2
	// KindDoc was one document ingest: Doc (the assigned id), At and
	// Text. Retired: decoded so a scan never truncates, refused by
	// replay.
	KindDoc Kind = 3
	// KindBatch is one ingest epoch — an IngestText or IngestBatch
	// call, or a group of concurrent ones: Doc (the first assigned id)
	// and Items.
	KindBatch Kind = 4
	// KindAdvance moves the stream clock to At without an arrival.
	KindAdvance Kind = 5
	// KindFlush was an explicit flush of documents an engine with a
	// batch size had buffered. Retired: decoded so a scan never
	// truncates, refused by replay.
	KindFlush Kind = 6
	// KindEpoch marks a completed publication boundary carrying the
	// engine's epoch sequence number. It bears no state: replay derives
	// every boundary from the operation records and uses markers as
	// integrity checks and (under DurabilityEpochSync) fsync points.
	KindEpoch Kind = 7
	// KindAlign is a cluster node's non-owning side of a registration:
	// Query (the id consumed, owned by another node) and Text (analyzed
	// for dictionary alignment, but not registered).
	KindAlign Kind = 8
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRegister:
		return "register"
	case KindUnregister:
		return "unregister"
	case KindDoc:
		return "doc"
	case KindBatch:
		return "batch"
	case KindAdvance:
		return "advance"
	case KindFlush:
		return "flush"
	case KindEpoch:
		return "epoch"
	case KindAlign:
		return "align"
	default:
		return "invalid"
	}
}

// StateBearing reports whether replaying the record mutates engine
// state. Epoch markers are pure bookkeeping; everything else is an
// operation.
func (k Kind) StateBearing() bool { return k != KindEpoch }

// DocEntry is one document of a KindBatch record.
type DocEntry struct {
	At   int64 // arrival, Unix nanoseconds
	Text string
}

// Record is one logged operation. Field use by kind is documented on
// the Kind constants; unused fields are zero.
type Record struct {
	Kind  Kind
	Query uint64     // KindRegister, KindUnregister, KindAlign
	K     int        // KindRegister
	Doc   uint64     // KindDoc, KindBatch (first id of the batch)
	At    int64      // KindDoc, KindAdvance: Unix nanoseconds
	Seq   uint64     // KindEpoch
	Text  string     // KindRegister, KindDoc, KindAlign
	Items []DocEntry // KindBatch
}

// appendPayload appends the varint encoding of rec to dst. The layout
// per kind mirrors the Record field documentation; strings are
// length-prefixed.
func appendPayload(dst []byte, rec *Record) []byte {
	dst = append(dst, byte(rec.Kind))
	switch rec.Kind {
	case KindRegister:
		dst = binary.AppendUvarint(dst, rec.Query)
		dst = binary.AppendUvarint(dst, uint64(rec.K))
		dst = appendString(dst, rec.Text)
	case KindUnregister:
		dst = binary.AppendUvarint(dst, rec.Query)
	case KindDoc:
		dst = binary.AppendUvarint(dst, rec.Doc)
		dst = binary.AppendVarint(dst, rec.At)
		dst = appendString(dst, rec.Text)
	case KindBatch:
		dst = binary.AppendUvarint(dst, rec.Doc)
		dst = binary.AppendUvarint(dst, uint64(len(rec.Items)))
		for _, it := range rec.Items {
			dst = binary.AppendVarint(dst, it.At)
			dst = appendString(dst, it.Text)
		}
	case KindAdvance:
		dst = binary.AppendVarint(dst, rec.At)
	case KindFlush:
	case KindEpoch:
		dst = binary.AppendUvarint(dst, rec.Seq)
	case KindAlign:
		dst = binary.AppendUvarint(dst, rec.Query)
		dst = appendString(dst, rec.Text)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodePayload decodes one record payload. It is total: any input
// either decodes fully (ok=true, every byte consumed) or is rejected,
// never panics — the fuzz target FuzzWALDecode holds it to that.
func decodePayload(p []byte) (Record, bool) {
	var rec Record
	if len(p) == 0 {
		return rec, false
	}
	rec.Kind = Kind(p[0])
	d := decoder{p: p[1:]}
	switch rec.Kind {
	case KindRegister:
		rec.Query = d.uvarint()
		rec.K = int(d.uvarint())
		rec.Text = d.str()
	case KindUnregister:
		rec.Query = d.uvarint()
	case KindDoc:
		rec.Doc = d.uvarint()
		rec.At = d.varint()
		rec.Text = d.str()
	case KindBatch:
		rec.Doc = d.uvarint()
		n := d.uvarint()
		if d.bad || n > uint64(len(d.p)) {
			return rec, false
		}
		rec.Items = make([]DocEntry, 0, n)
		for i := uint64(0); i < n; i++ {
			at := d.varint()
			text := d.str()
			rec.Items = append(rec.Items, DocEntry{At: at, Text: text})
		}
	case KindAdvance:
		rec.At = d.varint()
	case KindFlush:
	case KindEpoch:
		rec.Seq = d.uvarint()
	case KindAlign:
		rec.Query = d.uvarint()
		rec.Text = d.str()
	default:
		return rec, false
	}
	if d.bad || len(d.p) != 0 {
		return rec, false
	}
	return rec, true
}

// decoder is a cursor over a payload with sticky failure.
type decoder struct {
	p   []byte
	bad bool
}

func (d *decoder) uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.p)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.bad || n > uint64(len(d.p)) {
		d.bad = true
		return ""
	}
	s := string(d.p[:n])
	d.p = d.p[n:]
	return s
}
