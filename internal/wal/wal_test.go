package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sampleRecords covers every kind with non-trivial field values.
func sampleRecords() []Record {
	return []Record{
		{Kind: KindRegister, Query: 1, K: 3, Text: "crude oil market"},
		{Kind: KindDoc, Doc: 1, At: 1000, Text: "oil tanker leaves port"},
		{Kind: KindEpoch, Seq: 1},
		{Kind: KindBatch, Doc: 2, Items: []DocEntry{
			{At: 2000, Text: "solar grid storage"},
			{At: 3000, Text: ""},
			{At: -5, Text: "pre-epoch arrival"},
		}},
		{Kind: KindEpoch, Seq: 2},
		{Kind: KindFlush},
		{Kind: KindAdvance, At: 9_000_000},
		{Kind: KindEpoch, Seq: 3},
		{Kind: KindUnregister, Query: 1},
		{Kind: KindEpoch, Seq: 4},
		{Kind: KindAlign, Query: 7, Text: "owned by another node"},
		{Kind: KindEpoch, Seq: 5},
	}
}

func encodeAll(recs []Record) []byte {
	var buf []byte
	for i := range recs {
		buf = appendFrame(buf, &recs[i])
	}
	return buf
}

func TestRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data := encodeAll(recs)
	res := Scan(data)
	if res.Torn {
		t.Fatalf("clean stream reported torn")
	}
	if res.Clean != int64(len(data)) {
		t.Fatalf("clean offset %d, want %d", res.Clean, len(data))
	}
	if !reflect.DeepEqual(res.Records, recs) {
		t.Fatalf("decoded records differ:\n got %+v\nwant %+v", res.Records, recs)
	}
	for i, end := range res.Ends {
		if i > 0 && end <= res.Ends[i-1] {
			t.Fatalf("record ends not increasing: %v", res.Ends)
		}
	}
}

// TestScanTornTail truncates the encoded stream at every byte offset
// and asserts the scan always returns the longest complete record
// prefix — the crash model's prefix-consistency guarantee at the codec
// level.
func TestScanTornTail(t *testing.T) {
	recs := sampleRecords()
	data := encodeAll(recs)
	full := Scan(data)
	for n := 0; n <= len(data); n++ {
		res := Scan(data[:n])
		want := 0
		for want < len(full.Ends) && full.Ends[want] <= int64(n) {
			want++
		}
		if len(res.Records) != want {
			t.Fatalf("prefix %d: decoded %d records, want %d", n, len(res.Records), want)
		}
		if want > 0 && res.Clean != full.Ends[want-1] {
			t.Fatalf("prefix %d: clean %d, want %d", n, res.Clean, full.Ends[want-1])
		}
		if res.Torn != (int(res.Clean) != n) {
			t.Fatalf("prefix %d: torn=%v clean=%d", n, res.Torn, res.Clean)
		}
	}
}

// TestScanCorruption flips each byte of the stream in turn; the scan
// must stop at or before the corrupted record, never panic, and the
// surviving records must be an exact prefix of the originals.
func TestScanCorruption(t *testing.T) {
	recs := sampleRecords()
	data := encodeAll(recs)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		res := Scan(mut)
		for j, rec := range res.Records {
			// A flipped byte can only ever truncate the stream: any
			// surviving decoded record must equal the original at its
			// position (CRC-32C catches all single-byte corruption).
			if !reflect.DeepEqual(rec, recs[j]) {
				t.Fatalf("corrupt byte %d: record %d mutated to %+v", i, j, rec)
			}
		}
	}
}

func TestScanGarbageLength(t *testing.T) {
	var data []byte
	data = append(data, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0) // absurd length
	res := Scan(data)
	if len(res.Records) != 0 || res.Clean != 0 || !res.Torn {
		t.Fatalf("garbage length accepted: %+v", res)
	}
}

func TestLogAppendOffsetsMatchScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0.log")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(f, 0, DurabilityAlways)
	recs := sampleRecords()
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || res.Clean != l.Offset() {
		t.Fatalf("scan clean=%d torn=%v, log offset %d", res.Clean, res.Torn, l.Offset())
	}
	if !reflect.DeepEqual(res.Records, recs) {
		t.Fatalf("file round trip differs")
	}
}

// failAfterFile errors (optionally after a short write) once n bytes
// have been written. It is the package-level cousin of the engine
// crash-point tests' failingFile.
type failAfterFile struct {
	buf      bytes.Buffer
	n        int
	truncErr error
}

func (f *failAfterFile) Write(p []byte) (int, error) {
	room := f.n - f.buf.Len()
	if room <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) <= room {
		return f.buf.Write(p)
	}
	f.buf.Write(p[:room])
	return room, errors.New("disk full")
}
func (f *failAfterFile) Close() error { return nil }
func (f *failAfterFile) Sync() error  { return nil }
func (f *failAfterFile) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	f.buf.Truncate(int(size))
	return nil
}

// TestAppendFailureKeepsCleanBoundary sweeps the write-failure point
// across a record stream: after any failed append, the bytes on "disk"
// must scan to exactly the records appended before the failure.
func TestAppendFailureKeepsCleanBoundary(t *testing.T) {
	recs := sampleRecords()
	total := len(encodeAll(recs))
	for n := 0; n < total; n++ {
		f := &failAfterFile{n: n}
		l := NewLog(f, 0, DurabilityOff)
		appended := 0
		for i := range recs {
			if err := l.Append(&recs[i]); err != nil {
				break
			}
			appended++
		}
		if appended == len(recs) {
			t.Fatalf("fail point %d: no append failed", n)
		}
		res := Scan(f.buf.Bytes())
		if res.Torn || len(res.Records) != appended {
			t.Fatalf("fail point %d: %d records on disk (torn=%v), %d acked",
				n, len(res.Records), res.Torn, appended)
		}
		if res.Clean != l.Offset() {
			t.Fatalf("fail point %d: clean %d, log offset %d", n, res.Clean, l.Offset())
		}
	}
}

// TestAppendFailurePoisonsOnTruncateError: when the truncate-back also
// fails the log must refuse every further operation rather than build
// on a torn tail.
func TestAppendFailurePoisonsOnTruncateError(t *testing.T) {
	f := &failAfterFile{n: 5, truncErr: errors.New("io error")}
	l := NewLog(f, 0, DurabilityOff)
	rec := Record{Kind: KindDoc, Doc: 1, Text: "a document long enough to split"}
	if err := l.Append(&rec); err == nil {
		t.Fatal("append succeeded past the fail point")
	}
	if err := l.Append(&Record{Kind: KindFlush}); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("poisoned log accepted a sync")
	}
}

func TestDirScanAndGC(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"checkpoint-0.ckpt", "checkpoint-12.ckpt", "checkpoint-12.tmp",
		"wal-0.log", "wal-12.log", "garbage.txt", "checkpoint-x.ckpt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Checkpoints, []uint64{0, 12}) {
		t.Fatalf("checkpoints %v", st.Checkpoints)
	}
	if !reflect.DeepEqual(st.Segments, []uint64{0, 12}) {
		t.Fatalf("segments %v", st.Segments)
	}
	if len(st.Tmp) != 1 || filepath.Base(st.Tmp[0]) != "checkpoint-12.tmp" {
		t.Fatalf("tmp %v", st.Tmp)
	}
	if len(st.Foreign) != 2 {
		t.Fatalf("foreign %v", st.Foreign)
	}
	latest, ok := st.Latest()
	if !ok || latest != 12 {
		t.Fatalf("latest = %d, %v", latest, ok)
	}
	GC(dir, st, 12)
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range left {
		names = append(names, e.Name())
	}
	// The engine's own stale files are gone; foreign files survive — a
	// user pointing -wal at a shared directory must never lose data.
	want := []string{"checkpoint-12.ckpt", "checkpoint-x.ckpt", "garbage.txt", "wal-12.log"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("after GC: %v, want %v", names, want)
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	f := &failAfterFile{n: 1 << 30}
	l := NewLog(f, 0, DurabilityOff)
	huge := Record{Kind: KindDoc, Doc: 1, Text: string(make([]byte, maxPayload+1))}
	if err := l.Append(&huge); err == nil {
		t.Fatal("oversized record accepted")
	}
	if f.buf.Len() != 0 {
		t.Fatalf("oversized record leaked %d bytes to the file", f.buf.Len())
	}
	if err := l.Append(&Record{Kind: KindFlush}); err != nil {
		t.Fatalf("log unusable after rejecting oversized record: %v", err)
	}
}

func TestPoison(t *testing.T) {
	f := &failAfterFile{n: 1 << 20}
	l := NewLog(f, 0, DurabilityOff)
	if err := l.Append(&Record{Kind: KindFlush}); err != nil {
		t.Fatal(err)
	}
	poison := errors.New("rotation failed")
	l.Poison(poison)
	if err := l.Append(&Record{Kind: KindFlush}); !errors.Is(err, poison) {
		t.Fatalf("append after poison: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, poison) {
		t.Fatalf("sync after poison: %v", err)
	}
}
