package ita

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"ita/internal/core"
	"ita/internal/model"
	"ita/internal/vsm"
	"ita/internal/window"
)

// snapshotVersion guards the wire format; it is the only version
// decodeSnapshot reads (see "On-disk formats" in README.md).
const snapshotVersion = 3

// snapshot is the serialized engine state. It carries each ITA query's
// incremental state — the score floor F and the full result list R — so
// that a restore is exact, not merely result-equivalent: the property
// the WAL's crash-recovery equivalence guarantee is built on. The
// inverted index is a pure function of the window documents and is
// rebuilt. Snapshots written while the engine had two posting layouts
// or a structure seed also carry a PostingLayout or Seed field; gob
// drops a field the struct does not have, so they restore onto the
// engine there is.
type snapshot struct {
	Version   int
	Algorithm Algorithm
	// Window policy: exactly one of CountN/SpanNanos is set.
	CountN    int
	SpanNanos int64
	// Analysis configuration.
	Stemming   bool
	Stopwords  bool
	Okapi      bool
	OkapiAvgDL float64
	RetainText bool
	// Shards is the ITA engine's shard count; 0 restores one per CPU,
	// and a recovering Open may override it.
	Shards int
	// Dictionary terms in id order, so interned ids survive the round
	// trip and query/document term ids keep matching.
	Terms []string
	// Registered queries.
	Queries []snapshotQuery
	// Valid documents in FIFO (arrival) order.
	Docs []snapshotDoc
	// Retained texts parallel to Docs (empty when RetainText is false).
	Texts     []string
	NextDoc   uint64
	NextQuery uint64
	LastAtNs  int64

	Counters Stats
	// EpochSeq is the durable epoch boundary count at capture; WAL
	// checkpoints use it to name segments and resume marker numbering.
	EpochSeq uint64
	// BatchSize is never written. Snapshots taken while a batch size
	// option existed recorded it, and a log written after one that
	// recorded more than 1 may hold buffered records whose epochs replay
	// cannot reproduce; decodeSnapshot refuses those.
	BatchSize int
}

type snapshotQuery struct {
	ID    uint64
	K     int
	Text  string
	Terms []model.QueryTerm

	// Exact state of an ITA query: its score floor and the full result
	// list R (parallel RDoc/RScore arrays, result order). Naïve engines
	// leave them empty and restore by replay.
	Floor  float64
	RDoc   []uint64
	RScore []float64
}

type snapshotDoc struct {
	ID        uint64
	ArrivalNs int64
	Postings  []model.Posting
}

// Snapshot serializes the engine: configuration, dictionary, registered
// queries with their exact incremental state, operation counters and
// the current window. Watchers are not serialized (they are
// process-local callbacks). The engine stays usable afterwards. A
// follower refuses with ErrReadOnly: its primary's checkpoints are the
// snapshots of that stream.
func (e *Engine) Snapshot(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.gateWriteLocked(); err != nil {
		return err
	}
	return e.encodeSnapshotLocked(w)
}

// encodeSnapshotLocked writes the snapshot of the current state. Must
// be called with e.mu held, at a boundary (checkpoints rely on that:
// every logged record up to it is reflected in the encoded state).
func (e *Engine) encodeSnapshotLocked(w io.Writer) error {
	s := snapshot{
		Version:    snapshotVersion,
		Algorithm:  e.cfg.algorithm,
		Stemming:   e.cfg.stemming,
		Stopwords:  e.cfg.stopwords,
		RetainText: e.cfg.retainText,
		Shards:     e.cfg.shards,
		NextDoc:    uint64(e.nextDoc),
		NextQuery:  uint64(e.nextQuery),
		LastAtNs:   e.lastAt.UnixNano(),
		Counters:   *e.inner.Stats(),
		EpochSeq:   e.walEpochSeq(),
	}
	switch pol := e.cfg.policy.(type) {
	case window.Count:
		s.CountN = pol.N
	case window.Span:
		s.SpanNanos = int64(pol.D)
	default:
		return fmt.Errorf("ita: cannot snapshot window policy %T", pol)
	}
	if o, ok := e.cfg.weighter.(vsm.Okapi); ok {
		s.Okapi = true
		s.OkapiAvgDL = o.AvgDocLen
	}

	dict := e.pipeline.Dictionary()
	s.Terms = make([]string, dict.Size())
	for i := range s.Terms {
		s.Terms[i] = dict.Term(model.TermID(i))
	}

	exporter, exact := e.inner.(core.StateSnapshotter)
	e.inner.EachQuery(func(q *model.Query) {
		sq := snapshotQuery{
			ID:    uint64(q.ID),
			K:     q.K,
			Text:  q.Text,
			Terms: q.Terms,
		}
		if exact {
			st, ok := exporter.ExportQueryState(q.ID)
			if !ok {
				panic("ita: registered query has no exportable state")
			}
			sq.Floor = st.F
			sq.RDoc = make([]uint64, len(st.R))
			sq.RScore = make([]float64, len(st.R))
			for i, sd := range st.R {
				sq.RDoc[i] = uint64(sd.Doc)
				sq.RScore[i] = sd.Score
			}
		}
		s.Queries = append(s.Queries, sq)
	})
	// EachQuery order is unspecified; sort for a canonical encoding.
	sort.Slice(s.Queries, func(i, j int) bool { return s.Queries[i].ID < s.Queries[j].ID })
	e.inner.EachDoc(func(d *model.Document) {
		s.Docs = append(s.Docs, snapshotDoc{
			ID:        uint64(d.ID),
			ArrivalNs: d.Arrival.UnixNano(),
			Postings:  d.Postings,
		})
		if e.texts != nil {
			s.Texts = append(s.Texts, e.texts.get(d.ID))
		}
	})
	return gob.NewEncoder(w).Encode(&s)
}

// options reconstructs the engine options a snapshot was taken with.
func (s *snapshot) options() []Option {
	opts := []Option{WithAlgorithm(s.Algorithm)}
	if s.Shards > 0 {
		opts = append(opts, WithShards(s.Shards))
	}
	if s.CountN > 0 {
		opts = append(opts, WithCountWindow(s.CountN))
	} else {
		opts = append(opts, WithTimeWindow(time.Duration(s.SpanNanos)))
	}
	if !s.Stemming {
		opts = append(opts, WithoutStemming())
	}
	if !s.Stopwords {
		opts = append(opts, WithoutStopwords())
	}
	if s.Okapi {
		opts = append(opts, WithOkapiScoring(s.OkapiAvgDL))
	}
	if s.RetainText {
		opts = append(opts, WithTextRetention())
	}
	return opts
}

// Restore rebuilds an engine from a snapshot written by Snapshot. An
// ITA engine restores its exact incremental state — results, score
// floors, operation counters and all future maintenance decisions are
// byte-identical to the snapshotted engine. Naïve engines restore by
// replaying the window, which reproduces identical results while
// recomputing the internal state. A snapshot in a retired format (see
// "On-disk formats" in README.md) is an error.
func Restore(r io.Reader) (*Engine, error) {
	s, err := decodeSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("ita: %w", err)
	}
	return restoreSnapshot(s, nil)
}

// decodeSnapshot reads a snapshot and refuses a retired format. Its
// errors carry no "ita:" prefix; each caller adds one with its context.
func decodeSnapshot(r io.Reader) (*snapshot, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	switch {
	case s.Version != snapshotVersion:
		return nil, fmt.Errorf("snapshot version %d is retired; only version %d is read", s.Version, snapshotVersion)
	case s.Algorithm == 3:
		return nil, errors.New("snapshot records algorithm 3, the retired ita-sharded alias")
	case s.BatchSize > 1:
		return nil, fmt.Errorf("snapshot records batch size %d; logs written under a batch size are retired", s.BatchSize)
	}
	return &s, nil
}

// restoreSnapshot builds an engine from a decoded snapshot. extraOpts
// are applied after the snapshot's own options (the durable Open path
// passes its WAL configuration through here).
func restoreSnapshot(s *snapshot, extraOpts []Option) (*Engine, error) {
	if s.RetainText && len(s.Texts) != len(s.Docs) {
		return nil, fmt.Errorf("ita: restore: %d retained texts for %d documents", len(s.Texts), len(s.Docs))
	}
	e, err := New(append(s.options(), extraOpts...)...)
	if err != nil {
		return nil, fmt.Errorf("ita: restore: %w", err)
	}

	// Rebuild the dictionary with identical interning order.
	dict := e.pipeline.Dictionary()
	for i, term := range s.Terms {
		if id := dict.Intern(term); id != model.TermID(i) {
			return nil, fmt.Errorf("ita: dictionary out of order at %d (%q)", i, term)
		}
	}

	restorer, exact := e.inner.(core.StateSnapshotter)
	docs := make([]*model.Document, len(s.Docs))
	for i, sd := range s.Docs {
		doc, err := model.NewDocument(model.DocID(sd.ID), time.Unix(0, sd.ArrivalNs), sd.Postings)
		if err != nil {
			return nil, fmt.Errorf("ita: restore doc %d: %w", sd.ID, err)
		}
		docs[i] = doc
	}

	if exact {
		// Exact path: window first (no maintenance — there are no queries
		// yet and RestoreWindow runs none), then each query's state
		// verbatim, then the counters.
		if err := restorer.RestoreWindow(docs); err != nil {
			return nil, fmt.Errorf("ita: restore window: %w", err)
		}
		for _, sq := range s.Queries {
			q, st, err := sq.decodeState()
			if err != nil {
				return nil, err
			}
			if err := restorer.RestoreQueryState(q, st); err != nil {
				return nil, fmt.Errorf("ita: restore query %d: %w", sq.ID, err)
			}
		}
		restorer.SetStats(s.Counters)
	} else {
		// Replay path: queries first (their initial searches run on an
		// empty window and are cheap), then the window replays in arrival
		// order.
		for _, sq := range s.Queries {
			q, err := sq.decode()
			if err != nil {
				return nil, err
			}
			if err := e.inner.Register(q); err != nil {
				return nil, fmt.Errorf("ita: restore query %d: %w", sq.ID, err)
			}
		}
		for _, doc := range docs {
			if err := e.inner.Process(doc); err != nil {
				return nil, fmt.Errorf("ita: restore doc %d: %w", doc.ID, err)
			}
		}
	}
	if e.texts != nil {
		for i, doc := range docs {
			e.texts.add(doc.ID, doc.Arrival, s.Texts[i])
		}
	}
	e.nextDoc = model.DocID(s.NextDoc)
	e.nextQuery = model.QueryID(s.NextQuery)
	e.lastAt = time.Unix(0, s.LastAtNs)
	// The rebuild above bypassed the facade's boundary hooks; publish
	// once so wait-free readers of the restored engine see the window
	// immediately.
	e.publishLocked()
	return e, nil
}

// decode validates and decodes one query, text included.
func (sq *snapshotQuery) decode() (*model.Query, error) {
	q, err := model.NewQuery(model.QueryID(sq.ID), sq.K, sq.Terms)
	if err != nil {
		return nil, fmt.Errorf("ita: restore query %d: %w", sq.ID, err)
	}
	q.Text = sq.Text
	return q, nil
}

// decodeState validates and decodes one query and its exact state.
func (sq *snapshotQuery) decodeState() (*model.Query, core.QueryState, error) {
	q, err := sq.decode()
	if err != nil {
		return nil, core.QueryState{}, err
	}
	if len(sq.RDoc) != len(sq.RScore) {
		return nil, core.QueryState{}, fmt.Errorf("ita: restore query %d: mismatched state arrays", sq.ID)
	}
	st := core.QueryState{
		F: sq.Floor,
		R: make([]model.ScoredDoc, len(sq.RDoc)),
	}
	for i := range sq.RDoc {
		st.R[i] = model.ScoredDoc{Doc: model.DocID(sq.RDoc[i]), Score: sq.RScore[i]}
	}
	return q, st, nil
}
