package ita

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"ita/internal/core"
	"ita/internal/model"
	"ita/internal/vsm"
	"ita/internal/window"
)

// snapshotVersion guards the wire format; bump on incompatible change.
// Version history:
//
//	1 — configuration, dictionary, queries, window documents. Restoring
//	    replays the window through a fresh engine, which reproduces
//	    results but recomputes thresholds and counters from scratch.
//	2 — adds the exact incremental state (per-query local thresholds
//	    and full result lists), the operation counters, and the epoch
//	    sequence number used by WAL checkpoints. Restoring reconstructs
//	    the engine byte-identically: results, Stats, and every future
//	    maintenance decision match an engine that never restarted.
//	3 — the engine's incremental state is now a per-query score floor
//	    (plus the full result list) instead of per-term positional
//	    thresholds; snapshotQuery gains Floor and the Theta arrays are
//	    retained only to decode older snapshots. A version-3 snapshot
//	    restores exactly; version-2 (and 1) snapshots restore through
//	    the replay path, which reproduces identical results while
//	    recomputing floors and counters.
const snapshotVersion = 3

// snapshot is the serialized engine state. Up to version 1 the
// incremental structures (inverted lists, thresholds, result sets) were
// deliberately excluded as derivable; version 2 carries the per-query
// threshold and result state so that a restore is exact, not merely
// result-equivalent — the property the WAL's crash-recovery equivalence
// guarantee is built on. The inverted index itself remains derivable
// (it is a pure function of the window documents) and is still rebuilt.
// Snapshots written while the engine had two posting layouts also carry
// a PostingLayout field; gob drops a field the struct no longer has, so
// they restore onto the one layout there is.
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
	// Shard count of the sharded engine (0 = auto); meaningful only
	// when Algorithm is ShardedIncrementalThreshold. Older snapshots
	// decode it as zero, which restores with the automatic count.
	Shards int
	// Epoch size of WithBatchSize. Older snapshots decode it as zero,
	// which restores unbatched — the pre-batching behavior.
	BatchSize int
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

	// Version 2: exact-state restoration. ExactState reports whether the
	// per-query ThetaW/ThetaDoc/RDoc/RScore arrays and Counters were
	// captured (true for the ITA engines, false for the Naïve baselines,
	// and always false in version-1 snapshots, where gob decodes the
	// absent fields as zero values).
	ExactState bool
	Counters   Stats
	// EpochSeq is the durable epoch boundary count at capture; WAL
	// checkpoints use it to name segments and resume marker numbering.
	EpochSeq uint64
}

type snapshotQuery struct {
	ID    uint64
	K     int
	Text  string
	Terms []model.QueryTerm

	// Exact state. Version 3 captures the query's score floor and the
	// full result list R (parallel RDoc/RScore arrays, result order).
	// ThetaW/ThetaDoc carried version 2's per-term positional thresholds;
	// they are kept so old snapshots decode, but the floor engine cannot
	// reconstruct exact state from them (those restore via replay).
	Floor    float64
	ThetaW   []float64
	ThetaDoc []uint64
	RDoc     []uint64
	RScore   []float64
}

type snapshotDoc struct {
	ID        uint64
	ArrivalNs int64
	Postings  []model.Posting
}

// Snapshot serializes the engine: configuration (including the epoch
// batch size, so a restored engine keeps its ingestion configuration),
// dictionary, registered queries with their exact incremental state,
// operation counters and the current window. Any buffered epoch is
// flushed first so the snapshot captures every ingested document.
// Watchers are not serialized (they are process-local callbacks). The
// engine stays usable afterwards.
func (e *Engine) Snapshot(w io.Writer) error {
	e.mu.Lock()
	// Gated on followers too: the pre-snapshot flush would create a
	// local epoch boundary the primary's record stream never had.
	if err := e.gateWriteLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	err := e.snapshotLocked(w)
	e.queueDeltasLocked(e.collectDeltas())
	e.mu.Unlock()
	e.deliverQueued()
	return err
}

func (e *Engine) snapshotLocked(w io.Writer) error {
	if err := e.flushExplicitLocked(); err != nil {
		return err
	}
	return e.encodeSnapshotLocked(w)
}

// encodeSnapshotLocked writes the snapshot of the current state. Must
// be called with e.mu held and no buffered epoch pending (checkpoints
// rely on that invariant: every logged record up to this boundary is
// reflected in the encoded state).
func (e *Engine) encodeSnapshotLocked(w io.Writer) error {
	if len(e.pending) != 0 {
		return fmt.Errorf("ita: snapshot with %d buffered documents", len(e.pending))
	}
	s := snapshot{
		Version:    snapshotVersion,
		Algorithm:  e.cfg.algorithm,
		Stemming:   e.cfg.stemming,
		Stopwords:  e.cfg.stopwords,
		RetainText: e.cfg.retainText,
		Shards:     e.cfg.shards,
		BatchSize:  e.cfg.batchSize,
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
	s.ExactState = exact
	e.inner.EachQuery(func(q *model.Query) {
		text, _ := e.QueryText(q.ID)
		sq := snapshotQuery{
			ID:    uint64(q.ID),
			K:     q.K,
			Text:  text,
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
	if s.Algorithm == ShardedIncrementalThreshold {
		opts = append(opts, WithShards(s.Shards))
	}
	if s.BatchSize > 1 {
		opts = append(opts, WithBatchSize(s.BatchSize))
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

// Restore rebuilds an engine from a snapshot written by Snapshot. A
// version-2 snapshot of an ITA engine restores the exact incremental
// state — results, thresholds, operation counters and all future
// maintenance decisions are byte-identical to the snapshotted engine.
// Version-1 snapshots and Naïve engines restore by replaying the
// window, which reproduces identical results while recomputing the
// internal state.
func Restore(r io.Reader) (*Engine, error) {
	s, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	return restoreSnapshot(s, nil)
}

func decodeSnapshot(r io.Reader) (*snapshot, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("ita: decode snapshot: %w", err)
	}
	if s.Version < 1 || s.Version > snapshotVersion {
		return nil, fmt.Errorf("ita: snapshot version %d, want 1..%d", s.Version, snapshotVersion)
	}
	return &s, nil
}

// restoreSnapshot builds an engine from a decoded snapshot. extraOpts
// are applied after the snapshot's own options (the durable Open path
// passes its WAL configuration through here).
func restoreSnapshot(s *snapshot, extraOpts []Option) (*Engine, error) {
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
	// Version-2 exact state is positional (per-term thresholds); the
	// floor engine cannot adopt it, so only version 3+ restores exactly.
	exact = exact && s.ExactState && s.Version >= 3

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
			// Duplicate query texts share one canonical term vector, as
			// they would have had every query been registered live.
			if terms := e.internedTermsLocked(sq.Text); terms != nil {
				q.Terms = terms
			}
			if err := restorer.RestoreQueryState(q, st); err != nil {
				return nil, fmt.Errorf("ita: restore query %d: %w", sq.ID, err)
			}
			e.queryText.Store(model.QueryID(sq.ID), sq.Text)
			e.internStoreLocked(sq.Text, q.Terms)
		}
		restorer.SetStats(s.Counters)
	} else {
		// Replay path: queries first (their initial searches run on an
		// empty window and are cheap), then the window replays in arrival
		// order.
		for _, sq := range s.Queries {
			q, err := model.NewQuery(model.QueryID(sq.ID), sq.K, sq.Terms)
			if err != nil {
				return nil, fmt.Errorf("ita: restore query %d: %w", sq.ID, err)
			}
			if terms := e.internedTermsLocked(sq.Text); terms != nil {
				q.Terms = terms
			}
			if err := e.inner.Register(q); err != nil {
				return nil, fmt.Errorf("ita: restore query %d: %w", sq.ID, err)
			}
			e.queryText.Store(model.QueryID(sq.ID), sq.Text)
			e.internStoreLocked(sq.Text, q.Terms)
		}
		for _, doc := range docs {
			if err := e.inner.Process(doc); err != nil {
				return nil, fmt.Errorf("ita: restore doc %d: %w", doc.ID, err)
			}
		}
	}
	if e.texts != nil {
		for i, doc := range docs {
			if i < len(s.Texts) {
				e.texts.add(doc.ID, doc.Arrival, s.Texts[i])
			}
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

// decodeState validates and decodes one query's exact state.
func (sq *snapshotQuery) decodeState() (*model.Query, core.QueryState, error) {
	q, err := model.NewQuery(model.QueryID(sq.ID), sq.K, sq.Terms)
	if err != nil {
		return nil, core.QueryState{}, fmt.Errorf("ita: restore query %d: %w", sq.ID, err)
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
