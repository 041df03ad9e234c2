package main

import (
	"fmt"
	"os"
	"path/filepath"

	"ita"
	"ita/internal/core"
	"ita/internal/invindex"
	"ita/internal/model"
	"ita/internal/shard"
	"ita/internal/textproc"
	"ita/internal/vsm"
	"ita/internal/wal"
	"ita/internal/window"
)

// staged is the traced pass's second twin: the ingest pipeline assembled
// here from each layer's exported functions, in the order
// Engine.ingestBatchLocked and core.ITA.ProcessEpoch call them, with a
// span around every call. It must end with the same results as the
// facade, or its breakdown describes a different program.
//
// With shards > 1 the index and maintenance stages are one
// shard.Engine.ProcessEpoch call, as they are behind the facade.
type staged struct {
	tr     *tracer
	pipe   *textproc.Pipeline
	weigh  vsm.Cosine
	policy window.Count

	index *invindex.Index
	maint *core.Maintainer
	stats core.Stats
	shard *shard.Engine // replaces index+maint when sharded

	log      *wal.Log // nil without a WAL
	epochSeq uint64

	nextDoc   model.DocID
	nextQuery model.QueryID
}

// engineSeed is the structure seed the facade defaults to.
const engineSeed = 1

func newStaged(w workload, tr *tracer, shards int, walDir string) (*staged, error) {
	s := &staged{
		tr:        tr,
		pipe:      textproc.NewPipeline(textproc.NewDictionary(), true, true),
		policy:    window.Count{N: w.Window},
		nextDoc:   1,
		nextQuery: 1,
	}
	if shards > 1 {
		s.shard = shard.New(s.policy, shards, shard.WithSeed(engineSeed))
	} else {
		s.index = invindex.NewIndex(engineSeed)
		s.maint = core.NewMaintainer(s.index, &s.stats, core.MaintainerConfig{Seed: engineSeed})
	}
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(filepath.Join(walDir, "staged.wal"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		s.log = wal.NewLog(f, 0, wal.DurabilityEpochSync)
	}
	return s, nil
}

// appendLog logs one operation record before it is applied.
func (s *staged) appendLog(rec *wal.Record) error {
	if s.log == nil {
		return nil
	}
	defer s.tr.end(s.tr.begin("wal.append", 0))
	return s.log.Append(rec)
}

// boundary publishes the new results and marks the epoch in the log, as
// every facade operation does before it returns.
func (s *staged) boundary() error {
	sp := s.tr.begin("core.publish", 0)
	if s.shard != nil {
		s.shard.PublishViews()
	} else {
		s.maint.Publish()
	}
	s.tr.end(sp)
	if s.log == nil {
		return nil
	}
	s.epochSeq++
	sp = s.tr.begin("wal.append", 0)
	err := s.log.Append(&wal.Record{Kind: wal.KindEpoch, Seq: s.epochSeq})
	s.tr.end(sp)
	if err != nil {
		return err
	}
	// The server runs without fsync (see startServer); this one prices
	// what an fsync per epoch would cost on today's disk.
	defer s.tr.end(s.tr.begin("wal.sync", 0))
	return s.log.Sync()
}

func (s *staged) ingest(items []ita.TimedText, stamp func(int)) error {
	docs := make([]*model.Document, len(items))
	for i, it := range items {
		sp := s.tr.begin("textproc.analyze", 1)
		freqs := s.pipe.TermFreqs(it.Text)
		s.tr.end(sp)
		sp = s.tr.begin("vsm.weigh", 1)
		doc, err := model.NewDocument(s.nextDoc+model.DocID(i), it.At, s.weigh.DocPostings(freqs))
		s.tr.end(sp)
		if err != nil {
			return err
		}
		docs[i] = doc
	}
	rec := wal.Record{Kind: wal.KindDoc, Doc: uint64(s.nextDoc), At: items[0].At.UnixNano(), Text: items[0].Text}
	if len(items) > 1 {
		rec = wal.Record{Kind: wal.KindBatch, Doc: uint64(s.nextDoc), Items: make([]wal.DocEntry, len(items))}
		for i, it := range items {
			rec.Items[i] = wal.DocEntry{At: it.At.UnixNano(), Text: it.Text}
		}
	}
	if err := s.appendLog(&rec); err != nil {
		return err
	}
	s.nextDoc += model.DocID(len(items))

	var err error
	switch {
	case s.shard != nil:
		sp := s.tr.begin("shard.epoch", len(docs))
		err = s.shard.ProcessEpoch(docs)
		s.tr.end(sp)
	case len(docs) == 1:
		err = s.processOne(docs[0])
	default:
		err = s.processEpoch(docs)
	}
	if err != nil {
		return err
	}
	if err := s.boundary(); err != nil {
		return err
	}
	if stamp != nil {
		stamp(len(items))
	}
	return nil
}

// processEpoch is core.ITA.ProcessEpoch for two or more documents.
func (s *staged) processEpoch(docs []*model.Document) error {
	now := docs[len(docs)-1].Arrival
	sp := s.tr.begin("invindex.apply", len(docs))
	res, err := s.index.ApplyBatch(docs, func(oldest *model.Document, count int) bool {
		return s.policy.Expired(oldest.Arrival, now, count)
	})
	s.tr.end(sp)
	if err != nil {
		return err
	}
	sp = s.tr.begin("core.maintain", len(docs))
	s.maint.HandleEpoch(docs[res.Dropped:], res.Expired)
	s.tr.end(sp)
	return nil
}

// processOne is core.ITA.Process: the per-event path a single-document
// call takes.
func (s *staged) processOne(d *model.Document) error {
	sp := s.tr.begin("invindex.point", 1)
	err := s.index.Insert(d)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	sp = s.tr.begin("core.point_maintain", 1)
	s.maint.HandleArrival(d)
	s.tr.end(sp)
	for {
		oldest := s.index.Oldest()
		if oldest == nil || !s.policy.Expired(oldest.Arrival, d.Arrival, s.index.Len()) {
			return nil
		}
		sp = s.tr.begin("invindex.point", 0)
		old := s.index.RemoveOldest()
		s.tr.end(sp)
		sp = s.tr.begin("core.point_maintain", 0)
		s.maint.HandleExpire(old)
		s.tr.end(sp)
	}
}

func (s *staged) maxBatch() int { return pacedCap }

func (s *staged) register(text string, k int) (ita.QueryID, error) {
	id := s.nextQuery
	q, err := model.NewQuery(id, k, s.weigh.QueryTerms(s.pipe.TermFreqs(text)))
	if err != nil {
		return 0, err
	}
	if err := s.appendLog(&wal.Record{Kind: wal.KindRegister, Query: uint64(id), K: k, Text: text}); err != nil {
		return 0, err
	}
	sp := s.tr.begin("core.register", 0)
	if s.shard != nil {
		err = s.shard.Register(q)
	} else {
		err = s.maint.Register(q)
	}
	s.tr.end(sp)
	if err != nil {
		return 0, err
	}
	s.nextQuery++
	return id, s.boundary()
}

func (s *staged) unregister(id ita.QueryID) error {
	if err := s.appendLog(&wal.Record{Kind: wal.KindUnregister, Query: uint64(id)}); err != nil {
		return err
	}
	ok := false
	if s.shard != nil {
		ok = s.shard.Unregister(id)
	} else {
		ok = s.maint.Unregister(id)
	}
	if !ok {
		return fmt.Errorf("unregister %d: unknown query", id)
	}
	return s.boundary()
}

func (s *staged) results(id ita.QueryID) ([]ita.Match, error) {
	var docs []model.ScoredDoc
	ok := false
	if s.shard != nil {
		docs, ok = s.shard.Result(id)
	} else {
		docs, ok = s.maint.Result(id)
	}
	if !ok {
		return nil, fmt.Errorf("results %d: unknown query", id)
	}
	out := make([]ita.Match, len(docs))
	for i, d := range docs {
		out[i] = ita.Match{Doc: d.Doc, Score: d.Score}
	}
	return out, nil
}

func (s *staged) reader() func(ita.QueryID) ([]ita.Match, error) { return s.results }

func (s *staged) dictionarySize() (int, error) { return s.pipe.Dictionary().Size(), nil }

func (s *staged) memoryMB() (float64, error) { return 0, nil }

func (s *staged) close() error {
	if s.shard != nil {
		s.shard.Close()
	}
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}
