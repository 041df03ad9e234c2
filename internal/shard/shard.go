// Package shard keeps the old constructor of the sharded ITA compiling
// for the benchmark's staged pipeline. The engine itself is core.ITA,
// which holds S ≥ 1 query shards (core.WithShards); nothing here adds
// behaviour.
package shard

import (
	"ita/internal/core"
	"ita/internal/window"
)

// Engine is core.ITA.
type Engine = core.ITA

// Option configures New.
type Option = core.ITAOption

// WithSeed is ignored: no engine structure is randomized.
func WithSeed(seed uint64) Option { return func(*core.ITA) {} }

// New returns core.NewITA with the given shard count; shards <= 0
// selects runtime.GOMAXPROCS(0).
func New(policy window.Policy, shards int, opts ...Option) *Engine {
	return core.NewITA(policy, append(opts, core.WithShards(shards))...)
}
