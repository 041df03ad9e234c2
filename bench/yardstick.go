package main

import (
	"math/rand"
	"time"
)

// A yardstick measures how fast the machine is right now. The container
// this benchmark runs in slows down by a quarter, sometimes by half, for
// minutes at a time when its host is busy, which no run length inside
// the driver's budget averages out. So every timed phase interleaves
// short slices of fixed work with its own, and reports its times
// divided by the median slice's slowdown against yardstickNominal: what
// the phase would have taken on the quiet container.
//
// The slice is work no commit of the repository can change: dependent
// loads through a 32 MB random cycle (memory latency, which the engine's
// index and query state are bound by), then an arithmetic loop (clock
// speed). It shares no code with the engine, so a real gain does not
// cancel.
type yardstick struct {
	table []uint32
	pos   uint32
	sink  uint64
}

const (
	yardstickEntries = 8 << 20 // × 4 bytes
	yardstickLoads   = 1500
	yardstickRounds  = 100000
)

// yardstickNominal is one slice on the authoring container when quiet.
const yardstickNominal = 575 * time.Microsecond

func newYardstick() *yardstick {
	y := &yardstick{table: make([]uint32, yardstickEntries)}
	for i := range y.table {
		y.table[i] = uint32(i)
	}
	// Sattolo's shuffle: one cycle through every entry.
	rng := rand.New(rand.NewSource(1))
	for i := len(y.table) - 1; i > 0; i-- {
		j := rng.Intn(i)
		y.table[i], y.table[j] = y.table[j], y.table[i]
	}
	return y
}

// slice runs one slice and returns how long it took.
func (y *yardstick) slice() time.Duration {
	start := time.Now()
	i := y.pos
	for range yardstickLoads {
		i = y.table[i]
	}
	y.pos = i
	x := uint64(i) | 1
	for range yardstickRounds {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	y.sink += x
	return time.Since(start)
}

// pace collects one phase's slices.
type pace struct {
	y      *yardstick
	slices []float64 // seconds
}

func (p *pace) tick() { p.slices = append(p.slices, p.y.slice().Seconds()) }

// speed is how fast the machine ran during the phase, as a share of the
// quiet authoring container: multiply a time by it, divide a rate.
func (p *pace) speed() float64 { return yardstickNominal.Seconds() / median(p.slices) }
