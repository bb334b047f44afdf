package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random source used by workload generators and
// experiment drivers, so that (as in the paper's §5.3.1 methodology)
// the same randomly drawn job combinations can be replayed across all
// runtime configurations for apple-to-apple comparison.
//
// RNG is a thin wrapper over math/rand.Rand and is NOT safe for
// concurrent use; give each generator its own RNG — Fork derives
// independently seeded children for exactly that purpose.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Fork returns an independently seeded child RNG whose stream is a pure
// function of the parent's seed and the label — not of how much of the
// parent's stream has been consumed, nor of the order in which siblings
// are forked. Handing each goroutine (fault-plane hook, workload
// generator) its own fork gives every consumer a private deterministic
// stream, fixing the footgun that one shared RNG is neither safe for
// concurrent use nor replayable once draws interleave.
func (g *RNG) Fork(label string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(label))
	// Mix the label hash with the parent seed through the golden-ratio
	// multiplier so fork chains (a fork of a fork) keep diverging.
	child := int64(h.Sum64() ^ uint64(g.seed)*0x9E3779B97F4A7C15)
	return NewRNG(child)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
