package cache

import (
	"math/rand"
	"testing"
)

// BenchmarkCacheAccess measures the simulator's hottest cache operation —
// the visibility-point Access on an L1D-shaped cache — over a mixed
// hit/miss address stream. The stream is fixed-seed so before/after
// comparisons see identical work.
func BenchmarkCacheAccess(b *testing.B) {
	c := New(DefaultL1D)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		// 256 KB footprint: 8× the 32 KB cache, so the stream mixes
		// capacity misses with re-reference hits.
		addrs[i] = uint64(rng.Intn(1<<18)) &^ uint64(DefaultL1D.LineBytes-1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], true)
	}
}

// BenchmarkCacheLookup measures the read-only probe used on every
// speculative load (L1Hit classification for Delay-on-Miss).
func BenchmarkCacheLookup(b *testing.B) {
	c := New(DefaultL1D)
	rng := rand.New(rand.NewSource(2))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<18)) &^ uint64(DefaultL1D.LineBytes-1)
	}
	for _, a := range addrs {
		c.Access(a, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addrs[i&4095])
	}
}

// BenchmarkAccessHot measures Access on a guaranteed-hit stream over a small
// resident working set — the exact case the cpu package's L0 micro-cache
// short-circuits via CommitHit. Compare against BenchmarkCommitHit to read
// off the per-access saving of the fast path.
func BenchmarkAccessHot(b *testing.B) {
	c := New(DefaultL1D)
	addrs := make([]uint64, 64)
	for i := range addrs {
		// 64 distinct sets, one line each: every access after warmup hits.
		addrs[i] = uint64(i) * uint64(DefaultL1D.LineBytes)
		c.Access(addrs[i], true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&63], true)
	}
}

// BenchmarkCommitHit measures the L0 replay transition in isolation: the
// state update a generation-valid lookaside hit applies instead of the full
// Access above.
func BenchmarkCommitHit(b *testing.B) {
	c := New(DefaultL1D)
	slots := make([]int32, 64)
	for i := range slots {
		a := uint64(i) * uint64(DefaultL1D.LineBytes)
		c.Access(a, true)
		s, ok := c.MRUSlot(a)
		if !ok {
			b.Fatal("line not resident after fill")
		}
		slots[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CommitHit(slots[i&63])
	}
}

// BenchmarkAccessMissStream measures the miss path the way a prime+probe
// receiver drives it: 256 consecutive L2 sets, each primed with 16 lines
// that share the set, through Hierarchy.AccessData. The 16 lines overflow
// their 8-way L1D set, so every access misses L1D (and its next-line
// prefetch misses too) and picks an LRU victim, then re-hits the 16-way L2
// set past its MRU hint.
func BenchmarkAccessMissStream(b *testing.B) {
	h := NewDefaultHierarchy()
	line := uint64(DefaultL2.LineBytes)
	setStride := uint64(DefaultL2.Sets) * line // same L2 set, next tag
	addrs := make([]uint64, 0, 256*DefaultL2.Ways)
	for s := uint64(0); s < 256; s++ {
		for w := uint64(0); w < uint64(DefaultL2.Ways); w++ {
			addrs = append(addrs, s*line+w*setStride)
		}
	}
	for _, a := range addrs {
		h.AccessData(a, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessData(addrs[i&(len(addrs)-1)], true)
	}
}
