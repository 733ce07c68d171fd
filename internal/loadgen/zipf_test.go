package loadgen

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

var (
	zipfSkews = [...]float64{1.01, 1.1, 1.5, 2}
	// The last universe is one past the table's limit: every draw takes
	// the stdlib path.
	zipfUniverses = [...]uint64{2, 4096, 16384, 1 << 16, 1<<16 + 1}
)

// scriptSource is a deterministic Source for the exactness oracle. A
// share of its values is aimed at a Zipf key boundary: the test computes
// the boundary with math.Pow, independently of the table, and returns a
// value a few float64 steps of r to either side, where the stdlib's own
// rounding decides the key. Twin scripts built from equal arguments yield
// equal sequences.
type scriptSource struct {
	rng    *rand.Rand // picks which values are aimed and where
	vals   rand.Source
	aim    int // out of 256: the share of aimed values
	q      float64
	imax   float64
	hxm    float64
	span   float64
	hotCap int64
}

func newScriptSource(seed int64, aim int, q float64, keys uint64) *scriptSource {
	h := func(x float64) float64 { return math.Pow(1+x, 1-q) / (1 - q) }
	imax := float64(keys - 1)
	return &scriptSource{
		rng:    rand.New(rand.NewSource(seed ^ 0x5c1f7)),
		vals:   rand.NewSource(seed),
		aim:    aim,
		q:      q,
		imax:   imax,
		hxm:    h(imax + 0.5),
		span:   h(0.5) - 1 - h(imax+0.5),
		hotCap: int64(min(keys-1, 1000)),
	}
}

func (s *scriptSource) Int63() int64 {
	if s.rng.Intn(256) >= s.aim {
		return s.vals.Int63()
	}
	// Aim at the boundary between key j and j+1: popular keys half the
	// time, anywhere in the universe otherwise.
	var j int64
	if s.rng.Intn(2) == 0 {
		j = s.rng.Int63n(s.hotCap)
	} else {
		j = s.rng.Int63n(int64(s.imax))
	}
	ur := math.Pow(float64(j)+1.5, 1-s.q) / (1 - s.q)
	r := (ur - s.hxm) / s.span
	for d := s.rng.Intn(129) - 64; d != 0; {
		if d > 0 {
			r, d = math.Nextafter(r, 2), d-1
		} else {
			r, d = math.Nextafter(r, -1), d+1
		}
	}
	if !(r >= 0 && r < 1) {
		return s.vals.Int63()
	}
	return int64(math.Ldexp(r, 63)) // float64(v)/2^63 == r exactly
}

func (s *scriptSource) Seed(int64) { panic("scriptSource: Seed") }

// FuzzZipfExact is the sampler's exactness oracle: over twin sources, the
// table sampler and the unmodified rand.Zipf must return the same key on
// every draw and consume the same source values, checked by an Int63 drawn
// from each source after every key. Aimed values put draws within float64
// steps of key boundaries, where a missing margin shows. The table must
// also serve most draws, or it is exact only by always falling back.
func FuzzZipfExact(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(2), uint8(64), uint16(4000))
	f.Add(int64(-3), uint8(0), uint8(3), uint8(200), uint16(4000))
	f.Add(int64(9), uint8(3), uint8(0), uint8(128), uint16(1000))
	f.Add(int64(5), uint8(2), uint8(4), uint8(128), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, si, ki, aim uint8, n uint16) {
		q := zipfSkews[int(si)%len(zipfSkews)]
		keys := zipfUniverses[int(ki)%len(zipfUniverses)]
		a := newScriptSource(seed, int(aim), q, keys)
		b := newScriptSource(seed, int(aim), q, keys)
		fast := newZipfSampler(a, q, keys)
		rng := rand.New(b)
		ref := rand.NewZipf(rng, q, 1, keys-1)
		for i := 0; i < int(n); i++ {
			if got, want := fast.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("s=%g keys=%d draw %d: key %d, rand.Zipf %d", q, keys, i, got, want)
			}
			if a.Int63() != b.Int63() {
				t.Fatalf("s=%g keys=%d draw %d: sources out of step", q, keys, i)
			}
		}

		tab := zipfTableFor(q, keys)
		if keys > zipfMaxKeys {
			if tab != nil {
				t.Fatalf("keys=%d got a table", keys)
			}
			return
		}
		src := rand.New(rand.NewSource(seed))
		served := 0
		const probes = 2000
		for i := 0; i < probes; i++ {
			if _, ok := tab.lookup(tab.hxm + src.Float64()*tab.span); ok {
				served++
			}
		}
		if served < probes*9/10 {
			t.Fatalf("s=%g keys=%d: table served %d/%d draws, want ≥ 90%%", q, keys, served, probes)
		}
	})
}

// Tabulated key intervals must be ordered and disjoint, and a lookup at an
// interval's midpoint must return that key or fall back (a dense tail can
// outrun the grid's scan), never another key.
func TestZipfTableBounds(t *testing.T) {
	for _, q := range zipfSkews {
		tab := newZipfTable(q, 4096)
		for j, b := range tab.bound {
			if j > 0 && b.lo < tab.bound[j-1].hi {
				t.Fatalf("s=%g: key %d interval overlaps key %d", q, j, j-1)
			}
			if b.lo >= b.hi {
				continue // narrower than the margins: always falls back
			}
			if k, ok := tab.lookup((b.lo + b.hi) / 2); ok && k != uint64(j) {
				t.Fatalf("s=%g: midpoint of key %d looked up as (%d, %v)", q, j, k, ok)
			}
		}
	}
}

// Out-of-range skews and universes get no table, so they draw exactly as
// rand.Zipf does with no arithmetic of ours involved.
func TestZipfTableLimits(t *testing.T) {
	for _, c := range []struct {
		s    float64
		keys uint64
	}{{1.001, 100}, {17, 100}, {math.NaN(), 100}, {1.1, zipfMaxKeys + 1}} {
		if zipfTableFor(c.s, c.keys) != nil {
			t.Errorf("s=%g keys=%d: got a table", c.s, c.keys)
		}
	}
}

// Streams on several goroutines share, replace and rebuild the one cached
// table; each must still draw rand.Zipf's keys.
func TestZipfConcurrentStreams(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q, keys := zipfSkews[(g+i)%2], zipfUniverses[1+(g+i)%2]
				seed := int64(g*100 + i)
				fast := newZipfSampler(rand.NewSource(seed), q, keys)
				rng := rand.New(rand.NewSource(seed))
				ref := rand.NewZipf(rng, q, 1, keys-1)
				for n := 0; n < 2000; n++ {
					if got, want := fast.Uint64(), ref.Uint64(); got != want {
						t.Errorf("goroutine %d stream %d draw %d: key %d, rand.Zipf %d", g, i, n, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
