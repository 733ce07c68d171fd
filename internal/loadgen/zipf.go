package loadgen

import (
	"math"
	"math/rand"
	"sync/atomic"
)

// The Zipf key draw is exact table inversion in front of math/rand's Zipf.
//
// rand.Zipf is Hörmann and Derflinger's rejection-inversion sampler: it
// reads r = Float64() from its source, maps it to ur = hxm + r·span, inverts
// the integral h to x = h⁻¹(ur), rounds k = ⌊x+0.5⌋ and accepts k at once
// when k−x ≤ s (the squeeze), else tests ur against a rejection bound and
// redraws. Two math.Exp and two math.Log calls per draw dominate the replay
// loop on keyed streams.
//
// h is increasing, so in exact arithmetic k = j and the squeeze holds
// exactly when ur ∈ [h(max(j−s, j−0.5)), h(j+0.5)). zipfTable stores those
// per-key bounds. zipfSampler draws the Int63 rand.Zipf would, forms ur by
// its formula and returns j only when ur lies at least zipfMargin inside
// key j's bounds. There the stdlib's own floating-point x (error under
// 1e-13 in ur space) must round to j and pass the squeeze, so both return
// j from one source value. Every other draw — inside the margin, in the
// rejection band, at r == 1, past the grid's short scan, or with no table —
// pushes its value back and lets the unmodified rand.Zipf redo the math
// from it, including any rejection redraws. The key stream and the number
// of source values consumed are therefore rand.Zipf's by construction.

const (
	// zipfMargin is the ur-space distance a draw must keep from both of its
	// key's bounds to be served from the table. The stdlib's x and the
	// table's bounds each err by under 1e-13 in ur space for skews in
	// [zipfMinS, zipfMaxS]; the margin leaves four orders of magnitude.
	zipfMargin = 1e-9
	// zipfMaxKeys bounds the tabulated key universe (keys fit a uint16).
	zipfMaxKeys = 1 << 16
	// zipfMinS and zipfMaxS bound the tabulated skews to the range the
	// margin argument covers. Below zipfMinS the stdlib's 1/(1−s) exponent
	// amplifies its rounding toward the margin.
	zipfMinS = 1.01
	zipfMaxS = 16
	// zipfCellsPerKey sizes the starting-key grid over ur. Two cells per key
	// leave a mean scan of a quarter key at s = 1.1 and serve as many draws
	// as twelve, in a sixth of the memory the uniformly random cell reads
	// touch.
	zipfCellsPerKey = 2
	// zipfScan bounds the forward scan from a cell's starting key; a draw
	// that needs more falls back.
	zipfScan = 8
)

// zipfBound is key j's fast-path interval in ur space, margins applied:
// lo = h(max(j−s, j−0.5)) + zipfMargin, hi = h(j+0.5) − zipfMargin.
type zipfBound struct{ lo, hi float64 }

// zipfTable is the immutable inversion table for one (skew, keys) pair.
type zipfTable struct {
	s    float64
	keys uint64
	// hxm and span are rand.Zipf's: ur = hxm + r·span, span < 0.
	hxm, span float64
	urMin     float64 // ur at r = 1
	perUR     float64 // grid cells per unit of ur
	bound     []zipfBound
	start     []uint16 // per grid cell: the first key whose hi passes its low edge
}

// zipfCache holds the most recently built table. Its contents are a pure
// function of (s, keys), so which builder wins a race changes nothing; one
// slot bounds memory when configs vary (fuzzing) and lets every stream of
// a run share one build.
var zipfCache atomic.Pointer[zipfTable]

// zipfTableFor returns the shared table for (s, keys), or nil when draws
// must all go to rand.Zipf.
func zipfTableFor(s float64, keys uint64) *zipfTable {
	if keys > zipfMaxKeys || !(s >= zipfMinS && s <= zipfMaxS) {
		return nil
	}
	if t := zipfCache.Load(); t != nil && t.s == s && t.keys == keys {
		return t
	}
	t := newZipfTable(s, keys)
	zipfCache.Store(t)
	return t
}

// newZipfTable tabulates rand.NewZipf(·, s, 1, keys−1): v = 1, imax = keys−1.
// The constants repeat NewZipf's formulas; a last-bit difference from the
// stdlib's values is absorbed by the margin, not relied on.
func newZipfTable(s float64, keys uint64) *zipfTable {
	q, imax := s, float64(keys-1)
	h := func(x float64) float64 { return math.Exp((1-q)*math.Log(1+x)) / (1 - q) }
	hinv := func(x float64) float64 { return math.Exp(math.Log((1-q)*x)/(1-q)) - 1 }
	squeeze := 1 - hinv(h(1.5)-math.Exp(-q*math.Log(2)))
	if squeeze > 0.5 {
		squeeze = 0.5
	}
	t := &zipfTable{s: s, keys: keys, hxm: h(imax + 0.5), bound: make([]zipfBound, keys)}
	t.span = h(0.5) - 1 - t.hxm
	t.urMin = t.hxm + t.span
	for j := range t.bound {
		fj := float64(j)
		t.bound[j] = zipfBound{lo: h(fj-squeeze) + zipfMargin, hi: h(fj+0.5) - zipfMargin}
	}
	cells := zipfCellsPerKey * int(keys)
	t.perUR = float64(cells) / -t.span
	t.start = make([]uint16, cells)
	j := 0
	for c := range t.start {
		edge := t.urMin + float64(c)/t.perUR
		for j < len(t.bound)-1 && edge >= t.bound[j].hi {
			j++
		}
		t.start[c] = uint16(j)
	}
	return t
}

// lookup returns the key whose fast-path interval holds ur. ok is false
// when ur is off the grid, the scan runs out, or ur is outside the found
// key's margined bounds. Any starting key is safe: starting past the true
// key fails the lo test, starting before it scans up to it.
func (t *zipfTable) lookup(ur float64) (key uint64, ok bool) {
	c := (ur - t.urMin) * t.perUR
	if !(c >= 0 && c < float64(len(t.start))) {
		return 0, false
	}
	j := int(t.start[int(c)])
	for n := 0; ur >= t.bound[j].hi; n++ {
		j++
		if n == zipfScan || j == len(t.bound) {
			return 0, false
		}
	}
	return uint64(j), ur >= t.bound[j].lo
}

// pushback is a Source that returns one pushed value before resuming src.
type pushback struct {
	src  rand.Source
	v    int64
	full bool
}

func (p *pushback) Int63() int64 {
	if p.full {
		p.full = false
		return p.v
	}
	return p.src.Int63()
}

func (p *pushback) Seed(seed int64) {
	p.full = false
	p.src.Seed(seed)
}

// zipfSampler draws the keys rand.NewZipf(rand.New(src), s, 1, keys−1)
// would, consuming the same values from src.
type zipfSampler struct {
	t    *zipfTable // nil: every draw goes to z
	back pushback   // over src
	z    *rand.Zipf // reads src through back
}

func newZipfSampler(src rand.Source, s float64, keys uint64) *zipfSampler {
	zs := &zipfSampler{t: zipfTableFor(s, keys), back: pushback{src: src}}
	rng := rand.New(&zs.back)
	zs.z = rand.NewZipf(rng, s, 1, keys-1)
	return zs
}

// Uint64 returns the next key.
func (zs *zipfSampler) Uint64() uint64 {
	if t := zs.t; t != nil {
		i := zs.back.src.Int63()
		// rand.Float64's r; r == 1 is redrawn there, so it falls back.
		if r := float64(i) / (1 << 63); r < 1 {
			if k, ok := t.lookup(t.hxm + r*t.span); ok {
				return k
			}
		}
		zs.back.v, zs.back.full = i, true
	}
	return zs.z.Uint64()
}
