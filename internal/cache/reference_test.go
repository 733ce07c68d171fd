package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// This file checks Cache against refCache, an independent model of the same
// true-LRU array written the plain way: one struct per way, no MRU hint, no
// packed keys, no generation counters, and the original linear victim scan.
// checkReference drives both with one operation stream and compares every
// return value, every fill and eviction (victim way included, through the
// obs events Cache records), the Stats counters and the tag arrays.

// refWay is one way of the reference model.
type refWay struct {
	valid bool
	line  uint64 // addr / LineBytes
	stamp uint64
}

// victimRule picks the way a miss fills in a full or partly invalid set.
type victimRule func(set []refWay) int

// lruVictim is the replacement rule Cache implements: the first invalid
// way, else the way with the strictly smallest stamp (the lowest index wins
// a tie, though valid ways never tie).
func lruVictim(set []refWay) int {
	victim := -1
	for w := range set {
		if !set[w].valid {
			return w
		}
		if victim == -1 || set[w].stamp < set[victim].stamp {
			victim = w
		}
	}
	return victim
}

// refCache is the reference model; it records fills and evictions as the
// L2 array (ObsTagL2) would. Its clock follows the same rule as Cache's
// (every Access, CommitHit and successful Touch advances it; stamp writes
// take the advanced value), because stamps order recency and the victim
// depends on that order.
type refCache struct {
	sets      [][]refWay
	lineBytes uint64
	clock     uint64
	stats     Stats
	pick      victimRule
	events    []obs.Event // fills and evictions of the last operation
}

func newRef(cfg Config, pick victimRule) *refCache {
	r := &refCache{lineBytes: uint64(cfg.LineBytes), pick: pick}
	r.sets = make([][]refWay, cfg.Sets)
	for s := range r.sets {
		r.sets[s] = make([]refWay, cfg.Ways)
	}
	return r
}

// locate returns addr's set index and line number, and the way holding the
// line or -1.
func (r *refCache) locate(addr uint64) (set int, line uint64, way int) {
	line = addr / r.lineBytes
	set = int(line % uint64(len(r.sets)))
	for w, e := range r.sets[set] {
		if e.valid && e.line == line {
			return set, line, w
		}
	}
	return set, line, -1
}

func (r *refCache) access(addr uint64, updateLRU bool) bool {
	r.clock++
	r.stats.Accesses++
	set, line, way := r.locate(addr)
	ways := r.sets[set]
	if way >= 0 {
		r.stats.Hits++
		if updateLRU {
			ways[way].stamp = r.clock
		}
		return true
	}
	v := r.pick(ways)
	note := ObsTagL2<<40 | uint64(set)<<8 | uint64(v)
	if ways[v].valid {
		r.events = append(r.events, obs.Event{Kind: obs.KindEvict, Addr: ways[v].line * r.lineBytes, Note: note})
	}
	r.events = append(r.events, obs.Event{Kind: obs.KindFill, Addr: line * r.lineBytes, Note: note})
	ways[v] = refWay{valid: true, line: line, stamp: r.clock}
	r.stats.Fills++
	return false
}

func (r *refCache) touch(addr uint64) {
	set, _, way := r.locate(addr)
	if way >= 0 {
		r.clock++
		r.sets[set][way].stamp = r.clock
	}
}

func (r *refCache) flush(addr uint64) {
	set, _, way := r.locate(addr)
	if way >= 0 {
		r.sets[set][way].valid = false
		r.stats.Flushes++
	}
}

func (r *refCache) invalidateAll() {
	for _, ways := range r.sets {
		for w := range ways {
			ways[w].valid = false
		}
	}
}

// Operation kinds of a reference stream.
const (
	opAccess     = iota // committed Access (updateLRU true)
	opAccessSpec        // speculative Access (updateLRU false)
	opTouch
	opFlush
	opCommitHit // L0-style replay: CommitHit while the set's generation holds
	opInvalidateAll
	numOps
)

type refOp struct {
	kind int
	line uint64
}

// l0Rec is what an L0 entry remembers about a resident line.
type l0Rec struct {
	slot int32
	gen  uint64
}

// checkReference runs ops on a fresh Cache and a fresh reference model with
// victim rule pick, and returns the first disagreement.
func checkReference(cfg Config, ops []refOp, pick victimRule) error {
	c := New(cfg)
	rec := obs.NewRecorder(8)
	c.SetObs(rec, ObsTagL2)
	ref := newRef(cfg, pick)
	l0 := make(map[uint64]l0Rec)
	lineBytes := uint64(cfg.LineBytes)

	access := func(addr uint64, updateLRU bool) error {
		got, want := c.Access(addr, updateLRU), ref.access(addr, updateLRU)
		if got != want {
			return fmt.Errorf("Access(%#x, %v) = %v, reference %v", addr, updateLRU, got, want)
		}
		if updateLRU {
			if slot, ok := c.MRUSlot(addr); ok {
				l0[addr/lineBytes] = l0Rec{slot: slot, gen: c.GenAt(addr)}
			}
		}
		return nil
	}

	for i, op := range ops {
		addr := op.line * lineBytes
		rec.Reset()
		ref.events = ref.events[:0]
		var err error
		switch op.kind {
		case opAccess:
			err = access(addr, true)
		case opAccessSpec:
			err = access(addr, false)
		case opTouch:
			c.Touch(addr)
			ref.touch(addr)
		case opFlush:
			c.Flush(addr)
			ref.flush(addr)
		case opCommitHit:
			if e, ok := l0[op.line]; ok && e.gen == c.GenAt(addr) {
				c.CommitHit(e.slot)
				if !ref.access(addr, true) {
					err = fmt.Errorf("CommitHit replayed line %#x, which the reference does not hold", addr)
				}
			} else {
				err = access(addr, true)
			}
		case opInvalidateAll:
			c.InvalidateAll()
			ref.invalidateAll()
		}
		if err == nil {
			err = compareRef(c, ref, rec)
		}
		if err != nil {
			return fmt.Errorf("op %d (kind %d, line %#x): %w", i, op.kind, op.line, err)
		}
	}
	return nil
}

// compareRef compares the last operation's fill/evict events, the counters
// and every tag.
func compareRef(c *Cache, ref *refCache, rec *obs.Recorder) error {
	got := rec.Events()
	if len(got) != len(ref.events) {
		return fmt.Errorf("recorded %d fill/evict events %v, reference %v", len(got), got, ref.events)
	}
	for i := range got {
		if got[i] != ref.events[i] {
			return fmt.Errorf("event %d: %v, reference %v", i, got[i], ref.events[i])
		}
	}
	if c.Stats() != ref.stats {
		return fmt.Errorf("stats %+v, reference %+v", c.Stats(), ref.stats)
	}
	sets := uint64(len(ref.sets))
	for s, ways := range ref.sets {
		for w, e := range ways {
			want := uint64(0)
			if e.valid {
				want = e.line/sets + 1
			}
			if got := c.tags[s*len(ways)+w]; got != want {
				return fmt.Errorf("set %d way %d: tag+1 %#x, reference %#x", s, w, got, want)
			}
		}
	}
	return nil
}

// refWays are the associativities the reference suite covers.
var refWays = []int{1, 2, 3, 4, 8, 16}

// randomOps draws n operations over twice as many lines as the cache holds,
// so sets see conflicts, refills of flushed ways and LRU evictions.
func randomOps(rng *rand.Rand, cfg Config, n int) []refOp {
	lines := 2*cfg.Lines() + 1
	ops := make([]refOp, n)
	for i := range ops {
		k := rng.Intn(100)
		var kind int
		switch {
		case k < 40:
			kind = opAccess
		case k < 55:
			kind = opAccessSpec
		case k < 65:
			kind = opTouch
		case k < 75:
			kind = opFlush
		case k < 99:
			kind = opCommitHit
		default:
			kind = opInvalidateAll
		}
		ops[i] = refOp{kind: kind, line: uint64(rng.Intn(lines))}
	}
	return ops
}

func TestCacheMatchesReference(t *testing.T) {
	for _, ways := range refWays {
		for _, sets := range []int{1, 4} {
			cfg := Config{Sets: sets, Ways: ways, LineBytes: 64}
			for seed := int64(1); seed <= 8; seed++ {
				ops := randomOps(rand.New(rand.NewSource(seed)), cfg, 4000)
				if err := checkReference(cfg, ops, lruVictim); err != nil {
					t.Fatalf("%d sets x %d ways, seed %d: %v", sets, ways, seed, err)
				}
			}
		}
	}
}

// Two wrong replacement rules the comparison must tell apart from LRU.
func lastInvalidVictim(set []refWay) int {
	for w := len(set) - 1; w >= 0; w-- {
		if !set[w].valid {
			return w
		}
	}
	return lruVictim(set)
}

func maxStampVictim(set []refWay) int {
	victim := 0
	for w := range set {
		if !set[w].valid {
			return w
		}
		if set[w].stamp > set[victim].stamp {
			victim = w
		}
	}
	return victim
}

// TestReferenceCatchesWrongVictimRule shows the comparison is sensitive to
// the victim rule: with a wrong rule on one side, the same streams that pass
// above diverge at every associativity where the rules can differ.
func TestReferenceCatchesWrongVictimRule(t *testing.T) {
	rules := map[string]victimRule{"last invalid way": lastInvalidVictim, "max stamp": maxStampVictim}
	for name, rule := range rules {
		for _, ways := range refWays[1:] {
			cfg := Config{Sets: 4, Ways: ways, LineBytes: 64}
			ops := randomOps(rand.New(rand.NewSource(1)), cfg, 4000)
			if checkReference(cfg, ops, rule) == nil {
				t.Errorf("%s at %d ways: no divergence from Cache", name, ways)
			}
		}
	}
}

// FuzzCacheReference decodes the input into a geometry and an operation
// stream and checks Cache against the reference. Byte 0 picks the ways,
// byte 1 the set count (1, 2 or 4); each later byte pair is one operation
// (kind, line).
func FuzzCacheReference(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 1, 3, 2, 0, 6})
	f.Add([]byte{2, 2, 1, 9, 0, 9, 4, 9, 2, 9, 0, 17, 5, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("no geometry")
		}
		cfg := Config{Sets: 1 << (data[1] % 3), Ways: refWays[int(data[0])%len(refWays)], LineBytes: 64}
		lines := uint64(2*cfg.Lines() + 1)
		var ops []refOp
		for i := 2; i+1 < len(data); i += 2 {
			ops = append(ops, refOp{kind: int(data[i]) % numOps, line: uint64(data[i+1]) % lines})
		}
		if err := checkReference(cfg, ops, lruVictim); err != nil {
			t.Fatal(err)
		}
	})
}
