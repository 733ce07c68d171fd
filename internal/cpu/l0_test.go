package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/memsim"
)

// randProgram emits a deterministic pseudo-random mix of loads, stores, ALU
// ops and a data-dependent branch loop over a window of direct-mapped data.
// The loop re-runs the same lines (exercising the L0 hit path), the stride
// walks several cache sets, and the branch mispredicts on irregular data
// (exercising transient windows, which must bypass the L0).
func randProgram(rng *rand.Rand, dataVA uint64, lines int) []isa.Inst {
	a := isa.NewAsm()
	a.MovImm(isa.R2, int64(dataVA))
	a.MovImm(isa.R3, 0)            // loop counter
	a.MovImm(isa.R4, int64(lines)) // trip count
	a.MovImm(isa.R7, 0)            // accumulator
	a.Label("loop")
	a.Mov(isa.R5, isa.R3)
	a.ShlImm(isa.R5, isa.R5, 6) // line stride
	a.Add(isa.R5, isa.R5, isa.R2)
	for i := 0; i < 4; i++ {
		switch rng.Intn(3) {
		case 0:
			a.Load(isa.R6, isa.R5, int64(rng.Intn(7)*8))
			a.Add(isa.R7, isa.R7, isa.R6)
		case 1:
			a.Store(isa.R5, int64(rng.Intn(7)*8), isa.R7)
		case 2:
			a.AddImm(isa.R7, isa.R7, int64(rng.Intn(100)))
		}
	}
	// Data-dependent branch: irregular values in the window make the
	// predictor wrong often enough to open transient windows.
	a.AndImm(isa.R6, isa.R7, 1)
	a.Branch(isa.CNE, isa.R6, isa.R0, "odd")
	a.AddImm(isa.R7, isa.R7, 3)
	a.Label("odd")
	a.AddImm(isa.R3, isa.R3, 1)
	a.Branch(isa.CLT, isa.R3, isa.R4, "loop")
	a.Mov(isa.R1, isa.R7)
	a.Halt()
	return a.MustBuild()
}

// simStats is s without the host-side engine counters, which describe
// which engine ran rather than the simulated machine.
func simStats(s Stats) Stats {
	s.ThreadedInsts, s.BBLookups, s.BBHits, s.BBChains = 0, 0, 0, 0
	return s
}

// requireSameState asserts every observable of the two worlds matches: the
// production core (L0 in front of L1D/L1I) against the reference core,
// which charges every access through the hierarchy itself.
func requireSameState(t *testing.T, prod, ref *world, when string) {
	t.Helper()
	if a, b := prod.h.StateDigest(), ref.h.StateDigest(); a != b {
		t.Fatalf("%s: hierarchy digest diverged: production %#x, reference %#x", when, a, b)
	}
	if prod.core.Regs != ref.core.Regs {
		t.Fatalf("%s: register files diverged:\nproduction: %v\nreference:  %v", when, prod.core.Regs, ref.core.Regs)
	}
	if a, b := simStats(prod.core.Stats), simStats(ref.core.Stats); a != b {
		t.Fatalf("%s: stats diverged:\nproduction: %+v\nreference:  %+v", when, a, b)
	}
}

// TestL0DifferentialRandom drives randomized programs through a production
// core and the L0-free reference core while churning the hierarchy between
// quanta with flushes, invalidations (the KPTI-style whole-cache drop), and
// external fills, asserting bit-identical state and timing throughout.
func TestL0DifferentialRandom(t *testing.T) {
	const dataPA = uint64(0x4000)
	for seed := int64(1); seed <= 8; seed++ {
		prod, ref := lockstepPair(t, func(w *world) {
			prog := randProgram(rand.New(rand.NewSource(seed)), dm(dataPA), 24)
			w.code.place(entry, prog)
			// Fresh rng per world so both see identical data.
			r := rand.New(rand.NewSource(seed ^ 0xda7a))
			for i := uint64(0); i < 64; i++ {
				w.phys.Write64(dataPA+i*8, r.Uint64()>>32)
			}
		})
		rng := rand.New(rand.NewSource(seed + 100))
		for round := 0; round < 6; round++ {
			ra := prod.core.Run(entry, 4000)
			rb := ref.core.Run(entry, 4000)
			if ra != rb {
				t.Fatalf("seed %d round %d: run results diverged:\nproduction: %+v\nreference:  %+v", seed, round, ra, rb)
			}
			requireSameState(t, prod, ref, "after run")
			// Hierarchy churn applied identically to both: targeted flushes,
			// the occasional full invalidation, and external fills that land
			// in the same sets the program uses.
			for i := 0; i < 8; i++ {
				pa := dataPA + uint64(rng.Intn(24))*64
				switch rng.Intn(4) {
				case 0:
					prod.h.FlushData(pa)
					ref.h.FlushData(pa)
				case 1:
					prod.h.AccessData(pa+0x10000, true)
					ref.h.AccessData(pa+0x10000, true)
				case 2:
					prod.h.AccessInst(pa)
					ref.h.AccessInst(pa)
				case 3:
					if rng.Intn(4) == 0 {
						prod.h.L1D.InvalidateAll()
						ref.h.L1D.InvalidateAll()
					}
				}
			}
			if rng.Intn(3) == 0 { // KPTI-style: drop both L1s wholesale
				prod.h.L1I.InvalidateAll()
				ref.h.L1I.InvalidateAll()
				prod.h.L1D.InvalidateAll()
				ref.h.L1D.InvalidateAll()
			}
			requireSameState(t, prod, ref, "after churn")
		}
		if prod.core.Stats.ThreadedInsts == 0 {
			t.Fatalf("seed %d: production core never ran a program block", seed)
		}
	}
}

// FuzzL0Differential is the fuzz form of the differential (registered in
// `make fuzzseed`): the input bytes choose the program seed and the churn
// schedule, and any state or timing divergence between the production and
// the reference core fails the property.
func FuzzL0Differential(f *testing.F) {
	f.Add(int64(42), []byte{0, 1, 2, 3})
	f.Add(int64(7), []byte{0xff, 0x80, 0x41})
	f.Fuzz(func(t *testing.T, seed int64, churn []byte) {
		if len(churn) > 64 {
			churn = churn[:64]
		}
		const dataPA = uint64(0x4000)
		prod, ref := lockstepPair(t, func(w *world) {
			prog := randProgram(rand.New(rand.NewSource(seed)), dm(dataPA), 16)
			w.code.place(entry, prog)
			r := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i := uint64(0); i < 64; i++ {
				w.phys.Write64(dataPA+i*8, r.Uint64()>>32)
			}
		})
		ra := prod.core.Run(entry, 3000)
		rb := ref.core.Run(entry, 3000)
		if ra != rb {
			t.Fatalf("run results diverged:\nproduction: %+v\nreference:  %+v", ra, rb)
		}
		for _, b := range churn {
			pa := dataPA + uint64(b%16)*64
			switch b % 3 {
			case 0:
				prod.h.FlushData(pa)
				ref.h.FlushData(pa)
			case 1:
				prod.h.AccessData(pa, true)
				ref.h.AccessData(pa, true)
			case 2:
				prod.h.L1D.InvalidateAll()
				ref.h.L1D.InvalidateAll()
			}
		}
		ra = prod.core.Run(entry, 3000)
		rb = ref.core.Run(entry, 3000)
		if ra != rb {
			t.Fatalf("post-churn results diverged:\nproduction: %+v\nreference:  %+v", ra, rb)
		}
		requireSameState(t, prod, ref, "after fuzz churn")
	})
}

// TestL0TransientBypass pins the security-relevant confinement property at
// runtime (the l0gate analyzer pins it statically): wrong-path loads take
// the full hierarchy, so a transient window never installs or refreshes an
// L0 entry — the fast path cannot become a new transient side channel.
func TestL0TransientBypass(t *testing.T) {
	w := newWorld()
	secretPA := uint64(0x7000)
	saved := w.core.l0d
	// A transient load through the blessed accessor must leave the L0
	// contents untouched even though it fills the L1.
	w.core.specLoad(entry, memsim.DirectMapVA(secretPA), 8, false)
	if w.core.l0d != saved {
		t.Fatal("transient load mutated the L0 micro-cache")
	}
	if !w.h.L1D.Lookup(secretPA) {
		t.Fatal("transient load did not fill L1 (wrong-path fill is the covert channel under AllowAll)")
	}
}
