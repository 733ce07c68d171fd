package cpu

import (
	"testing"

	"repro/internal/bbcache"
	"repro/internal/isa"
)

// flatten converts a mapCode into the contiguous (base, flat, valid) form
// bbcache.Build takes.
func flatten(mc *mapCode) (uint64, []isa.Inst, []bool) {
	var lo, hi uint64
	first := true
	for va := range mc.m {
		if first {
			lo, hi = va, va
			first = false
			continue
		}
		if va < lo {
			lo = va
		}
		if va > hi {
			hi = va
		}
	}
	n := int((hi-lo)/isa.InstBytes) + 1
	flat := make([]isa.Inst, n)
	valid := make([]bool, n)
	for va, in := range mc.m {
		idx := int((va - lo) / isa.InstBytes)
		flat[idx] = *in
		valid[idx] = true
	}
	return lo, flat, valid
}

// attachProgram decodes w's placed code and attaches it, making w a
// production core (the DOp executor with its L0). Placement gaps make every
// placed region start a leader, so no explicit entry list is needed.
func attachProgram(t testing.TB, w *world) *bbcache.Program {
	t.Helper()
	base, flat, valid := flatten(w.code)
	prog := bbcache.Build(base, flat, valid, nil, 1)
	if prog.NumBlocks() == 0 {
		t.Fatal("no blocks decoded")
	}
	w.core.SetThreadedSource(func() *bbcache.Program { return prog })
	return prog
}

// lockstepPair builds two independent but identical worlds from the same
// construction function, attaches the decoded program to the first (the
// production executor), and leaves the second on the reference
// interpreter.
func lockstepPair(t testing.TB, build func(w *world)) (fast, ref *world) {
	t.Helper()
	fast, ref = newWorld(), newWorld()
	build(fast)
	build(ref)
	attachProgram(t, fast)
	return fast, ref
}

// requireOK fails the test with the full divergence report.
func requireOK(t *testing.T, rep LockstepReport) {
	t.Helper()
	if !rep.OK() {
		t.Fatal(rep.String())
	}
}

func TestLockstepStraightLine(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		a := isa.NewAsm()
		a.MovImm(isa.R2, 6)
		a.MovImm(isa.R3, 7)
		a.Mul(isa.R1, isa.R2, isa.R3)
		a.AddImm(isa.R1, isa.R1, 8)
		a.Halt()
		w.code.place(entry, a.MustBuild())
	})
	rep := LockstepRun(fast.core, ref.core, entry, 100)
	requireOK(t, rep)
	if rep.Steps != 5 {
		t.Errorf("steps = %d, want 5", rep.Steps)
	}
	if fast.core.Stats.ThreadedInsts == 0 {
		t.Error("threaded engine never ran: the comparison is vacuous")
	}
	if ref.core.Stats.ThreadedInsts != 0 {
		t.Error("reference core ran the threaded engine")
	}
}

func TestLockstepLoopsCallsMemory(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		buf := dm(16 * 4096)
		w.phys.Write64(16*4096, 5)
		callee := entry + 0x1000
		a := isa.NewAsm()
		a.MovImm(isa.R2, int64(buf))
		a.Load(isa.R3, isa.R2, 0) // loop count from memory
		a.MovImm(isa.R1, 0)
		a.Label("loop")
		a.Call("")
		a.Store(isa.R2, 8, isa.R1)
		a.AddImm(isa.R3, isa.R3, -1)
		a.Branch(isa.CNE, isa.R3, isa.R0, "loop")
		a.Fence()
		a.Halt()
		insts := a.MustBuild()
		insts[3].Target = callee
		w.code.place(entry, insts)

		sub := isa.NewAsm()
		sub.Mul(isa.R4, isa.R3, isa.R3)
		sub.AddImm(isa.R1, isa.R1, 1)
		sub.Add(isa.R1, isa.R1, isa.R4)
		sub.Ret()
		w.code.place(callee, sub.MustBuild())
	})
	rep := LockstepRun(fast.core, ref.core, entry, 1000)
	requireOK(t, rep)
	if fast.core.Stats.ThreadedInsts == 0 {
		t.Error("threaded engine never ran")
	}
}

func TestLockstepMispredictAndTransientPath(t *testing.T) {
	build := func(w *world) {
		probe := dm(100 * 4096)
		a := isa.NewAsm()
		a.MovImm(isa.R3, int64(probe))
		a.Branch(isa.CNE, isa.R2, isa.R0, "skip")
		a.Load(isa.R4, isa.R3, 0) // wrong path when mistrained
		a.Label("skip")
		a.Mov(isa.R1, isa.R4)
		a.Halt()
		w.code.place(entry, a.MustBuild())
	}
	fast, ref := lockstepPair(t, build)
	// Train not-taken in lockstep, then mispredict: the squash window runs
	// the wrong path through runTransient in BOTH cores (from decoded
	// blocks in the production core, decoding each word in the reference),
	// and its timing feeds back into committed state through specUntil and
	// the caches.
	for i := 0; i < 4; i++ {
		fast.core.Regs[isa.R2] = 0
		ref.core.Regs[isa.R2] = 0
		requireOK(t, LockstepRun(fast.core, ref.core, entry, 100))
	}
	fast.core.Regs[isa.R2] = 1 // predicted not-taken, actually taken
	ref.core.Regs[isa.R2] = 1
	rep := LockstepRun(fast.core, ref.core, entry, 100)
	requireOK(t, rep)
	if fast.core.Stats.Mispredicts == 0 {
		t.Error("no mispredict: the transient path was never exercised")
	}
	if fast.core.Stats.TransientInsts != ref.core.Stats.TransientInsts {
		t.Errorf("transient insts: threaded %d, interpreted %d",
			fast.core.Stats.TransientInsts, ref.core.Stats.TransientInsts)
	}
}

func TestLockstepUnderBlockingPolicy(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		base := dm(64 * 4096)
		a := isa.NewAsm()
		a.MovImm(isa.R2, int64(base))
		a.Load(isa.R3, isa.R2, 0) // cold: long shadow
		// Not-taken and predicted not-taken (cold predictor default): the
		// shadow stays open over the loads below, so the policy blocks them
		// on the committed path.
		a.Branch(isa.CNE, isa.R3, isa.R0, "go")
		a.Label("go")
		for i := 0; i < 6; i++ {
			a.Load(isa.R4, isa.R2, int64(8*(i+1)))
			a.Mul(isa.R5, isa.R4, isa.R4)
		}
		a.Halt()
		w.code.place(entry, a.MustBuild())
		w.core.Policy = blockAll{}
	})
	rep := LockstepRun(fast.core, ref.core, entry, 100)
	requireOK(t, rep)
	if fast.core.Stats.Fences == 0 {
		t.Error("no fences: the blocking path was never exercised")
	}
}

func TestLockstepDataFault(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		a := isa.NewAsm()
		a.MovImm(isa.R2, int64(dm(w.phys.Bytes()+4096)))
		a.Load(isa.R1, isa.R2, 0)
		a.Halt()
		w.code.place(entry, a.MustBuild())
	})
	rep := LockstepRun(fast.core, ref.core, entry, 100)
	requireOK(t, rep)
	if !rep.FastRes.Fault {
		t.Error("no fault")
	}
	if rep.Steps != 2 {
		t.Errorf("steps = %d, want 2 (faulting load is a counted step)", rep.Steps)
	}
}

func TestLockstepTruncation(t *testing.T) {
	fast, ref := lockstepPair(t, func(w *world) {
		a := isa.NewAsm()
		a.Label("spin")
		a.AddImm(isa.R1, isa.R1, 1)
		a.Jmp("spin")
		w.code.place(entry, a.MustBuild())
	})
	rep := LockstepRun(fast.core, ref.core, entry, 50)
	requireOK(t, rep)
	if !rep.FastRes.Truncated {
		t.Error("not truncated")
	}
	if rep.Steps != 50 {
		t.Errorf("steps = %d, want exactly the budget", rep.Steps)
	}
}

// The oracle must actually detect divergence, pinned to the first
// differing instruction: a skewed initial register, and a decoder bug — one
// corrupted op in the production core's decoded program, which the
// reference never sees because it interprets the isa.Inst words.
func TestLockstepDetectsDivergence(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed func(t *testing.T, fast, ref *world, prog *bbcache.Program)
		step int
	}{
		{"register", func(_ *testing.T, fast, ref *world, _ *bbcache.Program) {
			fast.core.Regs[isa.R5] = 7
			ref.core.Regs[isa.R5] = 8
		}, 0},
		{"decoder", func(t *testing.T, _, _ *world, prog *bbcache.Program) {
			op := &prog.BlockAt(entry).Ops[1]
			if op.Kind != isa.DAddImm && op.Kind != isa.DAddImmZ {
				t.Fatalf("op 1 decoded as %s, want an AddImm", op)
			}
			op.Imm++
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, ref := newWorld(), newWorld()
			for _, w := range []*world{fast, ref} {
				a := isa.NewAsm()
				a.Mov(isa.R1, isa.R5)
				a.AddImm(isa.R1, isa.R1, 8)
				a.Halt()
				w.code.place(entry, a.MustBuild())
			}
			tc.seed(t, fast, ref, attachProgram(t, fast))
			rep := LockstepRun(fast.core, ref.core, entry, 100)
			if rep.OK() {
				t.Fatal("divergence not detected")
			}
			if rep.Div == nil {
				t.Fatal("no divergence record")
			}
			if want := entry + uint64(tc.step)*isa.InstBytes; rep.Div.Index != tc.step || rep.Div.PC != want {
				t.Errorf("divergence at step %d pc %#x, want step %d pc %#x",
					rep.Div.Index, rep.Div.PC, tc.step, want)
			}
			if rep.Div.Op == "" || rep.Div.Op == "<unfetchable>" {
				t.Errorf("decoded op missing from report: %q", rep.Div.Op)
			}
			if !rep.ResultsDiverged {
				t.Error("RunResult divergence not flagged")
			}
		})
	}
}

func TestCompareStepTraces(t *testing.T) {
	a := &StepTrace{PCs: []uint64{1, 2, 3}, Digests: []uint64{10, 20, 30}}
	b := &StepTrace{PCs: []uint64{1, 2, 3}, Digests: []uint64{10, 20, 30}}
	if idx, ok := CompareStepTraces(a, b); !ok || idx != -1 {
		t.Errorf("equal traces: idx=%d ok=%v", idx, ok)
	}
	b.Digests[1] = 99
	if idx, ok := CompareStepTraces(a, b); ok || idx != 1 {
		t.Errorf("digest mismatch: idx=%d ok=%v", idx, ok)
	}
	b.Digests[1] = 20
	b.PCs = b.PCs[:2]
	b.Digests = b.Digests[:2]
	if idx, ok := CompareStepTraces(a, b); ok || idx != 2 {
		t.Errorf("length mismatch: idx=%d ok=%v", idx, ok)
	}
}
