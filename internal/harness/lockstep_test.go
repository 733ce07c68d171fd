package harness

import (
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/lebench"
	"repro/internal/schemes"
)

// This file is the machine-level arm of the lockstep differential oracle
// (cpu.LockstepRun is the core-level arm): boot two machines identical in
// every respect except that one has its decoded program detached — so its
// core runs the memo-free reference interpreter — drive both through the
// same workload, and compare the full per-instruction state stream plus
// the kernel and cache-hierarchy state digests. A divergence report names
// the first differing committed instruction and its decoded form.

// lockstepKernels is a production/reference machine pair with step traces
// attached.
type lockstepKernels struct {
	fast, ref *kernel.Kernel
	ft, rt    cpu.StepTrace
}

func newLockstepKernels(t *testing.T, h *Harness, kind schemes.Kind) *lockstepKernels {
	t.Helper()
	viewAll, _ := h.pocViews()
	boot := func() *kernel.Kernel {
		k, err := h.newMachine(kind, viewAll)
		if err != nil {
			t.Fatalf("boot %v machine: %v", kind, err)
		}
		return k
	}
	lk := &lockstepKernels{fast: boot(), ref: boot()}
	lk.ref.Core.SetThreadedSource(nil) // the reference interpreter runs everything
	lk.fast.Core.AttachStepTrace(&lk.ft)
	lk.ref.Core.AttachStepTrace(&lk.rt)
	return lk
}

func (lk *lockstepKernels) release() {
	lk.fast.Core.AttachStepTrace(nil)
	lk.ref.Core.AttachStepTrace(nil)
	lk.fast.Release()
	lk.ref.Release()
}

// check compares the step traces accumulated since the last check, fails
// with the first divergence, and resets the traces (bounding memory: one
// workload step at a time is held, not the whole run).
func (lk *lockstepKernels) check(t *testing.T, label string) {
	t.Helper()
	if idx, ok := cpu.CompareStepTraces(&lk.ft, &lk.rt); !ok {
		t.Fatalf("%s: %s", label, cpu.ExplainDivergence(lk.fast.Core, &lk.ft, &lk.rt, idx))
	}
	lk.ft.Reset()
	lk.rt.Reset()
}

// finish runs the end-of-drive invariants: the comparison must not have
// been vacuous (the fast machine really ran program blocks, the reference
// really did not), the kernel and cache-hierarchy state digests must agree
// (the step digest covers the core alone, so an L0 that left the caches in
// another state shows up only here), and the two simulated clocks must be
// bit-identical.
func (lk *lockstepKernels) finish(t *testing.T, label string) {
	t.Helper()
	lk.check(t, label+": trailing steps")
	if lk.fast.Core.Stats.ThreadedInsts == 0 {
		t.Errorf("%s: threaded engine never ran — comparison vacuous", label)
	}
	if lk.ref.Core.Stats.ThreadedInsts != 0 {
		t.Errorf("%s: reference machine ran the threaded engine", label)
	}
	if fd, rd := lk.fast.StateDigest(), lk.ref.StateDigest(); fd != rd {
		t.Errorf("%s: kernel state digests diverged: threaded %#x, interpreted %#x", label, fd, rd)
	}
	if fd, rd := lk.fast.Core.H.StateDigest(), lk.ref.Core.H.StateDigest(); fd != rd {
		t.Errorf("%s: cache hierarchy digests diverged: threaded %#x, interpreted %#x", label, fd, rd)
	}
	if fn, rn := lk.fast.Core.Now(), lk.ref.Core.Now(); math.Float64bits(fn) != math.Float64bits(rn) {
		t.Errorf("%s: clocks diverged: threaded %v, interpreted %v", label, fn, rn)
	}
	if fi, ri := lk.fast.Core.Stats.Insts, lk.ref.Core.Stats.Insts; fi != ri {
		t.Errorf("%s: instruction counts diverged: threaded %d, interpreted %d", label, fi, ri)
	}
}

// driveLEBench runs the given LEBench tests on both machines, comparing the
// per-instruction stream and the measured cycles after every test.
func (lk *lockstepKernels) driveLEBench(t *testing.T, tests []lebench.Test, iters int) {
	t.Helper()
	for _, tst := range tests {
		fres, err := lebench.RunTest(lk.fast, tst, iters)
		if err != nil {
			t.Fatalf("threaded %s: %v", tst.Name, err)
		}
		rres, err := lebench.RunTest(lk.ref, tst, iters)
		if err != nil {
			t.Fatalf("interpreted %s: %v", tst.Name, err)
		}
		lk.check(t, "lebench/"+tst.Name)
		if math.Float64bits(fres.CyclesPerIter) != math.Float64bits(rres.CyclesPerIter) {
			t.Errorf("lebench/%s: cycles/iter diverged: threaded %v, interpreted %v",
				tst.Name, fres.CyclesPerIter, rres.CyclesPerIter)
		}
	}
}

// driveCensus runs the relative-security gadget drive — mistraining,
// flushes, out-of-bounds victim calls, observation recording — on both
// machines and compares the step stream and the per-gadget trace marks.
func (lk *lockstepKernels) driveCensus(t *testing.T, h *Harness, n int) {
	t.Helper()
	targets := relsecTargets(h.Img)
	if len(targets) > n {
		targets = targets[:n]
	}
	const secret = 0x5a
	fr, err := relsecDrive(lk.fast, secret, targets, relsecCellCap)
	if err != nil {
		t.Fatalf("threaded census drive: %v", err)
	}
	rr, err := relsecDrive(lk.ref, secret, targets, relsecCellCap)
	if err != nil {
		t.Fatalf("interpreted census drive: %v", err)
	}
	lk.check(t, "census")
	for i := range fr.marks {
		if fr.marks[i] != rr.marks[i] {
			t.Errorf("census gadget %s: observation marks diverged: threaded %v, interpreted %v",
				targets[i].Name, fr.marks[i], rr.marks[i])
		}
	}
}

// drivePassiveV2 runs the passive Spectre-v2 PoC for one byte on both
// machines. Its attacker trains the BTB from user mode through RunUser, so
// the executor's user-mode decode-one path, the training branch and the
// SMEP fetch fault that ends each training run are all under the oracle,
// followed by the hijacked kernel victim calls.
func (lk *lockstepKernels) drivePassiveV2(t *testing.T) {
	t.Helper()
	const secret = 0x5a
	var got [2]attack.Result
	for i, k := range []*kernel.Kernel{lk.fast, lk.ref} {
		victim, err := k.CreateProcess("victim")
		if err != nil {
			t.Fatal(err)
		}
		attacker, err := k.CreateProcess("attacker")
		if err != nil {
			t.Fatal(err)
		}
		secretVA, err := attack.PlantSecret(k, victim, []byte{secret})
		if err != nil {
			t.Fatal(err)
		}
		if got[i], err = attack.PassiveSpectreV2(k, victim, attacker, secretVA, 1); err != nil {
			t.Fatal(err)
		}
	}
	lk.check(t, "passive-spectre-v2")
	// Under UNSAFE the hijacked window leaks the byte on both machines; a
	// miss means the window the oracle was meant to cover never opened.
	if got[0].Recovered[0] != secret || got[1].Recovered[0] != secret {
		t.Errorf("passive-spectre-v2: recovered %#x threaded, %#x interpreted, want %#x",
			got[0].Recovered[0], got[1].Recovered[0], secret)
	}
	if lk.fast.Core.Stats.Faults == 0 {
		t.Error("passive-spectre-v2: no SMEP fetch fault — user-mode training never ran")
	}
}

// TestLockstepSmoke is the bounded oracle run wired into `make check`: one
// scheme, a slice of LEBench, one census gadget.
func TestLockstepSmoke(t *testing.T) {
	h := relsecHarness()
	lk := newLockstepKernels(t, h, schemes.Unsafe)
	defer lk.release()
	lk.driveLEBench(t, lebench.Tests()[:3], 2)
	lk.driveCensus(t, h, 1)
	lk.finish(t, "smoke")
}

// TestLockstepLEBenchSuite runs the full LEBench suite under each judged
// scheme class: the unprotected baseline (which also exercises the threaded
// engine's policy fast path), a blocking policy, and Perspective (whose
// OnTransmit mutates view-cache state, so the consult order itself is under
// test).
func TestLockstepLEBenchSuite(t *testing.T) {
	h := relsecHarness()
	for _, kind := range []schemes.Kind{schemes.Unsafe, schemes.Fence, schemes.Perspective} {
		t.Run(kind.String(), func(t *testing.T) {
			lk := newLockstepKernels(t, h, kind)
			defer lk.release()
			lk.driveLEBench(t, lebench.Tests(), 2)
			lk.finish(t, kind.String())
		})
	}
}

// TestLockstepUserMode drives the user-mode arm of a Spectre-v2 PoC under
// the unprotected baseline, where the hijacked window really leaks. Wired
// into `make lockstepsmoke`.
func TestLockstepUserMode(t *testing.T) {
	h := relsecHarness()
	lk := newLockstepKernels(t, h, schemes.Unsafe)
	defer lk.release()
	lk.drivePassiveV2(t)
	lk.finish(t, "user-mode")
}

// TestLockstepCensusSample drives a census-gadget sample — transient
// windows, planted secrets, flush+reload probes — under the same scheme
// classes. Wrong-path execution runs through runTransient in both machines
// (from decoded blocks in one, decoding each word in the other), and its
// effects feed back into the committed-path stream this compares around
// every squash window.
func TestLockstepCensusSample(t *testing.T) {
	h := relsecHarness()
	for _, kind := range []schemes.Kind{schemes.Unsafe, schemes.Fence, schemes.Perspective} {
		t.Run(kind.String(), func(t *testing.T) {
			lk := newLockstepKernels(t, h, kind)
			defer lk.release()
			lk.driveCensus(t, h, 4)
			lk.finish(t, kind.String())
		})
	}
}
