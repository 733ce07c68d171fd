package attack

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/kimage"
	"repro/internal/memsim"
)

// Result reports a leak attempt.
type Result struct {
	Recovered []byte
	// Hits[i] is true when byte i produced a covert-channel signal; an
	// all-false result means the defense blocked the attack.
	Hits []bool
}

// HitCount reports how many bytes produced a signal.
func (r Result) HitCount() int {
	n := 0
	for _, h := range r.Hits {
		if h {
			n++
		}
	}
	return n
}

// Match reports how many recovered bytes (with signal) equal the secret.
func (r Result) Match(secret []byte) int {
	n := 0
	for i := range secret {
		if i < len(r.Recovered) && r.Hits[i] && r.Recovered[i] == secret[i] {
			n++
		}
	}
	return n
}

// PlantSecret writes a secret into a victim-owned page and returns its
// direct-map VA — the address an active attacker targets (all physical
// memory is reachable through the kernel direct map, §4.1).
func PlantSecret(k *kernel.Kernel, victim *kernel.Task, secret []byte) (uint64, error) {
	va, err := k.Syscall(victim, kimage.NRMmap, memsim.PageSize, 1)
	if err != nil {
		return 0, err
	}
	if err := k.CopyToUser(victim, va, secret); err != nil {
		return 0, err
	}
	return directMapAlias(victim, va)
}

// directMapAlias returns the direct-map VA of the victim's user address va.
func directMapAlias(victim *kernel.Task, va uint64) (uint64, error) {
	pa, ok := victim.AS.Translate(va)
	if !ok {
		return 0, fmt.Errorf("attack: victim pid %d: secret VA %#x does not translate", victim.PID, va)
	}
	return memsim.DirectMapVA(pa), nil
}

// ActiveSpectreV1 is the §4.1 active attack (Figure 4.1) through the
// CVE-2022-27223 stand-in gadget reached via ioctl: the attacker mistrains
// the gadget's bounds check with in-bounds calls, then requests an
// out-of-bounds index that reaches the victim's memory via the direct map;
// the transient double-load transmits each byte into the attacker's
// flush+reload buffer.
func ActiveSpectreV1(k *kernel.Kernel, attacker *kernel.Task, targetVA uint64, n int) (Result, error) {
	return ActiveV1Via(k, attacker, kimage.NRIoctl, targetVA, n)
}

// ActiveV1Via mounts the same active attack through any of the Table 4.1
// Spectre v1 CVE carriers — ioctl (Xilinx USB driver, row 1), ptrace (the
// backport regression, row 2), or bpf (the verifier family, rows 3-4). All
// three gadgets share the kernel's v1 shape: a mistrainable bounds check on
// the second argument and a transmit into the attacker-supplied third
// argument.
func ActiveV1Via(k *kernel.Kernel, attacker *kernel.Task, nr int, targetVA uint64, n int) (Result, error) {
	fr, err := NewFlushReload(k, attacker)
	if err != nil {
		return Result{}, err
	}
	table := k.XUSBTableVA()
	res := Result{Recovered: make([]byte, n), Hits: make([]bool, n)}
	for i := 0; i < n; i++ {
		oob := targetVA + uint64(i) - table // wraps modulo 2^64
		// Mistrain the bounds check toward "in bounds".
		for j := 0; j < 6; j++ {
			if _, err := k.Syscall(attacker, nr, 0, uint64(j%8), fr.Base); err != nil {
				return res, err
			}
		}
		fr.Flush()
		if _, err := k.Syscall(attacker, nr, 0, oob, fr.Base); err != nil {
			return res, err
		}
		res.Recovered[i], res.Hits[i] = fr.Probe()
	}
	return res, nil
}

// PolluteRSB models the return-stack desync step of Spectre RSB / Retbleed
// (Table 4.1 rows 5–7): by interleaving its own kernel call chains with the
// victim's execution (net-positive pushes — the attacker's syscalls exit by
// sysret, popping nothing), the attacker leaves stale RSB entries pointing
// at its chosen kernel address. We install the resulting predictor state
// directly; the ISV evaluation is independent of how the desync was
// arranged.
func PolluteRSB(k *kernel.Kernel, target uint64) {
	for i := 0; i < 16; i++ {
		k.Core.BP.RAS.Push(target)
	}
}

// passiveRounds tunes signal accumulation for the prime+probe receiver.
const passiveRounds = 4

// PassiveRetbleed is the §4.1 passive attack of Figure 4.2, RSB flavour:
// the victim's syscall path (victim_fn1) loads a reference to its own
// secret into a live register and returns; the attacker has polluted the
// RSB so the return speculatively lands in type_confuse_gadget, which
// dereferences the live register and transmits the byte into a kernel array
// observed with prime+probe.
func PassiveRetbleed(k *kernel.Kernel, victim, attacker *kernel.Task, secretVA uint64, n int) (Result, error) {
	gadget := k.Img.MustFunc("type_confuse_gadget").VA
	return passiveLeak(k, victim, attacker, secretVA, n, func() {
		PolluteRSB(k, gadget)
	}, "victim_fn1")
}

// VictimBuffer allocates the victim-owned contiguous kernel buffer the
// gadget transmits into (R2 at hijack time — a live buffer pointer from the
// victim's own syscall arguments).
func VictimBuffer(k *kernel.Kernel, victim *kernel.Task) (uint64, error) {
	return k.KernelBuffer(victim, 2) // 4 pages: 256 line-stride slots
}

// PassiveSpectreV2 is the BTB flavour: the attacker executes, in its own
// userspace, an indirect call at a virtual address that aliases the
// victim's kernel indirect-call site in the (untagged, partially tagged)
// BTB, installing the gadget as predicted target. The victim's next
// indirect call (victim_fn2) is then speculatively hijacked. The attacker's
// own architectural jump to the kernel address faults harmlessly (SMEP) —
// after the BTB has learned the target.
func PassiveSpectreV2(k *kernel.Kernel, victim, attacker *kernel.Task, secretVA uint64, n int) (Result, error) {
	gadget := k.Img.MustFunc("type_confuse_gadget").VA
	fn2 := k.Img.MustFunc("victim_fn2")
	icallPC := fn2.VA + 3*isa.InstBytes // MovImm, Load, Load, ICall
	// A user-half PC with identical BTB index and partial tag bits.
	aliasPC := icallPC & 0x3f_fffc
	codeBase := aliasPC - 1*isa.InstBytes // the MovImm slot before the icall

	a := isa.NewAsm()
	a.MovImm(isa.R2, int64(gadget))
	a.ICall(isa.R2)
	a.Halt()
	k.LoadUserCode(attacker, codeBase, a.MustBuild())

	poison := func() {
		// The run ends in an SMEP fetch fault after the BTB update.
		k.RunUser(attacker, codeBase, 16)
	}
	return passiveLeak(k, victim, attacker, secretVA, n, poison, "victim_fn2")
}

// passiveLeak runs the common passive-attack loop: per byte, accumulate
// prime+probe eviction scores over several poisoned victim runs, subtract a
// calibration baseline (victim runs with clean predictors), and take the
// strongest set.
func passiveLeak(k *kernel.Kernel, victim, attacker *kernel.Task, secretVA uint64, n int,
	poison func(), victimFn string) (Result, error) {

	vbuf, err := VictimBuffer(k, victim)
	if err != nil {
		return Result{}, err
	}
	pp, err := NewPrimeProbe(k, attacker, vbuf)
	if err != nil {
		return Result{}, err
	}
	res := Result{Recovered: make([]byte, n), Hits: make([]bool, n)}
	for i := 0; i < n; i++ {
		k.SetSecretRef(secretVA + uint64(i))
		// Warmup: under Perspective, the first touch of any page or code
		// line blocks conservatively on a view-cache miss (§6.2). A real
		// attacker simply repeats the attempt; these unscored rounds warm
		// the DSV/ISV caches so the scored rounds measure the actual
		// policy verdicts.
		for r := 0; r < 2; r++ {
			k.Core.BP.RAS.FlushAll()
			poison()
			k.RunVictimCall(victim, victimFn, 0, vbuf)
		}
		var score [256]int
		// Calibration: clean-predictor rounds capture the victim's own
		// cache footprint.
		var baseline [256]int
		for r := 0; r < passiveRounds; r++ {
			k.Core.BP.RAS.FlushAll()
			pp.Prime()
			k.RunVictimCall(victim, victimFn, 0, vbuf)
			m := pp.Probe()
			for v := 0; v < 256; v++ {
				baseline[v] += m[v]
			}
		}
		for r := 0; r < passiveRounds; r++ {
			k.Core.BP.RAS.FlushAll()
			pp.Prime()
			poison()
			k.RunVictimCall(victim, victimFn, 0, vbuf)
			m := pp.Probe()
			for v := 0; v < 256; v++ {
				score[v] += m[v]
			}
		}
		best, bestScore := 0, 0
		for v := 0; v < 256; v++ {
			if d := score[v] - baseline[v]; d > bestScore {
				best, bestScore = v, d
			}
		}
		res.Recovered[i] = byte(best)
		res.Hits[i] = bestScore > 0
	}
	return res, nil
}
