// Package faultinject is the deterministic fault-injection layer of the
// robustness evaluation: it perturbs exactly the hardware state the paper's
// security argument depends on — DSVMT / ISV-page entries on their way into
// the view caches, the refill messages themselves, squash decisions, and
// view-switch timing — and checks, after every event, that the speculation
// contracts still hold (no out-of-view line reaches the covert channel;
// squash restores architectural state).
//
// Everything is seed-driven: the same Config produces the same fault
// pattern, so a campaign that breaks a defense is replayable bit-for-bit.
// The metadata *tables* (the architectural ground truth) are never
// perturbed — faults model hardware-level corruption between the tables and
// the pipeline, which is what makes invariant checking against the tables
// meaningful.
package faultinject

import (
	"fmt"
	"math/rand"

	"repro/internal/cpu"
	"repro/internal/dsv"
	"repro/internal/isv"
	"repro/internal/sec"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// DSVBitFlip flips the presence bit of a DSVMT entry as it refills
	// the DSV cache: out-of-view data can look in-view (and vice versa).
	DSVBitFlip Kind = iota
	// ISVBitFlip flips one random bit of the 64-instruction ISV-page mask
	// as it refills the ISV cache.
	ISVBitFlip
	// DSVDropFill discards a DSV cache refill (a lost fill message); the
	// next access misses and conservatively blocks again.
	DSVDropFill
	// ISVDropFill discards an ISV cache refill.
	ISVDropFill
	// SpuriousSquash squashes a correctly predicted branch, transiently
	// running its untaken direction.
	SpuriousSquash
	// DelayedSwitch keeps the stale view context (ASID) in effect across
	// a context switch until the core next leaves the kernel.
	DelayedSwitch
	// NumKinds is the fault-class count.
	NumKinds
)

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case DSVBitFlip:
		return "dsv-bitflip"
	case ISVBitFlip:
		return "isv-bitflip"
	case DSVDropFill:
		return "dsv-dropfill"
	case ISVDropFill:
		return "isv-dropfill"
	case SpuriousSquash:
		return "spurious-squash"
	case DelayedSwitch:
		return "delayed-switch"
	default:
		return "?"
	}
}

// Config parameterizes an injector: one shared seed and a per-class firing
// probability, applied independently at every opportunity.
type Config struct {
	Seed  int64
	Rates [NumKinds]float64
}

// UniformConfig gives every fault class the same rate.
func UniformConfig(seed int64, rate float64) Config {
	var c Config
	c.Seed = seed
	for k := range c.Rates {
		c.Rates[k] = rate
	}
	return c
}

// Stats counts opportunities and fired faults per class.
type Stats struct {
	Opportunities [NumKinds]uint64
	Injected      [NumKinds]uint64
}

// TotalInjected sums fired faults across classes.
func (s Stats) TotalInjected() uint64 {
	var n uint64
	for _, v := range s.Injected {
		n += v
	}
	return n
}

// Injector is a deterministic, seeded fault source. One injector serves a
// single machine (the simulation is single-threaded, so the shared PRNG
// sees a deterministic event order).
type Injector struct {
	cfg Config
	rng *rand.Rand

	Stats Stats
}

// New creates an injector.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// fire polls one opportunity of class k.
func (in *Injector) fire(k Kind) bool {
	in.Stats.Opportunities[k]++
	r := in.cfg.Rates[k]
	if r <= 0 || in.rng.Float64() >= r {
		return false
	}
	in.Stats.Injected[k]++
	return true
}

// Arm wires the injector into a machine's hardware model: both view caches
// and the core's squash / context-switch paths.
func (in *Injector) Arm(core *cpu.Core, d *dsv.Dir, i *isv.Dir) {
	d.Cache().Fault = dsvFault{in}
	i.Cache().Fault = isvFault{in}
	core.Fault = coreFault{in}
}

// dsvFault perturbs DSV cache refills (payload is a single presence bit).
type dsvFault struct{ in *Injector }

// OnFill implements viewcache.FillFault.
func (f dsvFault) OnFill(ctx sec.Ctx, key, payload uint64) (uint64, bool) {
	if f.in.fire(DSVDropFill) {
		return payload, true
	}
	if f.in.fire(DSVBitFlip) {
		payload ^= 1
	}
	return payload, false
}

// isvFault perturbs ISV cache refills (payload is a 64-slot trust mask).
type isvFault struct{ in *Injector }

// OnFill implements viewcache.FillFault.
func (f isvFault) OnFill(ctx sec.Ctx, key, payload uint64) (uint64, bool) {
	if f.in.fire(ISVDropFill) {
		return payload, true
	}
	if f.in.fire(ISVBitFlip) {
		payload ^= 1 << uint(f.in.rng.Intn(64))
	}
	return payload, false
}

// coreFault injects pipeline-level faults.
type coreFault struct{ in *Injector }

// SpuriousSquash implements cpu.FaultHook.
func (f coreFault) SpuriousSquash(pc uint64) bool { return f.in.fire(SpuriousSquash) }

// DelaySwitch implements cpu.FaultHook.
func (f coreFault) DelaySwitch(from, to sec.Ctx) bool { return f.in.fire(DelayedSwitch) }

// ViolationKind classifies invariant breaches.
type ViolationKind int

const (
	// OutOfViewFill: a wrong-path kernel data access touched a cache line
	// whose page is outside the running context's DSV — an out-of-view
	// line reached the covert channel.
	OutOfViewFill ViolationKind = iota
	// UntrustedFill: a transmitter outside the context's installed ISV
	// executed transiently (only judged when a view is installed).
	UntrustedFill
	// SquashLeak: squashing a wrong path left architectural register
	// state modified.
	SquashLeak
	// DSVStale: a cached DSV verdict claimed in-view for a page the DSVMT
	// says is outside (the dangerous direction of metadata corruption).
	DSVStale
	// ISVStale: a cached ISV verdict claimed trusted for an instruction
	// the installed view says is untrusted.
	ISVStale
	// LookasideStale: a current resolve-lookaside entry diverged from the
	// translator's page walk (Mem.VerifyLookaside failed) — the host-side
	// translation memo served a wrong translation.
	LookasideStale
	// CloneDiverged: a snapshot clone's boot-state digest differs from a
	// fresh boot's — the PR-4 copy-on-write plumbing corrupted state the
	// campaign then ran on.
	CloneDiverged
	// NumViolationKinds is the violation-class count.
	NumViolationKinds
)

// String names the violation class.
func (k ViolationKind) String() string {
	switch k {
	case OutOfViewFill:
		return "out-of-view-fill"
	case UntrustedFill:
		return "untrusted-fill"
	case SquashLeak:
		return "squash-leak"
	case DSVStale:
		return "dsv-stale"
	case ISVStale:
		return "isv-stale"
	case LookasideStale:
		return "lookaside-stale"
	case CloneDiverged:
		return "clone-diverged"
	default:
		return "?"
	}
}

// Violation records one observed breach.
type Violation struct {
	Kind   ViolationKind
	Ctx    sec.Ctx
	PC, VA uint64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s ctx=%d pc=%#x va=%#x", v.Kind, v.Ctx, v.PC, v.VA)
}

// maxRecorded bounds the retained violation records (counters are exact).
const maxRecorded = 64

// Checker implements sec.Checker against a machine's architectural view
// metadata: every event the hardware reports is judged against the DSVMT
// and the installed ISVs — ground truth the injector never touches — so a
// violation means corrupted or bypassed defense state, not a corrupted
// check.
type Checker struct {
	DSV *dsv.Dir
	ISV *isv.Dir

	// Count tallies violations per class.
	Count [NumViolationKinds]uint64
	// Recorded keeps the first maxRecorded violations for reporting.
	Recorded []Violation
	// SpuriousStale counts benign-direction metadata mismatches (cached
	// verdict stricter than the table): fail-closed noise, not a breach.
	SpuriousStale uint64
}

// NewChecker creates a checker over the machine's view directories.
func NewChecker(d *dsv.Dir, i *isv.Dir) *Checker {
	return &Checker{DSV: d, ISV: i}
}

// Attach installs the checker at every hook point of a machine.
func (c *Checker) Attach(core *cpu.Core, d *dsv.Dir, i *isv.Dir) {
	core.SecCheck = c
	d.Checker = c
	i.Checker = c
}

// Total reports the violation count across classes.
func (c *Checker) Total() uint64 {
	var n uint64
	for _, v := range c.Count {
		n += v
	}
	return n
}

func (c *Checker) add(v Violation) {
	c.Count[v.Kind]++
	if len(c.Recorded) < maxRecorded {
		c.Recorded = append(c.Recorded, v)
	}
}

// TransientFill implements sec.Checker: a wrong-path kernel data access
// that the active policy allowed is checked against the architectural
// views. User-mode speculation is the process leaking its own data to
// itself and is not judged.
func (c *Checker) TransientFill(ctx sec.Ctx, pc, va uint64, kernel bool) {
	if !kernel {
		return
	}
	if !c.DSV.Owns(ctx, va) {
		c.add(Violation{Kind: OutOfViewFill, Ctx: ctx, PC: pc, VA: va})
	}
	if v := c.ISV.View(ctx); v != nil && !v.Contains(pc) {
		c.add(Violation{Kind: UntrustedFill, Ctx: ctx, PC: pc, VA: va})
	}
}

// SquashRestore implements sec.Checker.
func (c *Checker) SquashRestore(pc uint64, intact bool) {
	if !intact {
		c.add(Violation{Kind: SquashLeak, PC: pc})
	}
}

// NoteLookaside judges one translation-memo verification result: a non-nil
// error from Mem.VerifyLookaside means the resolve lookaside diverged from
// the architectural page tables. The campaigns call it after their workload
// and attack phases so the translation fast path is under the same
// invariant regime as the view caches.
func (c *Checker) NoteLookaside(err error) {
	if err == nil {
		return
	}
	c.add(Violation{Kind: LookasideStale})
}

// NoteCloneDigest judges a snapshot clone against the fresh-boot digest:
// the campaigns boot their machines through the PR-4 clone engine, and a
// clone whose boot-relevant state does not digest identically to a genuine
// fresh boot would invalidate everything measured on it.
func (c *Checker) NoteCloneDigest(clone, fresh uint64) {
	if clone == fresh {
		return
	}
	c.add(Violation{Kind: CloneDiverged, VA: clone ^ fresh})
}

// ViewMismatch implements sec.Checker: only the dangerous direction — the
// cache claiming in-view/trusted for something the table excludes — is a
// violation; the opposite direction merely blocks more than necessary.
func (c *Checker) ViewMismatch(view string, ctx sec.Ctx, addr uint64, cached, actual bool) {
	if !cached || actual {
		c.SpuriousStale++
		return
	}
	k := DSVStale
	if view == "isv" {
		k = ISVStale
	}
	v := Violation{Kind: k, Ctx: ctx}
	if k == ISVStale {
		v.PC = addr
	} else {
		v.VA = addr
	}
	c.add(v)
}
