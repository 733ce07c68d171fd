// Package isv implements Instruction Speculation Views (§5.1, §5.3, §6.2).
//
// An ISV defines the set of kernel code a given execution context trusts:
// transmitter instructions (loads, variable-latency ALU ops) outside the ISV
// are blocked from speculative execution. Protection is tracked at
// instruction granularity: conceptually each kernel code page has a shadow
// "ISV page" at a fixed VA offset holding one bit per instruction slot
// (Figure 6.1a); this package stores those bits directly as per-page
// bitmaps, populated on demand.
//
// The View type is the paper's *pliable interface*: views are built offline
// (statically or from traces, internal/isvgen), installed at process start,
// and can only shrink afterwards — excluding a newly discovered gadget
// function at runtime mitigates it without a kernel patch or downtime
// (§5.4, "Dynamically Reconfigurable ISVs").
package isv

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/sec"
	"repro/internal/viewcache"
)

const (
	pageShift    = 12
	instShift    = 2 // 4-byte instruction slots
	instsPerPage = 1 << (pageShift - instShift)
	wordsPerPage = instsPerPage / 64
	// lineShift sets the ISV cache granule: one entry caches the ISV bits
	// for a 256-byte code window (64 instruction slots — a 64-bit payload
	// per entry). The coarse granule is what gives the 128-entry cache its
	// ~99% hit rate on kernel hot paths (§9.2).
	lineShift    = 8
	instsPerLine = 1 << (lineShift - instShift)
)

// View is one context's instruction speculation view.
type View struct {
	pages map[uint64]*[wordsPerPage]uint64 // keyed by code VA >> pageShift
	count uint64                           // population in instructions
	// funcs tracks whole functions added, enabling Exclude by entry VA and
	// attack-surface accounting.
	funcs map[uint64]uint64 // entry VA -> instruction count
}

// NewView returns an empty view (everything blocked).
func NewView() *View {
	return &View{
		pages: make(map[uint64]*[wordsPerPage]uint64),
		funcs: make(map[uint64]uint64),
	}
}

// AddInst marks the single instruction at va as inside the view.
func (v *View) AddInst(va uint64) {
	p := v.pages[va>>pageShift]
	if p == nil {
		p = new([wordsPerPage]uint64)
		v.pages[va>>pageShift] = p
	}
	i := (va >> instShift) & (instsPerPage - 1)
	if p[i>>6]&(1<<(i&63)) == 0 {
		p[i>>6] |= 1 << (i & 63)
		v.count++
	}
}

// RemoveInst clears the instruction at va.
func (v *View) RemoveInst(va uint64) {
	p := v.pages[va>>pageShift]
	if p == nil {
		return
	}
	i := (va >> instShift) & (instsPerPage - 1)
	if p[i>>6]&(1<<(i&63)) != 0 {
		p[i>>6] &^= 1 << (i & 63)
		v.count--
	}
}

// AddFunc marks a whole function: nInsts instruction slots starting at entry.
func (v *View) AddFunc(entry uint64, nInsts int) {
	for i := 0; i < nInsts; i++ {
		v.AddInst(entry + uint64(i)*isa.InstBytes)
	}
	v.funcs[entry] = uint64(nInsts)
}

// Exclude removes a whole previously added function — the swift-patching
// primitive: a gadget found after deployment is cut out of every view that
// trusts it, with no reboot.
func (v *View) Exclude(entry uint64) bool {
	n, ok := v.funcs[entry]
	if !ok {
		return false
	}
	for i := uint64(0); i < n; i++ {
		v.RemoveInst(entry + i*isa.InstBytes)
	}
	delete(v.funcs, entry)
	return true
}

// Contains reports whether the instruction at va is inside the view.
func (v *View) Contains(va uint64) bool {
	p := v.pages[va>>pageShift]
	if p == nil {
		return false
	}
	i := (va >> instShift) & (instsPerPage - 1)
	return p[i>>6]&(1<<(i&63)) != 0
}

// ContainsFunc reports whether the function at entry is (still) trusted.
func (v *View) ContainsFunc(entry uint64) bool {
	_, ok := v.funcs[entry]
	return ok
}

// NumInsts reports the view population in instructions.
func (v *View) NumInsts() uint64 { return v.count }

// NumFuncs reports how many functions the view trusts.
func (v *View) NumFuncs() int { return len(v.funcs) }

// Funcs returns the entry VAs of all trusted functions, in ascending order.
func (v *View) Funcs() []uint64 {
	out := make([]uint64, 0, len(v.funcs))
	for e := range v.funcs {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// Clone deep-copies the view (used to derive ISV++ from ISV).
func (v *View) Clone() *View {
	c := NewView()
	for k, p := range v.pages {
		cp := *p
		c.pages[k] = &cp
	}
	for e, n := range v.funcs {
		c.funcs[e] = n
	}
	c.count = v.count
	return c
}

// lineMask extracts the per-granule ISV payload for the code window
// containing va: one bit per instruction slot in the window. A window is
// 64 slots aligned to 64 within its page, so it is exactly one bitmap word.
func (v *View) lineMask(va uint64) uint64 {
	p := v.pages[va>>pageShift]
	if p == nil {
		return 0
	}
	return p[(va>>lineShift)&(wordsPerPage-1)]
}

// Dir is the registry of installed views plus the shared ISV hardware cache
// (Figure 6.1b): 128 entries, 32 sets × 4 ways, ASID-tagged, each entry
// caching one 256-byte code window's worth of ISV bits.
type Dir struct {
	views map[sec.Ctx]*View
	cache *viewcache.Cache

	// Walks counts ISV-page fetches (cache misses that refilled).
	Walks uint64

	// Checker, when set, cross-checks every cached verdict against the
	// installed view on use and reports disagreements — the
	// CheckInvariants hook that catches fault-corrupted cache state.
	Checker sec.Checker
}

// NewDir creates an empty directory with the Table 7.1 ISV cache.
func NewDir() *Dir {
	return NewDirWithCache(viewcache.New(viewcache.DefaultConfig))
}

// NewDirWithCache creates a directory over a custom hardware cache
// (geometry sensitivity studies).
func NewDirWithCache(c *viewcache.Cache) *Dir {
	return &Dir{
		views: make(map[sec.Ctx]*View),
		cache: c,
	}
}

// Clone deep-copies the directory's architectural state: every installed
// view. The hardware ISV cache starts cold (as after NewDir) — machine
// snapshots are taken on pristine post-boot machines whose caches have never
// been filled, so a cold cache is exactly the snapshotted state. The
// receiver is not mutated, so concurrent clones of an immutable template are
// safe.
func (d *Dir) Clone() *Dir {
	c := NewDir()
	c.Walks = d.Walks
	for ctx, v := range d.views {
		c.views[ctx] = v.Clone()
	}
	return c
}

// Install binds a view to a context (at application startup, §5.4). It
// replaces any previous view and drops that context's cached entries.
func (d *Dir) Install(ctx sec.Ctx, v *View) {
	d.views[ctx] = v
	d.cache.InvalidateCtx(ctx)
}

// View returns the installed view, or nil.
func (d *Dir) View(ctx sec.Ctx) *View { return d.views[ctx] }

// Cache exposes the hardware cache for stats.
func (d *Dir) Cache() *viewcache.Cache { return d.cache }

// Result of an ISV check.
type Result int

const (
	// Hit means the cache hit and the instruction is trusted.
	Hit Result = iota
	// HitOutside means the cache hit and the instruction is untrusted:
	// block its speculative execution.
	HitOutside
	// Miss means the cache missed: conservatively block while refilling
	// from the ISV page (§6.2).
	Miss
)

// Check performs the hardware-side ISV lookup for the transmitter at pc
// executing speculatively under ctx.
func (d *Dir) Check(ctx sec.Ctx, pc uint64) Result {
	key := pc >> lineShift
	if payload, hit := d.cache.Lookup(ctx, key); hit {
		in := payload&(1<<((pc>>instShift)&(instsPerLine-1))) != 0
		if d.Checker != nil {
			if actual := d.Trusted(ctx, pc); actual != in {
				d.Checker.ViewMismatch("isv", ctx, pc, in, actual)
			}
		}
		if in {
			return Hit
		}
		return HitOutside
	}
	d.Walks++
	var mask uint64
	if v := d.views[ctx]; v != nil {
		mask = v.lineMask(pc)
	}
	d.cache.Fill(ctx, key, mask)
	return Miss
}

// Trusted reports architectural membership (no cache involvement).
func (d *Dir) Trusted(ctx sec.Ctx, pc uint64) bool {
	v := d.views[ctx]
	return v != nil && v.Contains(pc)
}

// ExcludeFunc removes a function from a context's installed view at runtime
// and invalidates the affected cache lines — the live-patch operation.
func (d *Dir) ExcludeFunc(ctx sec.Ctx, entry uint64, nInsts int) bool {
	v := d.views[ctx]
	if v == nil || !v.Exclude(entry) {
		return false
	}
	for off := 0; off < nInsts*isa.InstBytes; off += 1 << lineShift {
		d.cache.InvalidateKey((entry + uint64(off)) >> lineShift)
	}
	return true
}

// Drop tears down a context.
func (d *Dir) Drop(ctx sec.Ctx) {
	delete(d.views, ctx)
	d.cache.InvalidateCtx(ctx)
}

func (v *View) String() string {
	return fmt.Sprintf("isv{funcs=%d insts=%d}", v.NumFuncs(), v.NumInsts())
}
