package main

import (
	"repro/internal/kernel"
	"repro/internal/schemes"
)

// Machine counters read from the layers' exported statistics. Every one is
// cumulative on a machine, so an operation's share is a difference of two
// snapshots.
const (
	cInsts = iota
	cCycles
	cTransient
	cBranches
	cMispredicts
	cFenceDelay
	cThreaded
	cBBLookups
	cBBHits
	cL1DAccesses
	cL1DHits
	cL1DFlushes
	cL1IAccesses
	cL1IHits
	cL2Accesses
	cL2Hits
	cSyscalls
	cPageFaults
	cContextSwitches
	cHandlerFaults
	cDSVLookups
	cDSVHits
	cISVLookups
	cISVHits
	cPerspChecked
	cPerspDSVFences
	cPerspISVFences
	nCounters
)

type counters [nCounters]float64

func readCounters(k *kernel.Kernel) counters {
	var c counters
	cs := &k.Core.Stats
	c[cInsts] = float64(cs.Insts)
	c[cCycles] = k.Core.Now()
	c[cTransient] = float64(cs.TransientInsts)
	c[cBranches] = float64(cs.Branches)
	c[cMispredicts] = float64(cs.Mispredicts)
	c[cFenceDelay] = cs.FenceDelay
	c[cThreaded] = float64(cs.ThreadedInsts)
	c[cBBLookups] = float64(cs.BBLookups)
	c[cBBHits] = float64(cs.BBHits)
	l1d, l1i, l2 := k.Core.H.L1D.Stats(), k.Core.H.L1I.Stats(), k.Core.H.L2.Stats()
	c[cL1DAccesses], c[cL1DHits], c[cL1DFlushes] = float64(l1d.Accesses), float64(l1d.Hits), float64(l1d.Flushes)
	c[cL1IAccesses], c[cL1IHits] = float64(l1i.Accesses), float64(l1i.Hits)
	c[cL2Accesses], c[cL2Hits] = float64(l2.Accesses), float64(l2.Hits)
	c[cSyscalls] = float64(k.Stats.Syscalls)
	c[cPageFaults] = float64(k.Stats.PageFaults)
	c[cContextSwitches] = float64(k.Stats.ContextSwitch)
	c[cHandlerFaults] = float64(k.Stats.HandlerFaults)
	dsv, isv := k.DSV.Cache().Stats(), k.ISV.Cache().Stats()
	c[cDSVLookups], c[cDSVHits] = float64(dsv.Lookups), float64(dsv.Hits)
	c[cISVLookups], c[cISVHits] = float64(isv.Lookups), float64(isv.Hits)
	if p, ok := k.Core.Policy.(*schemes.PerspectivePolicy); ok {
		c[cPerspChecked] = float64(p.Stats.Checked)
		c[cPerspDSVFences] = float64(p.Stats.DSVFences)
		c[cPerspISVFences] = float64(p.Stats.ISVFences)
	}
	return c
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
