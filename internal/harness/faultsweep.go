package harness

import (
	"context"
	"fmt"
	"io"

	"repro/internal/attack"
	"repro/internal/faultinject"
	"repro/internal/kernel"
	"repro/internal/lebench"
	"repro/internal/schemes"
)

// FaultSweepRates are the per-opportunity fault probabilities swept; rate 0
// is the control row every scheme must pass cleanly.
var FaultSweepRates = []float64{0, 0.001, 0.01, 0.05}

// FaultSweepSchemes are the defenses stressed by the sweep: the insecure
// baseline, the two software points, the prior hardware schemes, and full
// Perspective.
var FaultSweepSchemes = []schemes.Kind{
	schemes.Unsafe, schemes.Fence, schemes.DOM, schemes.STT, schemes.Perspective,
}

// FaultSweepRow is one (scheme, rate) campaign: injected-fault counts, the
// invariant-checker verdicts, and whether the live PoC attack still leaked.
type FaultSweepRow struct {
	Scheme         schemes.Kind
	Rate           float64
	Opportunities  uint64
	Injected       uint64
	OutOfView      uint64 // wrong-path fills outside the context's DSV
	Untrusted      uint64 // wrong-path transmitters outside the installed ISV
	SquashLeaks    uint64 // squashes that failed to restore register state
	StaleViews     uint64 // dangerous cached-verdict/table disagreements
	LookasideStale uint64 // resolve-lookaside entries diverging from the walk
	CloneDiff      uint64 // snapshot-clone digests diverging from a fresh boot
	SpuriousBlock  uint64 // fail-closed events (extra fences from faults)
	Leaked         int    // PoC bytes recovered under fault injection
	HandlerFaults  uint64
	Cycles         float64
	Err            string // campaign error, "" if it completed
}

// Violations sums the row's invariant breaches.
func (r FaultSweepRow) Violations() uint64 {
	return r.OutOfView + r.Untrusted + r.SquashLeaks + r.StaleViews +
		r.LookasideStale + r.CloneDiff
}

// verdict classifies a row for the report.
func (r FaultSweepRow) verdict() string {
	switch {
	case r.Err != "":
		return "error"
	case r.Leaked > 0:
		return "broken"
	case r.Violations() > 0:
		return "degraded"
	default:
		return "ok"
	}
}

// FaultSweep runs the fault-injection campaign: for every scheme and fault
// rate it boots a fresh machine, arms a seeded injector on the view caches
// and the core, attaches the invariant checker, drives a slice of LEBench
// plus a live Spectre-v1 PoC, and reports what broke. Campaigns fan out to
// the worker pool; each campaign's seed derives from (Options.Seed,
// "faultsweep", scheme, rate) via CellSeed — never from loop indices or
// execution order — so the sweep replays exactly at any worker count.
func (h *Harness) FaultSweep() ([]FaultSweepRow, error) {
	views, err := h.ViewsFor(h.Workloads()[0])
	if err != nil {
		return nil, fmt.Errorf("faultsweep: views: %w", err)
	}
	type cellID struct {
		kind schemes.Kind
		rate float64
	}
	var ids []cellID
	var specs []CellSpec
	for _, kind := range FaultSweepSchemes {
		for _, rate := range FaultSweepRates {
			ids = append(ids, cellID{kind, rate})
			specs = append(specs, CellSpec{"faultsweep", kind.String(), fmt.Sprintf("rate=%g", rate)})
		}
	}
	rows, errs := runGrid(h, specs, func(_ context.Context, i int, spec CellSpec) (FaultSweepRow, error) {
		id := ids[i]
		row, err := h.faultCampaign(id.kind, views, id.rate, spec.seed(h.Opt.Seed))
		if err != nil {
			// A faulted machine may fail its workload outright (e.g. a
			// dropped fill starving a handler); that is a result, not an
			// abort — record it and keep sweeping.
			row.Err = fmt.Sprintf("faultsweep/%v/rate=%g: %v", id.kind, id.rate, err)
		}
		return row, nil
	})
	for i := range rows {
		if errs[i] != nil && rows[i].Err == "" {
			// Panic or per-cell timeout: the runner synthesized the error
			// and the campaign row is zero — label it so the report shows
			// which cell died.
			rows[i].Scheme, rows[i].Rate = ids[i].kind, ids[i].rate
			rows[i].Err = errs[i].Error()
		}
	}
	return rows, nil
}

// faultCampaign runs one (scheme, rate) cell.
func (h *Harness) faultCampaign(kind schemes.Kind, views *Views, rate float64, seed int64) (FaultSweepRow, error) {
	row := FaultSweepRow{Scheme: kind, Rate: rate}

	k, err := h.newMachine(kind, views.Select(kind))
	if err != nil {
		return row, err
	}
	defer k.Release()
	inj := faultinject.New(faultinject.UniformConfig(seed, rate))
	inj.Arm(k.Core, k.DSV, k.ISV)
	chk := faultinject.NewChecker(k.DSV, k.ISV)
	chk.Attach(k.Core, k.DSV, k.ISV)

	// The campaign machine is (usually) a snapshot clone: judge its boot
	// state against a genuinely fresh boot before running anything on it,
	// so a copy-on-write bug cannot silently skew the whole sweep.
	fresh, err := h.freshBootDigest()
	if err != nil {
		return row, fmt.Errorf("fresh-boot digest: %w", err)
	}
	chk.NoteCloneDigest(k.StateDigest(), fresh)

	start := k.Core.Now()
	fencesBefore := k.Core.Stats.TransientFences

	// Workload slice: enough kernel activity to exercise every fault class.
	tests := lebench.Tests()
	if len(tests) > 3 {
		tests = tests[:3]
	}
	for _, tst := range tests {
		if _, err := lebench.RunTest(k, tst, 2); err != nil {
			h.collectFaultStats(&row, inj, chk, k.Stats.HandlerFaults,
				k.Core.Now()-start, k.Core.Stats.TransientFences-fencesBefore)
			return row, fmt.Errorf("lebench %s: %w", tst.Name, err)
		}
	}

	// Live attack under fault injection: does the scheme still block the
	// leak when its metadata is being corrupted?
	secret := []byte("S3")
	var attacker *kernel.Task
	victim, err := k.CreateProcess("victim")
	if err == nil {
		attacker, err = k.CreateProcess("attacker")
		if err == nil {
			var secretVA uint64
			secretVA, err = attack.PlantSecret(k, victim, secret)
			if err == nil {
				var res attack.Result
				res, err = attack.ActiveSpectreV1(k, attacker, secretVA, len(secret))
				if err == nil {
					row.Leaked = res.Match(secret)
				}
			}
		}
	}

	// Judge the translation fast path against ground truth: every current
	// resolve-lookaside entry against the active translator's walk.
	chk.NoteLookaside(k.Mem.VerifyLookaside())
	h.collectFaultStats(&row, inj, chk, k.Stats.HandlerFaults,
		k.Core.Now()-start, k.Core.Stats.TransientFences-fencesBefore)
	if err != nil {
		return row, fmt.Errorf("poc: %w", err)
	}
	return row, nil
}

// collectFaultStats folds the machine's counters into the row.
func (h *Harness) collectFaultStats(row *FaultSweepRow, inj *faultinject.Injector,
	chk *faultinject.Checker, handlerFaults uint64, cycles float64, fences uint64) {
	for k := faultinject.Kind(0); k < faultinject.NumKinds; k++ {
		row.Opportunities += inj.Stats.Opportunities[k]
	}
	row.Injected = inj.Stats.TotalInjected()
	row.OutOfView = chk.Count[faultinject.OutOfViewFill]
	row.Untrusted = chk.Count[faultinject.UntrustedFill]
	row.SquashLeaks = chk.Count[faultinject.SquashLeak]
	row.StaleViews = chk.Count[faultinject.DSVStale] + chk.Count[faultinject.ISVStale]
	row.LookasideStale = chk.Count[faultinject.LookasideStale]
	row.CloneDiff = chk.Count[faultinject.CloneDiverged]
	row.SpuriousBlock = chk.SpuriousStale + fences
	row.HandlerFaults = handlerFaults
	row.Cycles = cycles
}

// PrintFaultSweep renders the campaign results.
func PrintFaultSweep(w io.Writer, rows []FaultSweepRow) {
	Section(w, "Fault-injection sweep: invariant violations per scheme and fault rate")
	fmt.Fprintf(w, "%-14s %6s %9s %8s %8s %8s %7s %7s %5s %7s %9s %7s %9s\n",
		"scheme", "rate", "opps", "faults", "outview", "untrust", "squash",
		"stale", "lkas", "clone", "spurious", "leaked", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %6g %9d %8d %8d %8d %7d %7d %5d %7d %9d %7d %9s\n",
			r.Scheme, r.Rate, r.Opportunities, r.Injected,
			r.OutOfView, r.Untrusted, r.SquashLeaks, r.StaleViews,
			r.LookasideStale, r.CloneDiff,
			r.SpuriousBlock, r.Leaked, r.verdict())
	}
	var errs int
	for _, r := range rows {
		if r.Err != "" {
			errs++
		}
	}
	if errs > 0 {
		fmt.Fprintf(w, "\n%d campaign(s) aborted under fault injection:\n", errs)
		for _, r := range rows {
			if r.Err != "" {
				fmt.Fprintf(w, "  %s\n", r.Err)
			}
		}
	}
}
