// The fleet-scale open-loop tail-latency experiment (-exp taillats).
//
// The paper's §7 datacenter evaluation reports closed-loop *mean* throughput
// overheads, but a defense that inflates kernel service time shows up in
// production as p99/p999 tail latency long before it moves a mean: under
// open-loop load (clients issue on their own clock) queueing delay grows
// nonlinearly with utilization, so a 2× service inflation at moderate load
// can be a 10× tail inflation. This experiment measures that directly:
//
//  1. Calibrate: a fleet of cloned UNSAFE machines (one per shard, via the
//     BootMachine snapshot cache) serves probe requests through the
//     per-request apps.FleetConn drive hooks, filling a stratified
//     service-time reservoir (keep-alive vs connection-churn strata). The
//     measured UNSAFE mean sets each app's arrival rate at a fixed
//     utilization rho, the same operating point for every scheme.
//  2. Measure: every other (app, scheme, shard) cell probes its own
//     machine the same way — identical drive sequence, scheme-free seeds —
//     then replays 10⁶+ open-loop arrivals through Lindley's recurrence,
//     drawing service times from its measured reservoir and streaming
//     sojourn times into a mergeable log-bucket digest (O(1) memory).
//  3. Merge: per-shard digests fold in canonical shard order, so output is
//     byte-identical at any -jobs; arrival and sampling seeds derive
//     without the scheme, so every scheme faces the same arrival process
//     and the same sample draw sequence (a paired comparison).
//
// Full simulation of 10⁶ requests per cell would take hours at ~43
// sim-MIPS; the hybrid probe-then-replay design keeps the kernel-path cost
// real (every reservoir entry is a fully simulated request under that
// scheme's policy) while the queueing dynamics run at millions of replayed
// requests per host-second.
package harness

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/apps"
	"repro/internal/loadgen"
	"repro/internal/schemes"
)

const (
	// tailRho is the per-machine utilization the UNSAFE calibration targets.
	// 0.35 keeps the slowest measured scheme (~2.4× FENCE) below saturation
	// (rho ≈ 0.85) while leaving queueing room for tails to amplify.
	tailRho = 0.35
	// tailKeepAliveP is the keep-alive fraction of the request mix; the
	// complement pays the connection-churn kernel path.
	tailKeepAliveP = 0.9
	// tailConns is the modeled live-connection count per shard machine.
	tailConns = 16
	// tailZipfKeys/tailZipfS shape the key-popularity distribution for the
	// key-value apps (memcached, redis). Keys shape the generated stream;
	// the simulated kernel path cost is key-independent (single-page cache).
	tailZipfKeys = 16384
	tailZipfS    = 1.1
)

// TailCell is one (app, scheme) fleet measurement: per-shard digests merged
// in canonical shard order.
type TailCell struct {
	App    string
	Scheme schemes.Kind
	// Requests is the replayed open-loop request count (all shards).
	Requests uint64
	// Churns counts replayed requests that paid the reconnection path.
	Churns uint64
	// MeanService is the probe-measured expected service time in cycles
	// (keep-alive and churn strata weighted by the request mix).
	MeanService float64
	// P50/P99/P999/Mean are sojourn times (queueing + service) in cycles.
	P50, P99, P999, Mean float64
	// Util is offered-load utilization over the replayed span.
	Util float64
	// P50X/P99X/P999X are overheads vs the app's UNSAFE cell.
	P50X, P99X, P999X float64
	// HandlerFaults accumulates kernel-reported faults across shard probes.
	HandlerFaults uint64
	Err           string // cell failure, "" if it measured cleanly
}

// TailReport is the full taillats result: the grid plus the load model it
// was measured under.
type TailReport struct {
	Arrival  loadgen.ArrivalKind
	Fleet    int
	Requests uint64 // replayed per (app, scheme) cell
	Rho      float64
	Cells    []TailCell
}

// tailShard is one (app, scheme, shard) probe result: the measured
// service-time reservoir plus fault accounting.
type tailShard struct {
	res    *loadgen.Reservoir
	faults uint64
}

// tailOut is one shard's complete phase-2 output: probe + replay.
type tailOut struct {
	shard tailShard
	dig   loadgen.Digest
	st    loadgen.ReplayStats
}

// tailKeys returns the Zipf key-universe size for an app (0 disables key
// modelling for the byte-stream apps).
func tailKeys(app string) uint64 {
	if app == "memcached" || app == "redis" {
		return tailZipfKeys
	}
	return 0
}

// tailRequests resolves the replayed request count per (app, scheme) cell.
func (o Options) tailRequests() uint64 {
	if o.TailRequests > 0 {
		return uint64(o.TailRequests)
	}
	return 1_000_000
}

// tailFleet resolves the machines-per-cell fleet width.
func (o Options) tailFleet() int {
	if o.TailFleet > 0 {
		return o.TailFleet
	}
	return 4
}

// tailProbes resolves the fully-simulated probe requests per shard.
func (o Options) tailProbes() int {
	if o.TailProbes > 0 {
		return o.TailProbes
	}
	return 128
}

// tailProbeStream builds the shard's probe drive stream. Seeds derive from
// (run seed, app, shard) — never the scheme — so every scheme drives the
// identical keep-alive/churn sequence and the comparison is paired.
func (h *Harness) tailProbeStream(app string, shard int) *loadgen.Stream {
	return loadgen.NewStream(loadgen.StreamConfig{
		Seed:       CellSeed(h.Opt.Seed, "taillats-probe", app, strconv.Itoa(shard)),
		Kind:       h.Opt.TailArrival,
		MeanGap:    1, // probes are closed-loop; only the mix draws matter
		Conns:      tailConns,
		KeepAliveP: tailKeepAliveP,
		Keys:       tailKeys(app),
		ZipfS:      tailZipfS,
	})
}

// tailProbe fully simulates one shard machine's probe requests under the
// scheme and returns the measured service-time reservoir.
func (h *Harness) tailProbe(kind schemes.Kind, w Workload, shard int) (tailShard, error) {
	out := tailShard{}
	views, err := h.ViewsFor(w)
	if err != nil {
		return out, err
	}
	k, err := h.newMachine(kind, views.Select(kind))
	if err != nil {
		return out, err
	}
	defer k.Release()
	conn, err := apps.DialFleet(*w.App, k)
	if err != nil {
		return out, err
	}
	// Warm the machine so cold-boot cache misses don't contaminate the
	// reservoir (mirrors Conn.Serve's warmup).
	for i := 0; i < 3; i++ {
		if _, err := conn.ServeOne(); err != nil {
			return out, err
		}
	}
	res := loadgen.NewReservoir(CellSeed(h.Opt.Seed, "taillats-sample", w.Name, strconv.Itoa(shard)))
	ps := h.tailProbeStream(w.Name, shard)
	var r loadgen.Req
	for i := 0; i < h.Opt.tailProbes(); i++ {
		ps.Next(&r)
		if r.Churn {
			cyc, err := conn.ServeChurn()
			if err != nil {
				return out, fmt.Errorf("probe %d (churn): %w", i, err)
			}
			res.AddChurn(cyc)
		} else {
			cyc, err := conn.ServeOne()
			if err != nil {
				return out, fmt.Errorf("probe %d: %w", i, err)
			}
			res.AddKeep(cyc)
		}
	}
	out.res = res
	out.faults = k.Stats.HandlerFaults
	if out.faults > 0 {
		return out, fmt.Errorf("%d handler faults", out.faults)
	}
	return out, nil
}

// tailMeanService is the expected per-request service time implied by a
// shard reservoir under the keep-alive/churn mix.
func tailMeanService(res *loadgen.Reservoir) float64 {
	keep, churn := res.Means()
	if churn == 0 {
		churn = keep
	}
	return tailKeepAliveP*keep + (1-tailKeepAliveP)*churn
}

// tailReplay replays the shard's slice of the open-loop arrival stream
// against its measured reservoir. meanGap comes from the UNSAFE
// calibration; the stream seed omits the scheme so arrivals are identical
// across schemes.
func (h *Harness) tailReplay(app string, shard int, n uint64, meanGap float64, res *loadgen.Reservoir) (loadgen.Digest, loadgen.ReplayStats) {
	var d loadgen.Digest
	st := loadgen.Replay(loadgen.NewStream(h.Opt.tailReplayConfig(app, shard, meanGap)), res, n, &d)
	return d, st
}

// tailReplayConfig is the shard's slice of the cell's open-loop arrivals.
func (o Options) tailReplayConfig(app string, shard int, meanGap float64) loadgen.StreamConfig {
	return loadgen.StreamConfig{
		Seed:       CellSeed(o.Seed, "taillats-stream", app, strconv.Itoa(shard)),
		Kind:       o.TailArrival,
		MeanGap:    meanGap,
		Phase:      float64(shard) * meanGap / float64(o.tailFleet()),
		Conns:      tailConns,
		KeepAliveP: tailKeepAliveP,
		Keys:       tailKeys(app),
		ZipfS:      tailZipfS,
	}
}

// shardRequests splits the per-cell request count across the fleet; shard 0
// absorbs the remainder so the total is exact.
func (o Options) shardRequests(shard int) uint64 {
	n, f := o.tailRequests(), uint64(o.tailFleet())
	per := n / f
	if shard == 0 {
		per += n % f
	}
	return per
}

// TailLats runs the open-loop fleet grid. Memoized on the harness like
// Fig92/Fig93: the grid is a pure function of the options.
func (h *Harness) TailLats() (*TailReport, error) {
	h.tailOnce.Do(func() { h.tailRep, h.tailErr = h.tailGrid() })
	return h.tailRep, h.tailErr
}

func (h *Harness) tailGrid() (*TailReport, error) {
	if !hasScheme(h.Opt.Schemes, schemes.Unsafe) {
		return nil, fmt.Errorf("taillats: %w", ErrMissingBaseline)
	}
	var wls []Workload
	for _, w := range h.Workloads() {
		if w.App != nil {
			wls = append(wls, w)
		}
	}
	fleet := h.Opt.tailFleet()
	rep := &TailReport{
		Arrival:  h.Opt.TailArrival,
		Fleet:    fleet,
		Requests: h.Opt.tailRequests(),
		Rho:      tailRho,
	}
	shardLabel := func(w Workload, s int) string { return w.Name + "/shard" + strconv.Itoa(s) }

	// Phase 1: UNSAFE calibration probes, one cell per (app, shard). These
	// reservoirs both set each app's arrival rate and serve as the UNSAFE
	// scheme's measured service distribution.
	type shardID struct {
		wi, shard int
	}
	var calIDs []shardID
	var calSpecs []CellSpec
	for wi, w := range wls {
		for s := 0; s < fleet; s++ {
			calIDs = append(calIDs, shardID{wi, s})
			calSpecs = append(calSpecs, CellSpec{"taillats-cal", schemes.Unsafe.String(), shardLabel(w, s)})
		}
	}
	calCells, calErrs := runGrid(h, calSpecs, func(_ context.Context, i int, _ CellSpec) (tailShard, error) {
		id := calIDs[i]
		return h.tailProbe(schemes.Unsafe, wls[id.wi], id.shard)
	})

	// Arrival gap per app from the merged UNSAFE reservoirs, folded in
	// canonical shard order: gap = E[service]/rho. Apps whose calibration
	// failed get gap 0, and every dependent cell reports the missing
	// baseline instead of replaying garbage.
	meanGap := make([]float64, len(wls))
	calErr := make([]error, len(wls))
	for i, id := range calIDs {
		if calErrs[i] != nil && calErr[id.wi] == nil {
			calErr[id.wi] = calErrs[i]
		}
	}
	for wi, w := range wls {
		if calErr[wi] != nil {
			continue
		}
		var sum float64
		var n int
		for i, id := range calIDs {
			if id.wi != wi {
				continue
			}
			sum += tailMeanService(calCells[i].res)
			n++
		}
		if n == 0 || sum <= 0 {
			calErr[wi] = fmt.Errorf("taillats: no UNSAFE calibration for %s", w.Name)
			continue
		}
		meanGap[wi] = (sum / float64(n)) / tailRho
	}

	// Phase 2: every (app, scheme≠UNSAFE, shard) cell probes its machine
	// and replays its stream slice; UNSAFE shards only replay (phase 3),
	// reusing the calibration reservoirs — the probe would be identical.
	type cellID struct {
		wi    int
		kind  schemes.Kind
		shard int
	}
	var ids []cellID
	var specs []CellSpec
	for wi, w := range wls {
		for _, kind := range h.Opt.Schemes {
			if kind == schemes.Unsafe {
				continue
			}
			for s := 0; s < fleet; s++ {
				ids = append(ids, cellID{wi, kind, s})
				specs = append(specs, CellSpec{"taillats", kind.String(), shardLabel(w, s)})
			}
		}
	}
	outs, outErrs := runGrid(h, specs, func(_ context.Context, i int, _ CellSpec) (tailOut, error) {
		id := ids[i]
		w := wls[id.wi]
		if calErr[id.wi] != nil {
			return tailOut{}, fmt.Errorf("UNSAFE calibration failed for %s: %w", w.Name, calErr[id.wi])
		}
		sh, err := h.tailProbe(id.kind, w, id.shard)
		if err != nil {
			return tailOut{shard: sh}, err
		}
		out := tailOut{shard: sh}
		out.dig, out.st = h.tailReplay(w.Name, id.shard, h.Opt.shardRequests(id.shard), meanGap[id.wi], sh.res)
		return out, nil
	})

	// Phase 3: UNSAFE replays over the calibration reservoirs.
	var baseIDs []shardID
	var baseSpecs []CellSpec
	for wi, w := range wls {
		for s := 0; s < fleet; s++ {
			baseIDs = append(baseIDs, shardID{wi, s})
			baseSpecs = append(baseSpecs, CellSpec{"taillats-replay", schemes.Unsafe.String(), shardLabel(w, s)})
		}
	}
	baseOuts, baseErrs := runGrid(h, baseSpecs, func(_ context.Context, i int, _ CellSpec) (tailOut, error) {
		id := baseIDs[i]
		if calErr[id.wi] != nil {
			return tailOut{}, calErr[id.wi]
		}
		ci := id.wi*fleet + id.shard // calibration grid is (app-major, shard-minor)
		sh := calCells[ci]
		out := tailOut{shard: sh}
		out.dig, out.st = h.tailReplay(wls[id.wi].Name, id.shard, h.Opt.shardRequests(id.shard), meanGap[id.wi], sh.res)
		return out, nil
	})

	// Merge shards per (app, scheme) in canonical order and aggregate
	// errors, mirroring the Fig93 reassembly discipline.
	var cerrs CellErrors
	mergeCell := func(w Workload, kind schemes.Kind, cellOuts []tailOut, errs []error) TailCell {
		c := TailCell{App: w.Name, Scheme: kind}
		var dig loadgen.Digest
		var svcSum float64
		var svcN int
		for si := range cellOuts {
			o := cellOuts[si]
			c.HandlerFaults += o.shard.faults
			if errs[si] != nil {
				if c.Err == "" {
					c.Err = errs[si].Error()
				}
				cerrs.Addf("taillats/%v/%s/shard%d: %w", kind, w.Name, si, errs[si])
				continue
			}
			dig.Merge(&o.dig)
			c.Requests += o.st.Requests
			c.Churns += o.st.Churns
			c.Util += o.st.Utilization()
			if o.shard.res != nil {
				svcSum += tailMeanService(o.shard.res)
				svcN++
			}
		}
		if n := len(cellOuts); n > 0 {
			c.Util /= float64(n)
		}
		if svcN > 0 {
			c.MeanService = svcSum / float64(svcN)
		}
		if dig.Count() > 0 {
			c.P50 = dig.Quantile(0.50)
			c.P99 = dig.Quantile(0.99)
			c.P999 = dig.Quantile(0.999)
			c.Mean = dig.Mean()
		}
		return c
	}

	byKey := map[[3]string]int{}
	for i, id := range ids {
		byKey[[3]string{wls[id.wi].Name, id.kind.String(), strconv.Itoa(id.shard)}] = i
	}
	for wi, w := range wls {
		for _, kind := range h.Opt.Schemes {
			var cellOuts []tailOut
			var errs []error
			for s := 0; s < fleet; s++ {
				if kind == schemes.Unsafe {
					i := wi*fleet + s
					cellOuts = append(cellOuts, baseOuts[i])
					errs = append(errs, baseErrs[i])
					continue
				}
				i := byKey[[3]string{w.Name, kind.String(), strconv.Itoa(s)}]
				cellOuts = append(cellOuts, outs[i])
				errs = append(errs, outErrs[i])
			}
			rep.Cells = append(rep.Cells, mergeCell(w, kind, cellOuts, errs))
		}
	}
	normalizeTails(rep.Cells)
	return rep, cerrs.Err()
}

// normalizeTails fills per-scheme overheads vs each app's UNSAFE cell.
// Apps without a clean UNSAFE measurement keep zero overheads, matching the
// normalizeApps convention.
func normalizeTails(cells []TailCell) {
	base := map[string]TailCell{}
	for _, c := range cells {
		if c.Scheme == schemes.Unsafe && c.Err == "" && c.P50 > 0 {
			base[c.App] = c
		}
	}
	for i := range cells {
		c := &cells[i]
		b, ok := base[c.App]
		if !ok || c.P50 <= 0 {
			continue
		}
		c.P50X = c.P50 / b.P50
		c.P99X = c.P99 / b.P99
		c.P999X = c.P999 / b.P999
	}
}

// PrintTailLats renders the tail-latency figure: absolute sojourn quantiles
// in kilocycles plus overheads vs UNSAFE.
func PrintTailLats(w io.Writer, rep *TailReport, kinds []schemes.Kind) {
	Section(w, "Tail latency: open-loop fleet, sojourn quantiles vs UNSAFE")
	fmt.Fprintf(w, "arrival=%v rho=%.2f fleet=%d requests/cell=%d\n",
		rep.Arrival, rep.Rho, rep.Fleet, rep.Requests)
	fmt.Fprintf(w, "%-11s%-20s%10s%10s%10s%8s%8s%8s\n",
		"app", "scheme", "p50(kc)", "p99(kc)", "p999(kc)", "p50x", "p99x", "p999x")
	byApp := map[string]map[schemes.Kind]TailCell{}
	var order []string
	for _, c := range rep.Cells {
		m := byApp[c.App]
		if m == nil {
			m = map[schemes.Kind]TailCell{}
			byApp[c.App] = m
			order = append(order, c.App)
		}
		m[c.Scheme] = c
	}
	for _, a := range order {
		for _, k := range kinds {
			c := byApp[a][k]
			fmt.Fprintf(w, "%-11s%-20s%10.1f%10.1f%10.1f%8.2f%8.2f%8.2f\n",
				a, k.String(), c.P50/1e3, c.P99/1e3, c.P999/1e3, c.P50X, c.P99X, c.P999X)
		}
	}
	var faults uint64
	var failed int
	for _, c := range rep.Cells {
		faults += c.HandlerFaults
		if c.Err != "" {
			failed++
		}
	}
	if failed > 0 || faults > 0 {
		fmt.Fprintf(w, "!! %d cell(s) failed, %d handler fault(s):\n", failed, faults)
		for _, c := range rep.Cells {
			if c.Err != "" {
				fmt.Fprintf(w, "   %v/%s: %s\n", c.Scheme, c.App, c.Err)
			}
		}
	}
}

// tailMemo fields live on the Harness (see harness.go); declared here to
// keep the taillats machinery in one file.
type tailMemo struct {
	tailOnce sync.Once
	tailRep  *TailReport
	tailErr  error
}
