package main

import (
	"fmt"
	"strconv"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/loadgen"
	"repro/internal/schemes"
)

// The fleet shape is -exp taillats's: per (app, scheme) cell, fleetShards
// cloned machines each serve fleetProbes probe requests into a service-time
// reservoir, and fleetRequests open-loop Poisson arrivals are replayed
// against the reservoirs at the utilization the UNSAFE cell calibrates.
const (
	fleetShards     = 4
	fleetProbes     = 128
	fleetWarmup     = 3
	fleetRequests   = 1_000_000
	fleetRho        = 0.35
	fleetKeepAliveP = 0.9
	fleetConns      = 16
	fleetZipfKeys   = 16384
	fleetZipfS      = 1.1
)

var (
	fleetApps    = []string{"httpd", "memcached"}
	fleetSchemes = []schemes.Kind{schemes.Unsafe, schemes.Perspective}
)

type fleetApp struct {
	w     harness.Workload
	views *harness.Views
}

// fleetCell is one (app, scheme) cell of a digest round.
type fleetCell struct {
	app    int
	kind   schemes.Kind
	svc    float64 // probe-measured expected service cycles
	p99    float64 // replayed sojourn p99, cycles
	util   float64
	merged bool
}

type fleetRun struct {
	apps  []fleetApp
	cells []fleetCell
}

func prepareFleet(h *harness.Harness) (func() runner, error) {
	var fa []fleetApp
	for _, name := range fleetApps {
		var w *harness.Workload
		for i := range h.Workloads() {
			if h.Workloads()[i].Name == name {
				w = &h.Workloads()[i]
			}
		}
		if w == nil {
			return nil, fmt.Errorf("fleet: no app %s", name)
		}
		v, err := h.ViewsFor(*w)
		if err != nil {
			return nil, fmt.Errorf("fleet views: %w", err)
		}
		fa = append(fa, fleetApp{*w, v})
	}
	return func() runner { return &fleetRun{apps: fa} }, nil
}

// streamConfig is the taillats request mix; seeds derive from the round,
// app and shard, never the scheme, so schemes are compared paired.
func (d *fleetRun) streamConfig(b *bench, use string, r, app, shard int, gap float64) loadgen.StreamConfig {
	keys := uint64(0)
	if fleetApps[app] == "memcached" {
		keys = fleetZipfKeys
	}
	return loadgen.StreamConfig{
		Seed:       harness.CellSeed(b.seed, use, strconv.Itoa(r), fleetApps[app], strconv.Itoa(shard)),
		Kind:       loadgen.Poisson,
		MeanGap:    gap,
		Phase:      float64(shard) * gap / fleetShards,
		Conns:      fleetConns,
		KeepAliveP: fleetKeepAliveP,
		Keys:       keys,
		ZipfS:      fleetZipfS,
	}
}

func (d *fleetRun) round(b *bench, r int) {
	for ai := range d.apps {
		var gap float64
		for _, kind := range fleetSchemes {
			var res [fleetShards]*loadgen.Reservoir
			var svc float64
			for s := range res {
				if !b.more() {
					return
				}
				res[s] = d.probe(b, r, ai, kind, s)
				if res[s] == nil {
					break
				}
				svc += meanService(res[s]) / fleetShards
			}
			if res[fleetShards-1] == nil {
				continue // a probe failed: the cell has no reservoir
			}
			if kind == schemes.Unsafe {
				gap = svc / fleetRho
			}
			if gap == 0 {
				continue // the UNSAFE calibration of this app failed
			}
			c := fleetCell{app: ai, kind: kind, svc: svc}
			var dig loadgen.Digest
			for s := range res {
				if !b.more() {
					return
				}
				sd, st, ok := d.replay(b, r, ai, s, gap, res[s])
				if !ok {
					break
				}
				dig.Merge(&sd)
				c.util += st.Utilization() / fleetShards
				c.merged = s == fleetShards-1
			}
			if c.merged && b.inDigest() {
				c.p99 = dig.Quantile(0.99)
				d.cells = append(d.cells, c)
				b.fold(float64(dig.Count()), dig.Mean(), dig.Quantile(0.5), dig.Quantile(0.9), c.p99, dig.Quantile(0.999))
			}
		}
	}
}

// meanService is the expected service time under the keep-alive/churn mix.
func meanService(res *loadgen.Reservoir) float64 {
	keep, churn := res.Means()
	if churn == 0 {
		churn = keep
	}
	return fleetKeepAliveP*keep + (1-fleetKeepAliveP)*churn
}

// probe boots one shard machine, dials the app, and serves the warm-up and
// probe requests, each one operation. It returns nil if any failed or the
// reservoir stayed empty.
func (d *fleetRun) probe(b *bench, r, ai int, kind schemes.Kind, shard int) *loadgen.Reservoir {
	app := d.apps[ai]
	sp := b.tr.begin("cell")
	m, err := b.boot(kind, viewFor(app.views, kind))
	if err != nil {
		b.tr.end(sp)
		b.attempted++
		b.fail(fmt.Errorf("fleet %s/%v: %w", app.w.Name, kind, err))
		return nil
	}
	defer m.k.Release()
	var conn *apps.FleetConn
	err = b.call("dial", func() error {
		var err error
		conn, err = apps.DialFleet(*app.w.App, m.k)
		return err
	})
	b.tr.end(sp)
	if err != nil {
		b.attempted++
		b.fail(fmt.Errorf("fleet %s/%v dial: %w", app.w.Name, kind, err))
		return nil
	}
	res := loadgen.NewReservoir(harness.CellSeed(b.seed, "fleet-sample", strconv.Itoa(r), app.w.Name, strconv.Itoa(shard)))
	stream := loadgen.NewStream(d.streamConfig(b, "fleet-probe", r, ai, shard, 1))
	var req loadgen.Req
	ok := true
	for i := 0; i < fleetWarmup+fleetProbes; i++ {
		if !b.more() {
			return nil
		}
		churn := false
		if i >= fleetWarmup {
			stream.Next(&req)
			churn = req.Churn
		}
		label := "serve_one"
		if churn {
			label = "serve_churn"
		}
		b.op(app.w.Name+"/"+kind.String()+"/"+label, label, func() error {
			var cyc float64
			err := b.call(label, func() error {
				var err error
				if churn {
					cyc, err = conn.ServeChurn()
				} else {
					cyc, err = conn.ServeOne()
				}
				return err
			})
			if _, aerr := b.account(m); err == nil {
				err = aerr
			}
			if err != nil {
				ok = false
				return fmt.Errorf("fleet %s/%v probe %d: %w", app.w.Name, kind, i, err)
			}
			if i < fleetWarmup {
				return nil
			}
			if churn {
				res.AddChurn(cyc)
			} else {
				res.AddKeep(cyc)
			}
			b.fold(cyc)
			return nil
		})
		if !ok {
			return nil
		}
	}
	if keep, churn := res.Len(); keep+churn != fleetProbes {
		b.attempted++
		b.fail(fmt.Errorf("fleet %s/%v: reservoir holds %d samples, want %d", app.w.Name, kind, keep+churn, fleetProbes))
		return nil
	}
	return res
}

// replay runs one shard's slice of the cell's open-loop arrivals through
// loadgen.Replay, an attempted operation of its own: it fails unless the
// replay and its digest account every requested arrival.
func (d *fleetRun) replay(b *bench, r, ai, shard int, gap float64, res *loadgen.Reservoir) (loadgen.Digest, loadgen.ReplayStats, bool) {
	n := uint64(fleetRequests / fleetShards)
	stream := loadgen.NewStream(d.streamConfig(b, "fleet-stream", r, ai, shard, gap))
	var dig loadgen.Digest
	var st loadgen.ReplayStats
	b.attempted++
	sp := b.tr.begin("replay")
	t0 := cpuTime()
	st = loadgen.Replay(stream, res, n, &dig)
	b.replayTime += cpuTime() - t0
	b.tr.end(sp)
	b.replayed += float64(st.Requests)
	if st.Requests != n || dig.Count() != n {
		b.fail(fmt.Errorf("fleet %s shard %d: replayed %d (digest %d), want %d", fleetApps[ai], shard, st.Requests, dig.Count(), n))
		return dig, st, false
	}
	return dig, st, true
}

// finish reduces the digest round's cells: PERSPECTIVE/UNSAFE per app.
func (d *fleetRun) finish(b *bench) {
	var p99x, svcx, util []float64
	for ai := range d.apps {
		var u, p *fleetCell
		for i := range d.cells {
			c := &d.cells[i]
			if c.app != ai {
				continue
			}
			util = append(util, c.util)
			if c.kind == schemes.Unsafe {
				u = c
			} else {
				p = c
			}
		}
		if u != nil && p != nil {
			p99x = append(p99x, ratio(p.p99, u.p99))
			svcx = append(svcx, ratio(p.svc, u.svc))
		}
	}
	b.perspP99X = mean(p99x)
	b.perspCyclesX = mean(svcx)
	b.layer["loadgen.util"] = metric{mean(util), "ratio"}
}
