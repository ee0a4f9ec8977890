package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/resolve"
	"repro/internal/sched"
	"repro/internal/shardindex"
)

// layerStats accumulates what a traced run measures outside spans:
// counters, and per-point timings of the layer calls it replays.
type layerStats struct {
	p99                          float64 // locate batch latency p99, ms
	gcCycles, gcPauseMs          float64
	allocPerPoint, bytesPerPoint float64
	locatorBuilds, overhead      float64
	uncertainCells               []float64 // |T?| summed over stations, per built network
	shareBase                    string    // the ops resolve.batch_share divides by
	shareNum, shareDen           float64   // library: seconds in ResolveBatch, in all library calls

	classDur       [3]time.Duration // H+, H-, H? Locate time
	classN         [3]int64
	uncertainDur   time.Duration // ResolveUncertain over H? answers
	candDur        time.Duration
	candN, candSum int64
	coversMiss     int64
	nearestDur     time.Duration
	nearestN       int64
	heardDur       time.Duration
	heardN         int64
	dynLocDur      [2]time.Duration // uniform, non-uniform epochs
	dynLocN        [2]int64

	applyUs                 []float64
	applies, rebuilds       int64 // one apply per dynamic epoch the workload produced
	nonuniformEpochs        int64
	repairKept, repairLinks int64
}

// sink keeps replayed calls from being optimized away.
var sink int64

// epoch counts one dynamic epoch the workload produced.
func (l *layerStats) epoch(snap *dynamic.Snapshot) {
	l.applies++
	if snap.ApplyStats().Path == dynamic.PathRebuild {
		l.rebuilds++
	}
	if !snap.Network().IsUniform() {
		l.nonuniformEpochs++
	}
}

// replayCoreBuild times the Theorem 3 build of net at the core layer,
// BuildLocatorOpts as a whole on the given number of workers (0 = one
// per CPU, as the resolver above it); with perStation it then also
// times every per-station BuildQDS on its own, fanned out over as many
// workers.
func replayCoreBuild(l *layerStats, rec *recorder, net *core.Network, eps float64, workers int, parent int64, perStation bool) error {
	var loc *core.Locator
	var err error
	rec.timed("core.build", parent, true, func(int64) {
		loc, err = net.BuildLocatorOpts(eps, core.BuildOptions{Workers: workers})
	})
	if err != nil {
		return err
	}
	l.uncertainCells = append(l.uncertainCells, float64(loc.NumUncertainCells()))
	if !perStation {
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, net.NumStations())
	if workers == 0 {
		workers = core.DefaultWorkers()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < net.NumStations(); i = int(next.Add(1) - 1) {
				rec.timed("core.qds_build", 0, true, func(int64) { _, errs[i] = net.BuildQDS(i, eps) })
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// locatorReplay re-runs the layers below a locator resolver on the
// points of traced batches.
type locatorReplay struct {
	loc  *core.Locator
	tree *kdtree.Tree
	sx   *shardindex.Index
}

func newLocatorReplay(loc *core.Locator) *locatorReplay {
	return &locatorReplay{loc: loc, tree: kdtree.New(loc.Network().Stations()), sx: loc.SpatialIndex()}
}

func classOf(k core.LocationKind) int {
	switch k {
	case core.Reception:
		return 0
	case core.NoReception:
		return 1
	default:
		return 2
	}
}

// batch replays one batch. With res set (a served batch) it first times
// res.ResolveBatch as the resolve.batch shadow of the handler span
// parent; without (a library batch, whose ResolveBatch was the real
// call) parent is that call's span. Core Locate is timed per answer
// class, then ResolveUncertain on the H? answers, and the spatial index
// and kd-tree lookups Locate makes are timed as core's children.
func (lr *locatorReplay) batch(l *layerStats, rec *recorder, res resolve.Resolver, pts []geom.Point, parent int64) error {
	if res != nil {
		dst := make([]core.Location, len(pts))
		var err error
		rec.timed("resolve.batch", parent, true, func(id int64) {
			parent = id
			err = res.ResolveBatch(context.Background(), pts, dst)
		})
		if err != nil {
			return err
		}
	}
	var byClass [3][]geom.Point
	var uncertain []core.Location
	for _, p := range pts {
		loc := lr.loc.Locate(p)
		c := classOf(loc.Kind)
		byClass[c] = append(byClass[c], p)
		if c == 2 {
			uncertain = append(uncertain, loc)
		}
	}
	var coreID int64
	rec.timed("core.locate", parent, true, func(id int64) {
		coreID = id
		for c := range byClass {
			t := time.Now()
			for _, p := range byClass[c] {
				sink += int64(lr.loc.Locate(p).Station)
			}
			l.classDur[c] += time.Since(t)
			l.classN[c] += int64(len(byClass[c]))
		}
	})
	l.uncertainDur += rec.timed("core.resolve_uncertain", parent, true, func(int64) {
		for i, loc := range uncertain {
			sink += int64(lr.loc.ResolveUncertain(loc, byClass[2][i]).Station)
		}
	})
	if lr.sx != nil {
		l.candDur += rec.timed("shardindex.candidates", coreID, true, func(int64) {
			for _, p := range pts {
				l.candSum += int64(len(lr.sx.Candidates(p.X, p.Y)))
			}
		})
		l.candN += int64(len(pts))
		for _, p := range pts {
			if !lr.sx.Covers(p.X, p.Y) {
				l.coversMiss++
			}
		}
	}
	l.nearestDur += rec.timed("kdtree.nearest", coreID, true, func(int64) {
		for _, p := range pts {
			i, _, _ := lr.tree.Nearest(p)
			sink += int64(i)
		}
	})
	l.nearestN += int64(len(pts))
	return nil
}

// replay re-runs, on a traced serve run's recorded inputs, the layer
// calls below the server: the read network's resolver and what it
// calls, then the write network's dynamic engine and scheduler.
func (r *serveRun) replay(l *layerStats, init writeRec, samples []locateSample) error {
	rec, sp := r.rec, r.sp
	handler := map[int64]int64{} // client span id -> handler span id
	for _, s := range rec.spans {
		if s.layer() == "serve" {
			handler[s.Parent] = s.ID
		}
	}
	snaps, err := r.replayWrites(l, init, handler)
	if err != nil {
		return err
	}
	if sp.readKind == "locator" {
		var res resolve.Resolver
		var buildID int64
		rec.timed("resolve.build", 0, true, func(id int64) {
			buildID = id
			res, err = resolve.New(resolve.KindLocator, sp.readNet, resolve.WithEpsilon(sp.eps))
		})
		if err != nil {
			return err
		}
		if err := replayCoreBuild(l, rec, sp.readNet, sp.eps, 0, buildID, true); err != nil {
			return err
		}
		lr := newLocatorReplay(res.(*resolve.LocatorResolver).Locator())
		for _, s := range samples {
			if s.traced {
				if err := lr.batch(l, rec, res, sp.batches[s.pool], handler[s.clientSpan]); err != nil {
					return err
				}
			}
		}
		l.shareBase = "served locate handler time of the replayed batches"
		return nil
	}
	// A dynamic read network: the resolver is the epoch's snapshot.
	resolvers := map[uint64]*resolve.SnapshotResolver{}
	for _, s := range samples {
		snap := snaps[s.version]
		if !s.traced || snap == nil {
			continue
		}
		h := handler[s.clientSpan]
		sr := resolvers[s.version]
		if sr == nil {
			var err error
			rec.timed("resolve.build", h, true, func(int64) { sr, err = resolve.NewDynamicSnapshot(snap) })
			if err != nil {
				return err
			}
			resolvers[s.version] = sr
		}
		pts := sp.batches[s.pool]
		dst := make([]core.Location, len(pts))
		var rbID, dlID int64
		rec.timed("resolve.batch", h, true, func(id int64) {
			rbID = id
			err = sr.ResolveBatch(context.Background(), pts, dst)
		})
		if err != nil {
			return err
		}
		u := 0
		if !snap.Network().IsUniform() {
			u = 1
		}
		l.dynLocDur[u] += rec.timed("dynamic.locate", rbID, true, func(id int64) {
			dlID = id
			for _, p := range pts {
				sink += int64(snap.Locate(p).Station)
			}
		})
		l.dynLocN[u] += int64(len(pts))
		if u == 1 {
			// Non-uniform epochs answer through the exact O(n^2) scan.
			net := snap.Network()
			l.heardDur += rec.timed("core.heardby", dlID, true, func(int64) {
				for _, p := range pts {
					i, _ := net.HeardBy(p)
					sink += int64(i)
				}
			})
			l.heardN += int64(len(pts))
		} else {
			tree := kdtree.New(snap.Network().Stations())
			l.nearestDur += rec.timed("kdtree.nearest", dlID, true, func(int64) {
				for _, p := range pts {
					i, _, _ := tree.Nearest(p)
					sink += int64(i)
				}
			})
			l.nearestN += int64(len(pts))
		}
	}
	l.shareBase = "served locate handler time of the replayed batches"
	return nil
}

// replayWrites applies the run's churn events, in the order the server
// took them, to a dynamic engine of its own, and repairs the previous
// served schedule the way the server does; both are timed as shadows of
// the PATCH and schedule handlers. It also builds each schedule afresh,
// the path a repair saves. It returns the engine's snapshot per version.
func (r *serveRun) replayWrites(l *layerStats, init writeRec, handler map[int64]int64) (map[uint64]*dynamic.Snapshot, error) {
	rec, sp := r.rec, r.sp
	net0, err := core.NewUniform(sp.writeStations, noise, beta)
	if err != nil {
		return nil, err
	}
	dyn, err := dynamic.New(net0)
	if err != nil {
		return nil, err
	}
	snaps := map[uint64]*dynamic.Snapshot{init.version: dyn.Snapshot()}
	prevLinks, _, err := sinrProblem(net0, 1)
	if err != nil {
		return nil, err
	}
	prev := init.sched
	for _, w := range r.writes {
		if w.reset != 0 {
			if dyn, err = dynamic.New(net0); err != nil {
				return nil, err
			}
			snaps[w.reset] = dyn.Snapshot()
		}
		var snap *dynamic.Snapshot
		d := rec.timed("dynamic.apply", handler[w.patchSpan], true, func(int64) {
			snap, err = dyn.Apply(engineDelta(sp.events[w.event]))
		})
		if err != nil {
			return nil, err
		}
		l.applyUs = append(l.applyUs, float64(d)/float64(time.Microsecond))
		l.epoch(snap)
		snaps[w.version] = snap
		links, p, err := sinrProblem(snap.Network(), 1)
		if err != nil {
			return nil, err
		}
		if w.schedValid {
			tentative := carryOver(prevLinks, prev.Slots, links)
			rec.timed("sched.repair", handler[w.schedSpan], true, func(int64) {
				_, _, err = sched.Repair(p, tentative, 1)
			})
			if err != nil {
				return nil, err
			}
			rec.timed("sched.build", 0, true, func(int64) {
				_, err = sched.BuildSchedule(sched.KindGreedy, p, sched.ByLength(links, true))
			})
			if err != nil {
				return nil, err
			}
			if w.sched.Repair != nil {
				l.repairKept += int64(w.sched.Repair.Kept)
				l.repairLinks += int64(w.sched.NumLinks)
			}
			prev, prevLinks = w.sched, links
		}
	}
	return snaps, nil
}

// finish turns the spans and counters of a traced run into the
// per-layer metrics, prints the self-time table and dumps the spans.
func (l *layerStats) finish(rep *report, rec *recorder, cfg config, log io.Writer) error {
	v := rep.values
	for _, d := range perLayer {
		v[d.name] = 0
	}
	p50 := func(name string, unit time.Duration) float64 { return median(scaled(rec.byName(name), unit)) }

	// serve: client, handler and wire time of each traced locate.
	byID := map[int64]span{}
	for _, s := range rec.spans {
		byID[s.ID] = s
	}
	var client, handler, wire []float64
	resolveOf := map[int64]time.Duration{}
	for _, s := range rec.spans {
		if s.Name == "resolve.batch" {
			resolveOf[s.Parent] += s.dur()
		}
	}
	var handlerSum, resolveSum time.Duration
	for _, s := range rec.spans {
		if s.Name != "serve.locate" {
			continue
		}
		c, ok := byID[s.Parent]
		if !ok {
			continue
		}
		client = append(client, millis(c.dur()))
		handler = append(handler, millis(s.dur()))
		wire = append(wire, millis(c.dur()-s.dur()))
		if rd, ok := resolveOf[s.ID]; ok {
			handlerSum += s.dur()
			resolveSum += rd
		}
	}
	if len(client) > 0 {
		v["serve.locate_handler_ms_p50"] = median(handler)
		v["serve.locate_wire_ms_p50"] = median(wire)
		v["serve.locate_unattributed_frac"] = frac(median(client)-median(handler)-median(wire), median(client))
		v["serve.bytes_per_point"] = l.bytesPerPoint
		v["serve.alloc_bytes_per_point"] = l.allocPerPoint
		v["serve.locator_builds"] = l.locatorBuilds
		fmt.Fprintf(log, "serve: %d traced locates, client p50 %.4f ms = handler p50 %.4f + wire p50 %.4f (+ unattributed %.4f)\n",
			len(client), median(client), median(handler), median(wire), median(client)-median(handler)-median(wire))
	}
	v["serve.patch_handler_ms_p50"] = p50("serve.patch", time.Millisecond)
	v["serve.schedule_handler_ms_p50"] = p50("serve.schedule", time.Millisecond)

	// resolve
	v["resolve.batch_us_p50"] = p50("resolve.batch", time.Microsecond)
	v["resolve.build_s"] = p50("resolve.build", time.Second)
	num, den := resolveSum.Seconds(), handlerSum.Seconds()
	if handlerSum == 0 { // library: no handler; the base is every library call
		num, den = l.shareNum, l.shareDen
	}
	v["resolve.batch_share"] = frac(num, den)
	fmt.Fprintf(log, "resolve.batch_share = %.3f s / %.3f s (base: %s)\n", num, den, l.shareBase)

	// core
	v["core.build_s"] = p50("core.build", time.Second)
	v["core.qds_build_s_p50"] = p50("core.qds_build", time.Second)
	qds := scaled(rec.byName("core.qds_build"), time.Second)
	v["core.qds_build_s_max"] = percentile(qds, 1)
	v["core.uncertain_cells"] = median(l.uncertainCells)
	classed := l.classN[0] + l.classN[1] + l.classN[2]
	for c, name := range []string{"hplus", "hminus", "huncertain"} {
		v["core.locate_ns_"+name] = frac(float64(l.classDur[c]), float64(l.classN[c]))
		v["core.share_"+name] = frac(float64(l.classN[c]), float64(classed))
	}
	v["core.resolve_uncertain_us"] = frac(float64(l.uncertainDur)/1e3, float64(l.classN[2]))
	v["core.heardby_us"] = frac(float64(l.heardDur+rep.heardDur)/1e3, float64(l.heardN+rep.heardN))

	// shardindex, kdtree
	v["shardindex.covers_miss_frac"] = frac(float64(l.coversMiss), float64(l.candN))
	v["shardindex.candidates_per_query"] = frac(float64(l.candSum), float64(l.candN))
	v["shardindex.candidates_ns"] = frac(float64(l.candDur), float64(l.candN))
	v["kdtree.nearest_ns"] = frac(float64(l.nearestDur), float64(l.nearestN))

	// dynamic
	v["dynamic.apply_us_p50"] = percentile(l.applyUs, 0.5)
	v["dynamic.apply_us_p90"] = percentile(l.applyUs, 0.9)
	v["dynamic.rebuild_frac"] = frac(float64(l.rebuilds), float64(l.applies))
	v["dynamic.locate_ns_uniform"] = frac(float64(l.dynLocDur[0]), float64(l.dynLocN[0]))
	v["dynamic.locate_ns_nonuniform"] = frac(float64(l.dynLocDur[1]), float64(l.dynLocN[1]))
	v["dynamic.nonuniform_epoch_frac"] = frac(float64(l.nonuniformEpochs), float64(l.applies))

	// sched
	v["sched.repair_ms_p50"] = p50("sched.repair", time.Millisecond)
	v["sched.build_ms_p50"] = p50("sched.build", time.Millisecond)
	v["sched.repair_kept_frac"] = frac(float64(l.repairKept), float64(l.repairLinks))

	v["runtime.gc_cycles"] = l.gcCycles
	v["runtime.gc_pause_ms_sum"] = l.gcPauseMs
	v["bench.trace_overhead_frac"] = l.overhead
	v["bench.locate_p99_ms"] = l.p99

	rec.printSelfTimes(log)
	if cfg.outDir != "" {
		path, err := rec.dump(cfg.outDir, cfg.workload, cfg.seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(log, "spans written to", path)
	}
	runtime.KeepAlive(sink)
	return nil
}
