package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	sinrdiag "repro"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// libNet is one network of the library workload's fixed sequence.
type libNet struct {
	stations []geom.Point
	net      *sinrdiag.Network
	batches  [][]geom.Point
	events   []workload.ChurnEvent
	segment  int // events per churn segment
}

func librarySpec(cfg config) ([]libNet, error) {
	sz := cfg.sz
	gen := workload.NewGenerator(cfg.seed)
	var nets []libNet
	for _, cols := range sz.libCols {
		stations, box := latticeNetwork(gen, 4, cols)
		net, err := sinrdiag.NewUniform(stations, noise, beta)
		if err != nil {
			return nil, err
		}
		ln := libNet{stations: stations, net: net}
		for b := 0; b < sz.libPool; b++ {
			ln.batches = append(ln.batches, queryBatch(gen, stations, box, sz.libBatch))
		}
		ln.events = churnEvents(gen, len(stations), sz.libSegs, sz.libDeltas, box)
		ln.segment = sz.libDeltas
		nets = append(nets, ln)
	}
	return nets, nil
}

// libSample is one verified library batch.
type libSample struct {
	net, batch int
	got        []int32
}

// libWrite is one library schedule answer, after event `event` of
// network `net`.
type libWrite struct {
	net, event, numLinks int
	slots                [][]int
}

// runLibrary walks the network sequence through the facade, as a
// library user would: build a locator resolver, answer the query
// batches, then apply churn deltas to a dynamic network and repair the
// schedule after each. It measures whole passes
// over the sequence until the window has elapsed.
func runLibrary(cfg config, log io.Writer) (*report, error) {
	sz := cfg.sz
	nets, err := librarySpec(cfg)
	if err != nil {
		return nil, err
	}
	// One worker: ResolveBatch splits a batch across the workers, and a
	// batch of about 0.1 ms waited on the slower half, which made the
	// locate rate range over 1.7x across runs whose builds agreed within
	// a few percent. The serial build takes twice as long, so eps is
	// 0.1 rather than the default 0.05 to keep a run's length.
	build := func(net *sinrdiag.Network) (sinrdiag.Resolver, error) {
		return sinrdiag.NewResolver(sinrdiag.ResolverLocator, net,
			sinrdiag.WithEpsilon(sz.libEps), sinrdiag.WithWorkers(1))
	}
	ctx := context.Background()
	rep := newReport()
	var setupS []float64
	var spent time.Duration
	dst := make([]core.Location, sz.libBatch)
	for moreSetups(cfg.trace, len(setupS), spent, sz) {
		t0 := time.Now()
		res, err := build(nets[0].net)
		if err == nil {
			err = res.ResolveBatch(ctx, nets[0].batches[0], dst[:len(nets[0].batches[0])])
		}
		rep.op("setup", err == nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(t0)
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var rec *recorder
	var l *layerStats
	if cfg.trace {
		rec = newRecorder(fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano()))
		l = &layerStats{}
	}
	var (
		buildS, lat, patchLat, schedLat []float64
		passRates                       []float64 // points per second inside ResolveBatch, per pass
		locDur                          time.Duration
		// Where each pass starts in buildS, lat, patchLat and schedLat.
		buildStart, latStart, patchStart, schedStart []int
		tracedDur, untDur                            time.Duration
		points, tracedN, untN, batchIdx              int64
		samples                                      []libSample
		writes                                       []libWrite
		last                                         sinrdiag.Resolver
		passes                                       int
	)
	runtime.GC() // collect the set-ups' garbage before the window, not in it
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for ; passes == 0 || time.Now().Before(deadline); passes++ {
		buildStart, latStart = append(buildStart, len(buildS)), append(latStart, len(lat))
		patchStart, schedStart = append(patchStart, len(patchLat)), append(schedStart, len(schedLat))
		var passLoc time.Duration
		var passPts int64
		for ni, nw := range nets {
			var res sinrdiag.Resolver
			var buildID int64
			var d time.Duration
			rec.timed("bench.build", 0, false, func(root int64) {
				d = rec.timed("resolve.build", root, false, func(id int64) {
					buildID = id
					res, err = build(nw.net)
				})
			})
			rep.op("build", err == nil)
			if err != nil {
				return nil, fmt.Errorf("building network %d: %w", ni, err)
			}
			buildS = append(buildS, d.Seconds())
			var lr *locatorReplay
			if rec != nil {
				loc := res.(*sinrdiag.LocatorResolver).Locator()
				lr = newLocatorReplay(loc)
				// Every build gets its core shadow, so resolve's self time
				// is its own; the per-station pass runs once.
				if err := replayCoreBuild(l, rec, nw.net, sz.libEps, 1, buildID, passes == 0 && ni == 0); err != nil {
					return nil, err
				}
			}
			for bi := 0; bi < sz.libBatches; bi++ {
				pool := bi % len(nw.batches)
				pts := nw.batches[pool]
				sample := sampled(cfg.seed, batchIdx, sz.sampleOne)
				traced := rec != nil && sample
				var rr *recorder
				if traced {
					rr = rec
				}
				var rbID int64
				rr.timed("bench.batch", 0, false, func(root int64) {
					d = rr.timed("resolve.batch", root, false, func(id int64) {
						rbID = id
						err = res.ResolveBatch(ctx, pts, dst[:len(pts)])
					})
				})
				rep.op("locate", err == nil)
				if err != nil {
					continue
				}
				lat = append(lat, millis(d))
				locDur += d
				passLoc += d
				points += int64(len(pts))
				passPts += int64(len(pts))
				if traced {
					tracedDur += d
					tracedN++
				} else {
					untDur += d
					untN++
				}
				if sample {
					samples = append(samples, libSample{net: ni, batch: pool, got: stationIndices(dst[:len(pts)])})
					if traced {
						if err := lr.batch(l, rec, nil, pts, rbID); err != nil {
							return nil, err
						}
					}
				}
				batchIdx++
			}
			wr, err := newLibWriter(nw, ni)
			if err != nil {
				return nil, err
			}
			for !wr.done {
				if err := wr.step(rep, rec, l, &patchLat, &schedLat, &writes); err != nil {
					return nil, err
				}
			}
			last = res
		}
		passRates = append(passRates, frac(float64(passPts), passLoc.Seconds()))
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	v := rep.values
	v["setup_s"] = median(setupS)
	// Every pass does the same work, so each figure is taken per pass
	// and averaged over the passes: a pass's median build is that of the
	// same network every time, where a median over all builds jumps
	// between network sizes as the machine's speed drifts.
	v["build_p50_s"] = groupPercentile(buildS, buildStart, 0.50)
	v["locate_pts_per_s"] = trimmedMean(passRates)
	v["locate_p50_ms"] = groupPercentile(lat, latStart, 0.50)
	v["locate_p90_ms"] = groupPercentile(lat, latStart, 0.90)
	v["patch_p50_ms"] = groupPercentile(patchLat, patchStart, 0.50)
	v["patch_p90_ms"] = groupPercentile(patchLat, patchStart, 0.90)
	v["schedule_p50_ms"] = groupPercentile(schedLat, schedStart, 0.50)
	withLast := heapLiveMB()
	runtime.KeepAlive(last)
	last = nil
	v["heap_live_mb"] = withLast - heapLiveMB()
	runtime.KeepAlive(lat) // the run's records count in neither reading
	runtime.KeepAlive(patchLat)
	runtime.KeepAlive(schedLat)
	fmt.Fprintf(log, "library: %d pass(es) over %d networks in %.2fs: %d builds, %d batches (%d points), %d deltas\n",
		passes, len(nets), wall.Seconds(), len(buildS), len(lat), points, len(patchLat))

	verifyLibrary(rep, rec, nets, samples, writes)
	if cfg.trace {
		l.p99 = steadyPercentile(lat, 0.99)
		l.gcCycles = float64(after.NumGC - before.NumGC)
		l.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		l.overhead = frac(float64(tracedDur)/float64(max(tracedN, 1)), float64(untDur)/float64(max(untN, 1))) - 1
		// The base is the time of every library call, not of the replays.
		calls := locDur.Seconds()
		for _, x := range buildS {
			calls += x
		}
		for _, ms := range append(patchLat, schedLat...) {
			calls += ms / 1e3
		}
		l.shareNum, l.shareDen = locDur.Seconds(), calls
		l.shareBase = "every library call: builds, batches, deltas, schedule repairs"
		if err := l.finish(rep, rec, cfg, log); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// libWriter applies one network's churn deltas to a dynamic network,
// one at a time, and after each repairs the previous schedule of the
// derived links.
type libWriter struct {
	nw    libNet
	ni    int
	dyn   *sinrdiag.DynamicNetwork
	links []sinrdiag.Link
	p     *sinrdiag.SINRScheduling
	cur   *sinrdiag.Schedule
	next  int  // index of the next event
	done  bool // every event applied, or one failed
}

func newLibWriter(nw libNet, ni int) (*libWriter, error) {
	w := &libWriter{nw: nw, ni: ni, done: len(nw.events) == 0}
	return w, w.reset()
}

// reset starts a churn segment: a dynamic network of the original
// stations and their greedy schedule. It is not timed.
func (w *libWriter) reset() error {
	var err error
	if w.dyn, err = sinrdiag.NewDynamicNetwork(w.nw.net); err != nil {
		return err
	}
	if w.links, w.p, err = sinrProblem(w.nw.net, 1); err != nil {
		return err
	}
	w.cur, err = sinrdiag.BuildSchedule(sinrdiag.SchedGreedy, w.p, sinrdiag.ByLength(w.links, true))
	return err
}

// step applies the next delta and repairs the schedule. A failed apply
// or repair is counted and ends the network's writes: the deltas after
// it index a station set that no longer matches.
func (w *libWriter) step(rep *report, rec *recorder, l *layerStats, patchLat, schedLat *[]float64, writes *[]libWrite) error {
	k := w.next
	ev := w.nw.events[k]
	w.next++
	w.done = w.next == len(w.nw.events)
	if k > 0 && k%w.nw.segment == 0 {
		if err := w.reset(); err != nil {
			return err
		}
	}
	var snap *sinrdiag.DynamicSnapshot
	var d time.Duration
	var err error
	rec.timed("bench.patch", 0, false, func(root int64) {
		d = rec.timed("dynamic.apply", root, false, func(int64) { snap, err = w.dyn.Apply(engineDelta(ev)) })
	})
	rep.op("patch", err == nil)
	if err != nil {
		w.done = true
		return nil
	}
	*patchLat = append(*patchLat, millis(d))
	if l != nil {
		l.applyUs = append(l.applyUs, float64(d)/float64(time.Microsecond))
		l.epoch(snap)
	}
	var next *sinrdiag.Schedule
	var stats sinrdiag.RepairStats
	var newLinks []sinrdiag.Link
	rec.timed("bench.schedule", 0, false, func(root int64) {
		d = rec.timed("sched.repair", root, false, func(int64) {
			var np *sinrdiag.SINRScheduling
			if newLinks, np, err = sinrProblem(snap.Network(), 1); err == nil {
				next, stats, err = sinrdiag.RepairSchedule(np, carryOver(w.links, w.cur.Slots, newLinks), 1)
				w.p = np
			}
		})
	})
	rep.op("schedule", err == nil)
	if err != nil {
		w.done = true
		return nil
	}
	*schedLat = append(*schedLat, millis(d))
	*writes = append(*writes, libWrite{net: w.ni, event: k, numLinks: len(newLinks), slots: next.Slots})
	if rec != nil {
		l.repairKept += int64(stats.Kept)
		l.repairLinks += int64(len(newLinks))
		rec.timed("sched.build", 0, true, func(int64) {
			_, err = sinrdiag.BuildSchedule(sinrdiag.SchedGreedy, w.p, sinrdiag.ByLength(newLinks, true))
		})
		if err != nil {
			return err
		}
	}
	w.links, w.cur = newLinks, next
	return nil
}

// verifyLibrary checks the sampled answers against Network.HeardBy and
// every repaired schedule against the verifier's own mirror of each
// network's churned station set.
func verifyLibrary(rep *report, rec *recorder, nets []libNet, samples []libSample, writes []libWrite) {
	for _, s := range samples {
		nw := nets[s.net]
		checkAnswers(rep, rec, fmt.Sprintf("library net %d batch %d", s.net, s.batch), nw.net, nw.batches[s.batch], s.got)
	}
	mirrors := map[int]*mirror{}
	applied := map[int]int{}
	for _, w := range writes {
		nw := nets[w.net]
		if applied[w.net] > w.event {
			applied[w.net] = 0 // a new pass over the sequence
		}
		for ; applied[w.net] <= w.event; applied[w.net]++ {
			e := applied[w.net]
			if e%nw.segment == 0 {
				// Every segment starts from the original stations.
				mirrors[w.net] = newMirror(nw.stations)
			}
			mirrors[w.net].apply(nw.events[e])
		}
		m := mirrors[w.net]
		net, err := m.network()
		if err != nil {
			rep.mismatch("library net %d event %d: mirror network: %v", w.net, w.event, err)
			continue
		}
		checkSchedule(rep, fmt.Sprintf("library net %d event %d", w.net, w.event), net, w.numLinks, w.slots)
	}
}
