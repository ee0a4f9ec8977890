package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/workload"
)

// spanHeader carries the client span id of a traced request, so the
// handler span recorded around the server can name its parent.
const spanHeader = "Bench-Span"

// serveSpec is one served workload: locate batches against one network
// and PATCH + schedule pairs against another (or the same) one.
type serveSpec struct {
	readName, readKind string
	readStations       []geom.Point
	readNet            *core.Network
	batches            [][]geom.Point
	bodies             [][]byte

	writeName     string
	writeStations []geom.Point
	resetBody     []byte // re-registers the write network's original stations
	events        []workload.ChurnEvent
	eventBodies   [][]byte
	segment       int // events between resets
	writeEvery    int
	eps           float64 // locator eps of the read network; 0 for dynamic

	// A dynamic read network also has a probe copy of its original
	// stations, registered again every buildEvery batches to time the
	// build (nil for a locator read network, whose build takes seconds).
	probeReg, probeLocate []byte
}

// serveLocateSpec: steady /v1/locate batches against a static
// locator-backed network. The write pairs go to a second, small
// dynamic-backed network on the same server, so the read network
// stays static (exactly one locator build) while the run still
// measures write latency under read load.
func serveLocateSpec(cfg config) (serveSpec, error) {
	sz := cfg.sz
	gen := workload.NewGenerator(cfg.seed)
	stations, box := latticeNetwork(gen, sz.locateRows, sz.locateCols)
	ctl, ctlBox := latticeNetwork(gen, sz.ctlRows, sz.ctlCols)
	sp := serveSpec{
		readName: "locate", readKind: "locator", readStations: stations, eps: sz.eps,
		writeName: "ctl", writeStations: ctl, writeEvery: sz.ctlEvery,
	}
	return sp, sp.fill(gen, box, ctlBox, sz)
}

// serveChurnSpec: small locate batches on a dynamic-backed network
// that also takes every PATCH + schedule pair.
func serveChurnSpec(cfg config) (serveSpec, error) {
	sz := cfg.sz
	gen := workload.NewGenerator(cfg.seed)
	stations, box := latticeNetwork(gen, sz.churnRows, sz.churnCols)
	sp := serveSpec{
		readName: "churn", readKind: "dynamic", readStations: stations,
		writeName: "churn", writeStations: stations, writeEvery: sz.churnEvery,
	}
	return sp, sp.fill(gen, box, box, sz)
}

// probeName names the network a dynamic workload re-registers to time
// builds.
const probeName = "probe"

// maxSegments bounds the churn trace a serve run can consume; a run that
// exhausts it stops writing.
const maxSegments = 512

func (sp *serveSpec) fill(gen *workload.Generator, box, writeBox geom.Box, sz sizes) error {
	batch := sz.locateBatch
	if sp.readKind == "dynamic" {
		batch = sz.churnBatch
	}
	net, err := core.NewUniform(sp.readStations, noise, beta)
	if err != nil {
		return err
	}
	sp.readNet = net
	for i := 0; i < sz.poolBatches; i++ {
		pts := queryBatch(gen, sp.readStations, box, batch)
		req := serve.LocateRequest{Network: sp.readName, Resolver: sp.readKind, Eps: sp.eps,
			Points: make([]serve.PointJSON, len(pts))}
		for j, p := range pts {
			req.Points[j] = serve.PointJSON{X: p.X, Y: p.Y}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		sp.batches = append(sp.batches, pts)
		sp.bodies = append(sp.bodies, body)
	}
	if sp.readKind == "dynamic" {
		if sp.probeReg, err = json.Marshal(specFor(probeName, "dynamic", sp.readStations)); err != nil {
			return err
		}
		var req serve.LocateRequest
		if err := json.Unmarshal(sp.bodies[0], &req); err != nil {
			return err
		}
		req.Network = probeName
		if sp.probeLocate, err = json.Marshal(req); err != nil {
			return err
		}
	}
	sp.segment = sz.segment
	sp.events = churnEvents(gen, len(sp.writeStations), maxSegments, sz.segment, writeBox)
	sp.resetBody, err = json.Marshal(specFor(sp.writeName, "dynamic", sp.writeStations))
	if err != nil {
		return err
	}
	for _, ev := range sp.events {
		body, err := json.Marshal(wireDelta(ev))
		if err != nil {
			return err
		}
		sp.eventBodies = append(sp.eventBodies, body)
	}
	return nil
}

// tap wraps the server's handler and, for traced requests, records the
// handler's span as a child of the client's.
type tap struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := t.rec.Load()
	parent := r.Header.Get(spanHeader)
	if rec == nil || parent == "" {
		t.next.ServeHTTP(w, r)
		return
	}
	pid, _ := strconv.ParseInt(parent, 10, 64) // the benchmark's own header; 0 if garbled
	start := time.Now()
	t.next.ServeHTTP(w, r)
	rec.add(rec.newID(), pid, "serve."+routeOf(r), start, time.Now(), false)
}

func routeOf(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/locate":
		return "locate"
	case strings.HasSuffix(r.URL.Path, "/schedule"):
		return "schedule"
	case r.Method == http.MethodPatch:
		return "patch"
	default:
		return "other"
	}
}

// harness is one in-process server on a loopback listener plus the
// client that drives it.
type harness struct {
	srv    *serve.Server
	tap    *tap
	hs     *http.Server
	done   chan struct{}
	conns  sync.WaitGroup // connections the server has not closed yet
	base   string
	client *http.Client
}

func startHarness() (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Options{})
	h := &harness{srv: srv, tap: &tap{next: srv}, done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	h.hs = &http.Server{Handler: h.tap, ConnState: func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			h.conns.Add(1)
		case http.StateClosed, http.StateHijacked:
			h.conns.Done()
		}
	}}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	h.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	return h, nil
}

// close stops the server and waits for its goroutines to finish with
// it: http.Server.Close does not wait for the connections it closes,
// and one still being torn down keeps the whole server reachable,
// which heap_live_mb would then not count.
func (h *harness) close() {
	h.client.CloseIdleConnections()
	_ = h.hs.Close() // closing a listener already closed is harmless
	<-h.done
	h.conns.Wait()
}

// do sends one request and reads the whole response into buf. A
// non-2xx status is returned as an error.
func (h *harness) do(method, path string, body []byte, spanID int64, buf *bytes.Buffer) error {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// doJSON sends v as JSON and decodes the reply into out.
func (h *harness) doJSON(method, path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := h.do(method, path, body, 0, &buf); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// locateSample is one verified locate batch.
type locateSample struct {
	pool       int
	version    uint64
	got        []int32
	traced     bool
	clientSpan int64
}

// writeRec is one PATCH + schedule pair, preceded at the start of each
// churn segment by a re-registration of the original stations.
type writeRec struct {
	event      int
	reset      uint64 // version the re-registration answered; 0 = none
	version    uint64
	epoch      uint64
	patchSpan  int64 // client span ids; 0 when untraced
	schedSpan  int64
	sched      serve.ScheduleResponse
	schedValid bool
}

// serveRun is the state of one measured window. The benchmark drives
// the server over one connection in a closed loop, sending the next
// request only after the previous answer arrived, as sinrload's callers
// do. One connection, not one per core: a batch already runs on both
// cores of the reference machine through the server's batch workers,
// and with two connections whether their batches overlapped decided the
// latency, which then changed by half from run to run.
type serveRun struct {
	sp   *serveSpec
	h    *harness
	rec  *recorder
	seed int64
	sz   sizes

	// Locate batches.
	lat               []float64      // ms per batch
	spans             [][2]time.Time // send and answer time of each batch
	points, bytes     int64
	ok, failed        int64
	samples           []locateSample
	tracedDur, untDur time.Duration // latency sums for the trace-overhead ratio
	tracedN, untN     int64
	firstErr          error

	// Registrations of the probe network inside the window, each timed
	// to the answer of its first locate batch.
	builds      []float64 // s
	buildFailed int64
	probes      []locateSample

	// PATCH + schedule pairs.
	evIdx              int
	writes             []writeRec
	patchLat, schedLat []float64
	writeFail          []string // op kinds of failed writes
}

// served is one set-up server: its harness, the set-up time, the build
// time (registration to first answered batch), the read network's
// version and the write network's initial schedule.
type served struct {
	h            *harness
	setup, build time.Duration
	readVer      uint64
	init         writeRec
}

// setupServe boots a server, registers the workload's networks and
// answers the first locate batch and the first schedule.
func setupServe(sp *serveSpec) (served, error) {
	var out served
	t0 := time.Now()
	h, err := startHarness()
	if err != nil {
		return out, err
	}
	fail := func(err error) (served, error) {
		h.close()
		return served{}, err
	}
	tb := time.Now()
	var reg serve.NetworkResponse
	if err := h.doJSON(http.MethodPost, "/v1/networks", specFor(sp.readName, sp.readKind, sp.readStations), &reg); err != nil {
		return fail(fmt.Errorf("registering %s: %w", sp.readName, err))
	}
	var buf bytes.Buffer
	if err := h.do(http.MethodPost, "/v1/locate", sp.bodies[0], 0, &buf); err != nil {
		return fail(fmt.Errorf("first locate: %w", err))
	}
	out.build = time.Since(tb)
	out.readVer, out.init.version = reg.Version, reg.Version
	if sp.writeName != sp.readName {
		if err := h.doJSON(http.MethodPost, "/v1/networks", specFor(sp.writeName, "dynamic", sp.writeStations), &reg); err != nil {
			return fail(fmt.Errorf("registering %s: %w", sp.writeName, err))
		}
		out.init.version = reg.Version
	}
	if err := h.doJSON(http.MethodPost, "/v1/networks/"+sp.writeName+"/schedule",
		serve.ScheduleRequest{Scheduler: "greedy"}, &out.init.sched); err != nil {
		return fail(fmt.Errorf("first schedule: %w", err))
	}
	out.init.schedValid = true
	out.h, out.setup = h, time.Since(t0)
	return out, nil
}

func runServe(cfg config, log io.Writer, sp serveSpec) (*report, error) {
	sz := cfg.sz
	rep := newReport()
	var sv served
	var setupS, buildS []float64
	var spent time.Duration
	for moreSetups(cfg.trace, len(setupS), spent, sz) {
		if sv.h != nil {
			sv.h.close()
		}
		var err error
		sv, err = setupServe(&sp)
		rep.op("setup", err == nil)
		if err != nil {
			return nil, err
		}
		spent += sv.setup
		setupS = append(setupS, sv.setup.Seconds())
		buildS = append(buildS, sv.build.Seconds())
	}
	r := &serveRun{sp: &sp, h: sv.h, seed: cfg.seed, sz: sz}
	err := r.measure(cfg, log, rep, sv, setupS, buildS)
	if r.h != nil {
		r.h.close()
	}
	return rep, err
}

// measure runs the window against the set-up server, then verifies the
// answers and, on a traced run, replays the layers and reports them.
// An untraced run closes the server itself, to weigh its heap.
func (r *serveRun) measure(cfg config, log io.Writer, rep *report, sv served, setupS, buildS []float64) error {
	h := r.h
	if cfg.trace {
		r.rec = newRecorder(fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano()))
		h.tap.rec.Store(r.rec)
	}
	runtime.GC() // collect the set-ups' garbage before the window, not in it
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	r.loop(start.Add(time.Duration(cfg.seconds * float64(time.Second))))
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	h.tap.rec.Store(nil)

	rep.count("locate", r.ok+r.failed, r.failed)
	rep.count("build", int64(len(r.builds))+r.buildFailed, r.buildFailed)
	if r.firstErr != nil {
		fmt.Fprintln(log, "locate failure:", r.firstErr)
	}
	for _, w := range r.writes {
		rep.op("patch", true)
		rep.op("schedule", w.schedValid)
		if w.reset != 0 {
			rep.op("reset", true)
		}
	}
	for _, kind := range r.writeFail {
		rep.op(kind, false)
	}
	v := rep.values
	v["setup_s"] = median(setupS)
	v["build_p50_s"] = median(buildS)
	if len(r.builds) > 0 {
		// Spread over the window, these average over the machine's
		// drift, where the set-ups all fall in its first second.
		v["build_p50_s"] = steadyPercentile(r.builds, 0.50)
	}
	v["locate_pts_per_s"] = steadyRate(r.spans, start, wall, len(r.sp.batches[0]))
	v["locate_p50_ms"] = steadyPercentile(r.lat, 0.50)
	v["locate_p90_ms"] = steadyPercentile(r.lat, 0.90)
	v["patch_p50_ms"] = steadyPercentile(r.patchLat, 0.50)
	v["patch_p90_ms"] = steadyPercentile(r.patchLat, 0.90)
	v["schedule_p50_ms"] = steadyPercentile(r.schedLat, 0.50)
	withServer := heapLiveMB()
	fmt.Fprintf(log, "%s: %d locate batches (%d points) in %.2fs, %d PATCH + schedule pairs, %d probe builds, %d setups\n",
		cfg.workload, len(r.lat), r.points, wall.Seconds(), len(r.writes), len(r.builds), len(setupS))

	r.verify(rep, sv, r.samples)
	if !cfg.trace {
		h.close()
		r.h = nil
		// The smallest of a few readings: a goroutine the server left
		// still exiting keeps the whole server reachable for a moment.
		without := heapLiveMB()
		for i := 0; i < 2; i++ {
			runtime.Gosched()
			without = min(without, heapLiveMB())
		}
		v["heap_live_mb"] = withServer - without
		runtime.KeepAlive(r) // the run's records count in neither reading
		return nil
	}
	l := &layerStats{}
	l.p99 = steadyPercentile(r.lat, 0.99)
	l.gcCycles = float64(after.NumGC - before.NumGC)
	l.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	l.allocPerPoint = frac(float64(after.TotalAlloc-before.TotalAlloc), float64(r.points))
	l.bytesPerPoint = frac(float64(r.bytes), float64(r.points))
	l.locatorBuilds = float64(h.srv.LocatorBuilds())
	l.overhead = frac(float64(r.tracedDur)/float64(max(r.tracedN, 1)), float64(r.untDur)/float64(max(r.untN, 1))) - 1
	if err := r.replay(l, sv.init, r.samples); err != nil {
		return err
	}
	return l.finish(rep, r.rec, cfg, log)
}

// loop sends locate batches until the deadline, and after every
// writeEvery-th batch one PATCH + schedule pair.
func (r *serveRun) loop(deadline time.Time) {
	sp := r.sp
	var buf bytes.Buffer
	for b := int64(0); time.Now().Before(deadline); b++ {
		pool := int(b % int64(len(sp.bodies)))
		sample := sampled(r.seed, b, r.sz.sampleOne)
		traced := r.rec != nil && sample
		var cspan int64
		if traced {
			cspan = r.rec.newID()
		}
		t0 := time.Now()
		err := r.h.do(http.MethodPost, "/v1/locate", sp.bodies[pool], cspan, &buf)
		t1 := time.Now()
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		} else {
			d := t1.Sub(t0)
			if traced {
				r.rec.add(cspan, 0, "bench.locate", t0, t1, false)
				r.tracedDur += d
				r.tracedN++
			} else {
				r.untDur += d
				r.untN++
			}
			r.ok++
			r.lat = append(r.lat, millis(d))
			r.spans = append(r.spans, [2]time.Time{t0, t1})
			r.points += int64(len(sp.batches[pool]))
			r.bytes += int64(len(sp.bodies[pool]) + buf.Len())
			if sample {
				r.samples = append(r.samples, decodeSample(buf.Bytes(), pool, traced, cspan))
			}
		}
		if b%int64(sp.writeEvery) == int64(sp.writeEvery)-1 {
			r.write()
		}
		if sp.probeReg != nil && b%int64(r.sz.buildEvery) == int64(r.sz.buildEvery)/2 {
			r.build()
		}
	}
}

// decodeSample keeps a sampled batch's answers for verification. A
// body that does not decode keeps no answers, which verification then
// reports.
func decodeSample(body []byte, pool int, traced bool, cspan int64) locateSample {
	s := locateSample{pool: pool, traced: traced, clientSpan: cspan}
	var resp serve.LocateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return s
	}
	s.version = resp.Version
	s.got = make([]int32, len(resp.Results))
	for i, res := range resp.Results {
		s.got[i] = int32(res.Station)
	}
	return s
}

// write sends the next churn event as a PATCH, then asks for the
// network's schedule, which the server repairs from its cached one.
func (r *serveRun) write() {
	sp := r.sp
	if r.evIdx >= len(sp.events) {
		return
	}
	w := writeRec{event: r.evIdx}
	r.evIdx++
	traced := r.rec != nil
	if traced {
		w.patchSpan, w.schedSpan = r.rec.newID(), r.rec.newID()
	}
	var buf bytes.Buffer
	if w.event > 0 && w.event%sp.segment == 0 {
		var reg serve.NetworkResponse
		err := r.h.do(http.MethodPost, "/v1/networks", sp.resetBody, 0, &buf)
		if err == nil {
			err = json.Unmarshal(buf.Bytes(), &reg)
		}
		if err != nil {
			// The verifier can no longer tell which stations the
			// server holds, so the run stops writing.
			r.writeFail = append(r.writeFail, "reset")
			r.evIdx = len(sp.events)
			return
		}
		w.reset = reg.Version
	}
	t0 := time.Now()
	err := r.h.do(http.MethodPatch, "/v1/networks/"+sp.writeName, sp.eventBodies[w.event], w.patchSpan, &buf)
	t1 := time.Now()
	if err != nil {
		// The server rejected or never saw the delta; its station set
		// is unchanged, so the mirror skips the event too.
		r.writeFail = append(r.writeFail, "patch")
		return
	}
	if traced {
		r.rec.add(w.patchSpan, 0, "bench.patch", t0, t1, false)
	}
	r.patchLat = append(r.patchLat, millis(t1.Sub(t0)))
	var pr serve.NetworkResponse
	if err := json.Unmarshal(buf.Bytes(), &pr); err != nil {
		r.writeFail = append(r.writeFail, "patch")
		return
	}
	w.version, w.epoch = pr.Version, pr.Epoch

	body := []byte(`{"scheduler":"greedy"}`)
	t0 = time.Now()
	err = r.h.do(http.MethodPost, "/v1/networks/"+sp.writeName+"/schedule", body, w.schedSpan, &buf)
	t1 = time.Now()
	if err == nil {
		if traced {
			r.rec.add(w.schedSpan, 0, "bench.schedule", t0, t1, false)
		}
		r.schedLat = append(r.schedLat, millis(t1.Sub(t0)))
		w.schedValid = json.Unmarshal(buf.Bytes(), &w.sched) == nil
	}
	r.writes = append(r.writes, w)
}

// build registers the probe network again (a hot swap) and answers its
// first locate batch, and records the time from registration to
// answer. The answer is always verified; it counts in no locate metric.
func (r *serveRun) build() {
	sp := r.sp
	var buf bytes.Buffer
	t0 := time.Now()
	err := r.h.do(http.MethodPost, "/v1/networks", sp.probeReg, 0, &buf)
	if err == nil {
		err = r.h.do(http.MethodPost, "/v1/locate", sp.probeLocate, 0, &buf)
	}
	if err != nil {
		r.buildFailed++
		return
	}
	r.builds = append(r.builds, time.Since(t0).Seconds())
	r.probes = append(r.probes, decodeSample(buf.Bytes(), 0, false, 0))
}

// verify checks every sampled locate answer against Network.HeardBy of
// the generation the response names, and every schedule answer against
// a feasibility engine built from the verifier's own mirror of the
// churned station set.
func (r *serveRun) verify(rep *report, sv served, samples []locateSample) {
	sp := r.sp
	init := sv.init
	m := newMirror(sp.writeStations)
	nets := map[uint64]*core.Network{}
	net0, err := m.network()
	if err != nil {
		rep.mismatch("mirror network: %v", err)
		return
	}
	nets[init.version] = net0
	checkSchedule(rep, describeVersion(sp.writeName, init.version), net0, init.sched.NumLinks, init.sched.Slots)
	// Registration is epoch 1 of the write network's dynamic engine;
	// every accepted PATCH advances version and epoch by one.
	prev, prevEpoch := init.version, uint64(1)
	for _, w := range r.writes {
		if w.reset != 0 {
			if w.reset != prev+1 {
				rep.mismatch("%s: re-registration after version %d answered version %d", sp.writeName, prev, w.reset)
			}
			m = newMirror(sp.writeStations)
			nets[w.reset] = net0
			prev, prevEpoch = w.reset, 1
		}
		m.apply(sp.events[w.event])
		what := describeVersion(sp.writeName, w.version)
		if w.version != prev+1 || w.epoch != prevEpoch+1 {
			rep.mismatch("%s: PATCH after version %d (epoch %d) answered version %d (epoch %d)", what, prev, prevEpoch, w.version, w.epoch)
		}
		prev, prevEpoch = w.version, w.epoch
		net, err := m.network()
		if err != nil {
			rep.mismatch("%s: mirror network: %v", what, err)
			continue
		}
		nets[w.version] = net
		if !w.schedValid {
			continue
		}
		if w.sched.Version != w.version {
			rep.mismatch("%s: schedule answered for version %d", what, w.sched.Version)
			continue
		}
		checkSchedule(rep, what, net, w.sched.NumLinks, w.sched.Slots)
	}
	// Every probe answers the same batch on the same stations: the first
	// is checked against HeardBy, the others against the first.
	for i, s := range r.probes {
		what := fmt.Sprintf("%s build %d", probeName, i)
		if i == 0 {
			checkAnswers(rep, r.rec, what, sp.readNet, sp.batches[0], s.got)
		} else if !slices.Equal(s.got, r.probes[0].got) {
			rep.mismatch("%s: answers differ from the first build's", what)
		}
	}
	for _, s := range samples {
		net := sp.readNet
		if sp.readName == sp.writeName {
			net = nets[s.version]
		} else if s.version != sv.readVer {
			net = nil
		}
		what := describeVersion(sp.readName, s.version)
		if net == nil {
			rep.mismatch("%s: locate answered from a version no write produced", what)
			continue
		}
		checkAnswers(rep, r.rec, what, net, sp.batches[s.pool], s.got)
	}
}
