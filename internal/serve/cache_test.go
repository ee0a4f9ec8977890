package serve

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/resolve"
	"repro/internal/sched"
)

func deleteNetwork(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/networks/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete %s: %s", name, resp.Status)
	}
}

// TestDeleteDuringResolverBuildNeverAnswersNamesake: a locator build in
// flight across DELETE finishes after the name is re-created with other
// stations. Its result belongs to the dead registry slot, so every
// answer for the namesake must come from the new stations.
func TestDeleteDuringResolverBuildNeverAnswersNamesake(t *testing.T) {
	const eps = 0.3
	srv := NewServer(Options{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postJSON(t, ts, "/v1/networks", registerReq("reborn", testStations(t, 24, 7), 0.01, 3)).Body.Close()
	entry, ok := srv.entryFor("reborn")
	if !ok {
		t.Fatal("network not registered")
	}
	old := entry.snap.Load()

	// Block the old generation's locator build inside the cache, keyed
	// exactly as resolverFor keys it.
	key := resolverKey{slot: entry, version: old.version, kind: resolve.KindLocator, eps: eps}
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		_, _, err := srv.resolvers.get(key, nil, func(resolve.Resolver) (resolve.Resolver, error) {
			close(started)
			<-release
			return resolve.New(resolve.KindLocator, old.net, resolve.WithEpsilon(eps), resolve.WithWorkers(1))
		})
		done <- err
	}()
	<-started
	deleteNetwork(t, ts, "reborn")
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	stations := testStations(t, 24, 8)
	postJSON(t, ts, "/v1/networks", registerReq("reborn", stations, 0.01, 3)).Body.Close()
	net, err := core.NewUniform(stations, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := LocateRequest{Network: "reborn", Resolver: "locator", Eps: eps}
	for _, p := range stations {
		req.Points = append(req.Points, PointJSON{X: p.X, Y: p.Y})
	}
	got := decodeJSON[LocateResponse](t, postJSON(t, ts, "/v1/locate", req))
	if got.Version != 1 || got.Resolver != "locator" || len(got.Results) != len(stations) {
		t.Fatalf("locate reply = version %d, resolver %s, %d results", got.Version, got.Resolver, len(got.Results))
	}
	wrong := 0
	for i, p := range stations {
		want := NoStationHeard
		if idx, ok := net.HeardBy(geom.Pt(p.X, p.Y)); ok {
			want = idx
		}
		if got.Results[i].Station != want {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d/%d answers disagree with the re-created network's HeardBy", wrong, len(stations))
	}
}

// TestDeleteThenScheduleNeverAnswersNamesake: a schedule request that
// resolved the registry entry before DELETE runs its cache get after
// it. The re-created name, at version 1 again with another station
// count, must get its own schedule, not the dead network's.
func TestDeleteThenScheduleNeverAnswersNamesake(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postJSON(t, ts, "/v1/networks", registerReq("reborn", testStations(t, 12, 70), 0.001, 2)).Body.Close()
	entry, ok := srv.entryFor("reborn")
	if !ok {
		t.Fatal("network not registered")
	}
	key := schedKey{slot: entry, kind: sched.KindGreedy, model: "sinr", order: "short", linkLen: 1}

	deleteNetwork(t, ts, "reborn")
	res, _, err := srv.scheduleFor(key, entry.snap.Load().version)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.links) != 12 {
		t.Fatalf("dead network's schedule has %d links, want 12", len(res.links))
	}

	postJSON(t, ts, "/v1/networks", registerReq("reborn", testStations(t, 20, 71), 0.001, 2)).Body.Close()
	got := decodeJSON[ScheduleResponse](t, postJSON(t, ts, scheduleURL("reborn"), ScheduleRequest{}))
	if got.NumLinks != 20 || got.Path == "cached" || got.Version != 1 {
		t.Fatalf("re-created network answered num_links %d, path %s, version %d; want 20 links, not cached, version 1",
			got.NumLinks, got.Path, got.Version)
	}
}

// TestScheduleInFlightSurvivesEviction: with room for one schedule, a
// second distinct key completing while the first still builds must not
// evict the in-flight build — a request for the first key joins it
// instead of starting a second build of the most expensive request the
// server takes.
func TestScheduleInFlightSurvivesEviction(t *testing.T) {
	srv := NewServer(Options{MaxSchedules: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postJSON(t, ts, "/v1/networks", registerReq("tight", testStations(t, 16, 72), 0.001, 2)).Body.Close()
	entry, ok := srv.entryFor("tight")
	if !ok {
		t.Fatal("network not registered")
	}
	// The key a default (greedy) request normalizes to.
	key := schedKey{slot: entry, kind: sched.KindGreedy, model: "sinr", order: "short", linkLen: 1}
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		_, _, err := srv.schedules.get(key, nil, func(prev *schedResult) (*schedResult, error) {
			close(started)
			<-release
			return buildSchedule(key, entry.snap.Load(), prev)
		})
		done <- err
	}()
	<-started

	other := decodeJSON[ScheduleResponse](t, postJSON(t, ts, scheduleURL("tight"), ScheduleRequest{Scheduler: "lenclass"}))
	if other.Path != "computed" {
		t.Fatalf("lenclass path = %s, want computed", other.Path)
	}
	joined := make(chan *http.Response)
	go func() {
		resp, err := ts.Client().Post(ts.URL+scheduleURL("tight"), "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Error(err)
		}
		joined <- resp
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	resp := <-joined
	if resp == nil {
		t.FailNow()
	}
	if got := decodeJSON[ScheduleResponse](t, resp); got.Path != "cached" || got.NumLinks != 16 {
		t.Fatalf("greedy request: path %s, num_links %d; want cached, 16", got.Path, got.NumLinks)
	}
	if builds := srv.schedules.builds.Load(); builds != 2 {
		t.Fatalf("schedule builds = %d, want 2 (the in-flight greedy build was evicted and rebuilt)", builds)
	}
}

// tkey is a concurrency-test cache key: slot k of tslots.
type tkey int

var tslots [16]netEntry

func (k tkey) slotVersion() (*netEntry, uint64) { return &tslots[k], 0 }

// cval is a concurrency-test cache value: the key it was built for and
// the key's drop sequence number when its build began.
type cval struct{ key, seq int }

// buildLog counts a test cache's builds per key and reports two builds
// of one key in flight at once.
type buildLog struct {
	mu       sync.Mutex
	inflight map[int]int
	total    map[int]int
	overlaps atomic.Int64
}

func newBuildLog() *buildLog {
	return &buildLog{inflight: make(map[int]int), total: make(map[int]int)}
}

// begin records a build of key starting and returns its ordinal among
// the key's builds (1 for the first).
func (l *buildLog) begin(key int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inflight[key]++
	if l.inflight[key] > 1 {
		l.overlaps.Add(1)
	}
	l.total[key]++
	return l.total[key]
}

func (l *buildLog) end(key int) {
	l.mu.Lock()
	l.inflight[key]--
	l.mu.Unlock()
}

// hammer runs workers goroutines released together, each making gets
// calls of get(worker, i).
func hammer(workers, gets int, get func(worker, i int)) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < gets; i++ {
				get(w, i)
			}
		}()
	}
	close(start)
	wg.Wait()
}

var errBoom = errors.New("boom")

// TestCacheConcurrency drives the one serve cache from many goroutines
// at once: one build per key generation, and no caller ever receives
// another key's value. Run it under -race.
func TestCacheConcurrency(t *testing.T) {
	const workers = 16

	t.Run("same-key", func(t *testing.T) {
		c := newCache[tkey, cval](4)
		log := newBuildLog()
		hammer(workers, 1, func(int, int) {
			v, _, err := c.get(tkey(7), nil, func(cval) (cval, error) {
				log.begin(7)
				defer log.end(7)
				runtime.Gosched()
				return cval{key: 7}, nil
			})
			if err != nil || v.key != 7 {
				t.Errorf("get(7) = %+v, %v", v, err)
			}
		})
		if b, h := c.builds.Load(), c.hits.Load(); b != 1 || h != workers-1 {
			t.Fatalf("builds %d, hits %d; want 1 and %d", b, h, workers-1)
		}
	})

	t.Run("distinct-keys-past-capacity", func(t *testing.T) {
		const keys, gets = 12, 40
		c := newCache[tkey, cval](3)
		log := newBuildLog()
		hammer(workers, gets, func(w, i int) {
			k := (w*7 + i) % keys
			v, _, err := c.get(tkey(k), nil, func(cval) (cval, error) {
				log.begin(k)
				defer log.end(k)
				runtime.Gosched()
				return cval{key: k}, nil
			})
			if err != nil || v.key != k {
				t.Errorf("get(%d) = %+v, %v", k, v, err)
			}
		})
		if n := log.overlaps.Load(); n > 0 {
			t.Fatalf("%d builds overlapped another build of the same key (in-flight entry evicted)", n)
		}
		b, h := c.builds.Load(), c.hits.Load()
		if b+h != workers*gets {
			t.Fatalf("builds %d + hits %d != %d gets", b, h, workers*gets)
		}
		// Every build inserted one entry; each left only by eviction.
		if got := int64(c.Len()); got != b-c.evicted.Load() {
			t.Fatalf("len %d, want builds %d - evicted %d", got, b, c.evicted.Load())
		}
	})

	t.Run("failed-builds-retry", func(t *testing.T) {
		const keys, gets = 4, 20
		c := newCache[tkey, cval](keys)
		log := newBuildLog()
		var failedGets atomic.Int64
		get := func(k int) (cval, error) {
			v, _, err := c.get(tkey(k), nil, func(cval) (cval, error) {
				n := log.begin(k)
				defer log.end(k)
				runtime.Gosched()
				if n == 1 {
					return cval{}, errBoom
				}
				return cval{key: k}, nil
			})
			return v, err
		}
		hammer(workers, gets, func(w, i int) {
			k := (w + i) % keys
			v, err := get(k)
			switch {
			case errors.Is(err, errBoom):
				failedGets.Add(1)
			case err != nil || v.key != k:
				t.Errorf("get(%d) = %+v, %v", k, v, err)
			}
		})
		for k := 0; k < keys; k++ {
			if v, err := get(k); err != nil || v.key != k {
				t.Fatalf("retry of key %d: %+v, %v", k, v, err)
			}
			if n := log.total[k]; n != 2 {
				t.Fatalf("key %d built %d times, want 2 (one failure, one success)", k, n)
			}
		}
		if n := log.overlaps.Load(); n > 0 {
			t.Fatalf("%d builds overlapped another build of the same key", n)
		}
		if failedGets.Load() < keys {
			t.Fatalf("%d gets saw the failure, want at least one per key", failedGets.Load())
		}
		if b, h := c.builds.Load(), c.hits.Load(); b+h != workers*gets+keys {
			t.Fatalf("builds %d + hits %d != %d gets", b, h, workers*gets+keys)
		}
	})

	t.Run("superseded-rebuilt-from-prev", func(t *testing.T) {
		// The schedule path's shape: a value older than the caller's
		// generation is handed to the next build as prev.
		const keys, gets = 3, 40
		c := newCache[tkey, cval](keys)
		var gen atomic.Int64
		var mu sync.Mutex
		last := map[int]int{}
		hammer(workers, gets, func(w, i int) {
			k := (w + i) % keys
			if w == 0 && i%8 == 0 {
				gen.Add(1)
			}
			want := int(gen.Load())
			v, _, err := c.get(tkey(k), func(v cval) bool { return v.seq >= want }, func(prev cval) (cval, error) {
				if prev != (cval{}) && prev.key != k {
					t.Errorf("build of key %d handed key %d's value", k, prev.key)
				}
				g := int(gen.Load())
				mu.Lock()
				defer mu.Unlock()
				if p, ok := last[k]; ok && g <= p {
					t.Errorf("key %d rebuilt at generation %d after building %d", k, g, p)
				}
				last[k] = g
				return cval{key: k, seq: g}, nil
			})
			if err != nil || v.key != k || v.seq < want {
				t.Errorf("get(%d) at generation %d = %+v, %v", k, want, v, err)
			}
		})
		if b, h := c.builds.Load(), c.hits.Load(); b+h != workers*gets {
			t.Fatalf("builds %d + hits %d != %d gets", b, h, workers*gets)
		}
	})

	t.Run("drop-racing-get", func(t *testing.T) {
		const keys, gets, droppers, drops = 6, 60, 4, 40
		c := newCache[tkey, cval](4)
		// seq[k] counts the drops of key k. A dropper bumps it and drops
		// under dropMu, so a get that reads seq after a drop also starts
		// after that drop has removed the key's entries.
		var dropMu sync.RWMutex
		var seq [keys]atomic.Int64
		var wg sync.WaitGroup
		for d := 0; d < droppers; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < drops; i++ {
					k := (d*5 + i) % keys
					dropMu.Lock()
					seq[k].Add(1)
					c.drop(&tslots[k], math.MaxUint64)
					dropMu.Unlock()
					runtime.Gosched()
				}
			}()
		}
		hammer(workers, gets, func(w, i int) {
			k := (w*3 + i) % keys
			dropMu.RLock()
			floor := int(seq[k].Load())
			dropMu.RUnlock()
			v, _, err := c.get(tkey(k), nil, func(cval) (cval, error) {
				v := cval{key: k, seq: int(seq[k].Load())}
				runtime.Gosched()
				return v, nil
			})
			if err != nil || v.key != k {
				t.Errorf("get(%d) = %+v, %v", k, v, err)
			} else if v.seq < floor {
				t.Errorf("get(%d) answered from a build begun before drop %d (seq %d)", k, floor, v.seq)
			}
		})
		wg.Wait()
		b, h := c.builds.Load(), c.hits.Load()
		if b+h != workers*gets {
			t.Fatalf("builds %d + hits %d != %d gets", b, h, workers*gets)
		}
		if got := int64(c.Len()); got != b-c.evicted.Load()-c.dropped.Load() {
			t.Fatalf("len %d, want builds %d - evicted %d - dropped %d", got, b, c.evicted.Load(), c.dropped.Load())
		}
	})
}
