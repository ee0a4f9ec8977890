package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/sched"
	"repro/internal/workload"
)

// workloadNames lists every workload the benchmark runs.
var workloadNames = []string{"serve-locate", "serve-churn", "library"}

// gatedWorkloads are the workloads BENCHMARK.json lists, in its order;
// serve-locate runs but is not gated (see README.md).
var gatedWorkloads = []string{"serve-churn", "library"}

// tinySizes make every workload finish in well under a second.
var tinySizes = sizes{
	eps: 0.3, libEps: 0.3, setupReps: 1, sampleOne: 2, segment: 3,
	locateRows: 2, locateCols: 3, locateBatch: 16,
	ctlRows: 2, ctlCols: 3, ctlEvery: 2,
	churnRows: 3, churnCols: 3, churnBatch: 8, churnEvery: 2, buildEvery: 2,
	poolBatches: 8,
	libCols:     []int{2, 3},
	libPool:     4, libBatches: 8, libBatch: 16, libDeltas: 4, libSegs: 2,
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 0.3, trace: traced, sz: tinySizes}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, traced, d.name, m, d.unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames pins the metric and workload names to the allowed
// alphabet and to BENCHMARK.json, which lists what runs are judged by.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: bad name or unit", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark emits %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(gatedWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(gatedWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != gatedWorkloads[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q, want %q", i, w.Name, gatedWorkloads[i])
		}
	}
}

// TestVerifierRejectsCorruptedAnswers checks that one wrong station
// index, or one schedule slot that breaks SINR feasibility, fails the
// run.
func TestVerifierRejectsCorruptedAnswers(t *testing.T) {
	gen := workload.NewGenerator(3)
	stations, box := latticeNetwork(gen, 2, 3)
	net, err := core.NewUniform(stations, noise, beta)
	if err != nil {
		t.Fatal(err)
	}
	pts := queryBatch(gen, stations, box, 64)
	got := make([]int32, len(pts))
	heard := -1
	for i, p := range pts {
		got[i] = core.NoStationHeard
		if s, ok := net.HeardBy(p); ok {
			got[i], heard = int32(s), i
		}
	}
	if heard < 0 {
		t.Fatal("no query point hears a station")
	}
	rep := newReport()
	checkAnswers(rep, nil, "clean", net, pts, got)
	if len(rep.mismatches) != 0 {
		t.Fatalf("correct answers rejected: %v", rep.mismatches)
	}
	got[heard] = core.NoStationHeard
	checkAnswers(rep, nil, "corrupted", net, pts, got)
	if len(rep.mismatches) != 1 {
		t.Fatalf("corrupted answer: %d mismatches, want 1", len(rep.mismatches))
	}

	links, p, err := sinrProblem(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.BuildSchedule(sched.KindGreedy, p, sched.ByLength(links, true))
	if err != nil {
		t.Fatal(err)
	}
	rep = newReport()
	checkSchedule(rep, "clean", net, len(links), s.Slots)
	if len(rep.mismatches) != 0 {
		t.Fatalf("valid schedule rejected: %v", rep.mismatches)
	}
	all := make([]int, len(links))
	for i := range all {
		all[i] = i
	}
	if p.SlotFeasible(all) {
		t.Fatal("every link fits one slot; the corruption below would be valid")
	}
	checkSchedule(rep, "corrupted", net, len(links), [][]int{all})
	if len(rep.mismatches) != 1 {
		t.Fatalf("infeasible slot: %d mismatches, want 1", len(rep.mismatches))
	}
}

// TestMirrorMatchesEngine checks the verifier's station-set mirror
// against the dynamic engine on a churn trace, so a verification pass
// cannot agree with a wrong engine by sharing its bookkeeping.
func TestMirrorMatchesEngine(t *testing.T) {
	gen := workload.NewGenerator(5)
	stations, box := latticeNetwork(gen, 3, 3)
	net, err := core.NewUniform(stations, noise, beta)
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(stations)
	dyn, err := dynamic.New(net)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range churnEvents(gen, len(stations), 1, 40, box) {
		m.apply(ev)
		snap, err := dyn.Apply(engineDelta(ev))
		if err != nil {
			t.Fatal(err)
		}
		want := snap.Network()
		if want.NumStations() != len(m.pts) {
			t.Fatalf("event %d: mirror has %d stations, engine %d", i, len(m.pts), want.NumStations())
		}
		for j, p := range m.pts {
			if want.Station(j) != p || want.Power(j) != m.powers[j] {
				t.Fatalf("event %d station %d: mirror %v/%g, engine %v/%g", i, j, p, m.powers[j], want.Station(j), want.Power(j))
			}
		}
	}
}
