package main

import (
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/workload"
)

// sizes fixes how big each workload's inputs are. The full sizes are
// the benchmark; tests run the tiny ones.
type sizes struct {
	eps       float64 // locator performance parameter of serve-locate
	libEps    float64 // locator performance parameter of the library workload
	setupReps int     // fewest set-ups per run; setup_s and the serve build_p50_s are their medians
	sampleOne int     // one batch in sampleOne is kept and verified
	segment   int     // churn events between resets of a served write network

	locateRows, locateCols int // serve-locate's static network
	locateBatch            int
	ctlRows, ctlCols       int // serve-locate's write-side network
	ctlEvery               int // one PATCH + schedule per ctlEvery locate batches

	churnRows, churnCols int // serve-churn's network
	churnBatch           int
	churnEvery           int // one PATCH + schedule per churnEvery locate batches
	buildEvery           int // serve-churn: one probe build per buildEvery locate batches

	poolBatches int // distinct locate batches a serve workload cycles through

	libCols    []int // library networks: 4 x libCols[i] stations, walked in order
	libPool    int   // distinct query batches per library network
	libBatches int   // ResolveBatch calls per library network, cycling the pool
	libBatch   int
	libDeltas  int // churn deltas (apply + schedule repair) per library segment
	libSegs    int // churn segments per library network, each from the original stations
}

var fullSizes = sizes{
	eps: 0.05, libEps: 0.1, setupReps: 3, sampleOne: 8, segment: 24,
	locateRows: 4, locateCols: 8, locateBatch: 512,
	ctlRows: 8, ctlCols: 16, ctlEvery: 16,
	churnRows: 16, churnCols: 16, churnBatch: 64, churnEvery: 4, buildEvery: 8,
	poolBatches: 256,
	libCols:     []int{6, 4, 8, 5, 7},
	libPool:     256, libBatches: 2048, libBatch: 512, libDeltas: 32, libSegs: 4,
}

// moreSetups reports whether an untraced run sets up again after done
// set-ups that took spent in total: at least sz.setupReps of them, then
// more while they have taken under a second, up to 25, so that the
// median of a cheap set-up is as steady as that of an expensive one. A
// traced run sets up once.
func moreSetups(traced bool, done int, spent time.Duration, sz sizes) bool {
	if traced {
		return done < 1
	}
	return done < sz.setupReps || (spent < time.Second && done < 25)
}

// Every workload uses the channel parameters sinrload defaults to.
const (
	noise   = 0.01
	beta    = 3.0
	spacing = 1.0 // lattice pitch of every generated network
)

// latticeNetwork places rows x cols stations on a lattice of the given
// pitch centred on the origin and moves each by a seeded offset of up
// to a quarter pitch per axis. A jittered lattice keeps the locator
// build cost close to equal across seeds, so runs with different seeds
// measure the same amount of work.
func latticeNetwork(gen *workload.Generator, rows, cols int) ([]geom.Point, geom.Box) {
	origin := geom.Pt(-spacing*float64(cols-1)/2, -spacing*float64(rows-1)/2)
	pts := workload.Lattice(rows, cols, origin, spacing)
	for i := range pts {
		pts[i].X += (gen.Float64() - 0.5) * spacing / 2
		pts[i].Y += (gen.Float64() - 0.5) * spacing / 2
	}
	half := geom.Pt(spacing*float64(cols)/2+spacing, spacing*float64(rows)/2+spacing)
	return pts, geom.NewBox(geom.Pt(-half.X, -half.Y), half)
}

// queryBatch draws m query points: even positions lie within a fifth
// of the pitch of a random station, where most answers are H+; odd
// positions are uniform over the box, where most answers are H-.
func queryBatch(gen *workload.Generator, stations []geom.Point, box geom.Box, m int) []geom.Point {
	uniform := gen.QueryPoints(m/2, box)
	out := make([]geom.Point, 0, m)
	for i := 0; i < m; i++ {
		if i%2 == 1 && i/2 < len(uniform) {
			out = append(out, uniform[i/2])
			continue
		}
		s := stations[gen.Intn(len(stations))]
		r := 0.2 * spacing * math.Sqrt(gen.Float64())
		a := 2 * math.Pi * gen.Float64()
		out = append(out, geom.Pt(s.X+r*math.Cos(a), s.Y+r*math.Sin(a)))
	}
	return out
}

// churnEvents is segments traces of the sinrload "mix" churn process
// (arrivals, departures and power-walk steps with equal weight), each
// perSegment events long and starting from the n0 original stations.
// The process is a random walk in the station count; restarting it
// bounds how far a run's network drifts from its original size, so
// runs with different seeds and speeds do equal work per query.
func churnEvents(gen *workload.Generator, n0, segments, perSegment int, box geom.Box) []workload.ChurnEvent {
	var out []workload.ChurnEvent
	for i := 0; i < segments; i++ {
		out = append(out, gen.ChurnTrace(n0, perSegment, box, 1, 1, 1, 0.25)...)
	}
	return out
}

// wireDelta converts one churn event to the PATCH body.
func wireDelta(ev workload.ChurnEvent) serve.NetworkDeltaRequest {
	switch ev.Kind {
	case workload.ChurnArrive:
		return serve.NetworkDeltaRequest{Add: []serve.DeltaStationJSON{{X: ev.Pos.X, Y: ev.Pos.Y, Power: ev.Power}}}
	case workload.ChurnDepart:
		return serve.NetworkDeltaRequest{Remove: []int{ev.Station}}
	default:
		return serve.NetworkDeltaRequest{SetPower: []serve.PowerUpdateJSON{{Station: ev.Station, Power: ev.Power}}}
	}
}

// engineDelta converts the same event for the dynamic engine.
func engineDelta(ev workload.ChurnEvent) dynamic.Delta {
	switch ev.Kind {
	case workload.ChurnArrive:
		return dynamic.Delta{Add: []dynamic.Station{{Pos: ev.Pos, Power: ev.Power}}}
	case workload.ChurnDepart:
		return dynamic.Delta{Remove: []int{ev.Station}}
	default:
		return dynamic.Delta{SetPower: []dynamic.PowerUpdate{{Station: ev.Station, Power: ev.Power}}}
	}
}

// mirror is the verifier's own copy of a churned station set: a plain
// list the churn events edit, independent of the dynamic engine under
// test.
type mirror struct {
	pts    []geom.Point
	powers []float64
}

func newMirror(stations []geom.Point) *mirror {
	m := &mirror{pts: append([]geom.Point(nil), stations...), powers: make([]float64, len(stations))}
	for i := range m.powers {
		m.powers[i] = 1
	}
	return m
}

func (m *mirror) apply(ev workload.ChurnEvent) {
	switch ev.Kind {
	case workload.ChurnArrive:
		m.pts = append(m.pts, ev.Pos)
		m.powers = append(m.powers, ev.Power)
	case workload.ChurnDepart:
		m.pts = append(m.pts[:ev.Station:ev.Station], m.pts[ev.Station+1:]...)
		m.powers = append(m.powers[:ev.Station:ev.Station], m.powers[ev.Station+1:]...)
	default:
		m.powers[ev.Station] = ev.Power
	}
}

func (m *mirror) network() (*core.Network, error) {
	return core.NewNetwork(m.pts, noise, beta, core.WithPowers(m.powers))
}

// sampled reports whether batch b is in the run's fixed seeded
// verification sample.
func sampled(seed int64, b int64, one int) bool {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
		buf[8+i] = byte(b >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()%uint64(one) == 0
}

// specFor is the registration body of a uniform-power network.
func specFor(name, resolver string, stations []geom.Point) serve.NetworkSpec {
	sp := serve.NetworkSpec{Name: name, Noise: noise, Beta: beta, Resolver: resolver}
	sp.Stations = make([]serve.SpecStation, len(stations))
	for i, s := range stations {
		sp.Stations[i] = serve.SpecStation{X: s.X, Y: s.Y}
	}
	return sp
}
