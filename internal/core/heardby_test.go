package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// heardByAlphas are the path-loss exponents the differential checks
// cover: the paper's alpha = 2 (Energy's division path) and three
// math.Pow paths.
var heardByAlphas = [...]float64{2, 2.5, 3, 4}

// checkHeardBy asserts HeardBy == heardByScan == NaiveLocate at p and,
// for beta > 1, the strongest-signal invariant of HeardBy's doc
// comment: a heard station's energy strictly exceeds every other
// station's.
func checkHeardBy(t *testing.T, net *Network, p geom.Point) {
	t.Helper()
	gi, gok := net.HeardBy(p)
	si, sok := net.heardByScan(p)
	if gi != si || gok != sok {
		t.Fatalf("%v at %v: HeardBy = (%d, %v), scan = (%d, %v)", net, p, gi, gok, si, sok)
	}
	want := Location{Kind: NoReception}
	if sok {
		want = Location{Kind: Reception, Station: si}
	}
	if got := net.NaiveLocate(p); got != want {
		t.Fatalf("%v at %v: NaiveLocate = %+v, scan = %+v", net, p, got, want)
	}
	if net.Beta() <= 1 {
		return
	}
	for i := 0; i < net.NumStations(); i++ {
		if !net.Heard(i, p) {
			continue
		}
		ei := net.Energy(i, p)
		for j := 0; j < net.NumStations(); j++ {
			if j != i && !(ei > net.Energy(j, p)) {
				t.Fatalf("%v at %v: station %d heard with energy %g, station %d has %g",
					net, p, i, ei, j, net.Energy(j, p))
			}
		}
	}
}

// checkHeardByProbes runs checkHeardBy at p, at every station and at
// every pairwise midpoint — the points where energies tie or are
// infinite.
func checkHeardByProbes(t *testing.T, net *Network, p geom.Point) {
	t.Helper()
	checkHeardBy(t, net, p)
	st := net.Stations()
	for i, a := range st {
		checkHeardBy(t, net, a)
		for _, b := range st[i+1:] {
			// Halve before adding so huge coordinates cannot overflow.
			checkHeardBy(t, net, geom.Pt(a.X/2+b.X/2, a.Y/2+b.Y/2))
		}
	}
}

// TestHeardByStrongestSignal is the seeded property form of
// FuzzHeardBy: random networks with non-uniform powers (near-ties at
// 1 + 1e-15 and spreads of 1e±6), every alpha of heardByAlphas,
// co-located stations, zero noise, beta just above 1 and beta <= 1,
// probed at random points, at stations and at midpoints.
func TestHeardByStrongestSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	powerSets := [][]float64{
		{1},
		{1, 1 + 1e-15},
		{1e6, 1, 1e-6},
		{0.5, 1, 2, 4},
	}
	betas := []float64{math.Nextafter(1, 2), 1.5, 3, 10, 1, 0.5}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(9)
		scale := []float64{1, 1e-150, 1e150}[trial%3]
		stations := make([]geom.Point, n)
		powers := make([]float64, n)
		ps := powerSets[rng.Intn(len(powerSets))]
		for i := range stations {
			stations[i] = geom.Pt((rng.Float64()*8-4)*scale, (rng.Float64()*8-4)*scale)
			powers[i] = ps[rng.Intn(len(ps))]
			if i > 0 && rng.Intn(6) == 0 {
				stations[i] = stations[rng.Intn(i)] // co-located
			}
		}
		noise := 0.0
		if trial%2 == 0 {
			noise = rng.Float64() * 0.1 / (scale * scale)
		}
		net, err := NewNetwork(stations, noise, betas[rng.Intn(len(betas))],
			WithAlpha(heardByAlphas[rng.Intn(len(heardByAlphas))]), WithPowers(powers))
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 20; q++ {
			s := stations[rng.Intn(n)]
			r := rng.Float64() * 2 * scale
			a := rng.Float64() * 2 * math.Pi
			checkHeardBy(t, net, geom.Pt(s.X+r*math.Cos(a), s.Y+r*math.Sin(a)))
		}
		checkHeardByProbes(t, net, geom.Pt((rng.Float64()*16-8)*scale, (rng.Float64()*16-8)*scale))
	}
}

// fuzzStationBytes is the encoding of one fuzzed station: x, y and
// power as little-endian float64s.
const fuzzStationBytes = 24

// FuzzHeardBy checks HeardBy == heardByScan == NaiveLocate, and the
// strongest-signal invariant for beta > 1, over arbitrary finite
// floats. raw holds up to 8 stations (fuzzStationBytes each); a
// non-positive or non-finite power becomes its absolute value or 1,
// a non-finite noise 0, a non-positive or non-finite beta 2; alpha is
// picked from heardByAlphas. Each input is probed at (px, py), at
// every station and at every pairwise midpoint.
//
// Seed corpus: testdata/fuzz/FuzzHeardBy. Run longer with
// go test -run xxx -fuzz FuzzHeardBy -fuzztime 15s ./internal/core/
func FuzzHeardBy(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, noise, beta float64, alphaSel uint8, px, py float64) {
		n := min(len(raw)/fuzzStationBytes, 8)
		if n == 0 || !finite(px) || !finite(py) {
			return
		}
		stations := make([]geom.Point, n)
		powers := make([]float64, n)
		for i := range stations {
			b := raw[i*fuzzStationBytes:]
			x := math.Float64frombits(binary.LittleEndian.Uint64(b))
			y := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
			if !finite(x) || !finite(y) {
				return
			}
			stations[i] = geom.Pt(x, y)
			powers[i] = math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(b[16:])))
			if powers[i] == 0 || !finite(powers[i]) {
				powers[i] = 1
			}
		}
		noise = math.Abs(noise)
		if !finite(noise) {
			noise = 0
		}
		if beta <= 0 || !finite(beta) {
			beta = 2
		}
		net, err := NewNetwork(stations, noise, beta,
			WithAlpha(heardByAlphas[int(alphaSel)%len(heardByAlphas)]), WithPowers(powers))
		if err != nil {
			t.Fatal(err)
		}
		checkHeardByProbes(t, net, geom.Pt(px, py))
	})
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
