package dynamic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// benchNet builds a constant-density uniform network (the E18/E19
// serving regime: box side grows with sqrt(n)).
func benchNet(b *testing.B, n int) (*core.Network, geom.Box) {
	b.Helper()
	side := 3 * math.Sqrt(float64(n))
	box := geom.NewBox(geom.Pt(-side/2, -side/2), geom.Pt(side/2, side/2))
	gen := workload.NewGenerator(int64(9000 * n))
	pts, err := gen.UniformSeparated(n, box, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	net, err := core.NewUniform(pts, 0.01, 3)
	if err != nil {
		b.Fatal(err)
	}
	return net, box
}

// BenchmarkDynamicApply measures one single-station incremental delta
// (the churn hot path): an arrival and a departure alternate so the
// station count stays fixed. The rebuild threshold is disabled so the
// measurement is purely the incremental path.
func BenchmarkDynamicApply(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, box := benchNet(b, n)
			dyn, err := New(net, WithRebuildFraction(math.Inf(1)))
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGenerator(1)
			arrivals := gen.QueryPoints(b.N+1, box)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					_, err = dyn.Apply(Delta{Add: []Station{{Pos: arrivals[i/2]}}})
				} else {
					_, err = dyn.Apply(Delta{Remove: []int{n}})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamicRebuild measures the from-scratch baseline an
// incremental Apply replaces: building the whole engine (network copy,
// kd-tree, cover boxes, grid) on an unchanged station set.
func BenchmarkDynamicRebuild(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, _ := benchNet(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(net); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamicLocate measures the epoch-snapshot query hot path on
// a post-churn snapshot (base tree + overlay extras + patched grid).
// It must report 0 allocs/op — the CI bench gate enforces it.
func BenchmarkDynamicLocate(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, box := benchNet(b, n)
			dyn, err := New(net, WithRebuildFraction(math.Inf(1)))
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGenerator(2)
			for _, ev := range gen.ChurnTrace(n, n/16+4, box, 1, 1, 0, 0) {
				var d Delta
				switch ev.Kind {
				case workload.ChurnArrive:
					d = Delta{Add: []Station{{Pos: ev.Pos, Power: ev.Power}}}
				case workload.ChurnDepart:
					d = Delta{Remove: []int{ev.Station}}
				}
				if _, err := dyn.Apply(d); err != nil {
					b.Fatal(err)
				}
			}
			benchLocate(b, dyn.Snapshot(), gen.QueryPoints(4096, box))
		})
	}
	// A power walk makes the epoch non-uniform: covered points then
	// answer through Network.HeardBy's strongest-signal check.
	b.Run("power/n=256", func(b *testing.B) {
		net, box := benchNet(b, 256)
		dyn, err := New(net, WithRebuildFraction(math.Inf(1)))
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.NewGenerator(3)
		for _, ev := range gen.ChurnTrace(256, 32, box, 0, 0, 1, 0.25) {
			d := Delta{SetPower: []PowerUpdate{{Station: ev.Station, Power: ev.Power}}}
			if _, err := dyn.Apply(d); err != nil {
				b.Fatal(err)
			}
		}
		snap := dyn.Snapshot()
		if snap.Network().IsUniform() {
			b.Fatal("power churn left the epoch uniform")
		}
		benchLocate(b, snap, gen.QueryPoints(4096, box))
	})
}

// benchLocate times snap.Locate over pts, cycled.
func benchLocate(b *testing.B, snap *Snapshot, pts []geom.Point) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Locate(pts[i%len(pts)])
	}
}
