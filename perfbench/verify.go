package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sched"
)

// checkAnswers compares served or library answers (station index, or
// -1 for none) with Network.HeardBy on the same points, recording every
// disagreement. The HeardBy pass is timed as a reference core.heardby
// span on traced runs.
func checkAnswers(rep *report, rec *recorder, what string, net *core.Network, pts []geom.Point, got []int32) {
	if len(got) != len(pts) {
		rep.mismatch("%s: %d answers for %d points", what, len(got), len(pts))
		return
	}
	want := make([]int32, len(pts))
	rep.heardN += int64(len(pts))
	rep.heardDur += rec.timed("core.heardby", 0, true, func(int64) {
		for i, p := range pts {
			want[i] = core.NoStationHeard
			if s, ok := net.HeardBy(p); ok {
				want[i] = int32(s)
			}
		}
	})
	for i := range pts {
		if got[i] != want[i] {
			rep.mismatch("%s: point %v answered %d, HeardBy says %d", what, pts[i], got[i], want[i])
		}
	}
}

// sinrProblem is the schedule feasibility engine of net's derived links
// under the server's defaults (SINR model, the network's own beta,
// noise and alpha).
func sinrProblem(net *core.Network, linkLen float64) ([]sched.Link, *sched.SINRProblem, error) {
	powers := make([]float64, net.NumStations())
	for i := range powers {
		powers[i] = net.Power(i)
	}
	links := sched.DeriveLinks(net.Stations(), powers, linkLen)
	p, err := sched.NewSINRProblem(links, net.Noise(), net.Beta())
	if err != nil {
		return nil, nil, err
	}
	p.Alpha = net.Alpha()
	return links, p, nil
}

// checkSchedule validates a schedule answer against a feasibility
// engine built locally from net, the station set the answer claims to
// be for.
func checkSchedule(rep *report, what string, net *core.Network, numLinks int, slots [][]int) {
	links, p, err := sinrProblem(net, 1)
	if err != nil {
		rep.mismatch("%s: building the local feasibility engine: %v", what, err)
		return
	}
	if numLinks != len(links) {
		rep.mismatch("%s: schedule covers %d links, the station set has %d", what, numLinks, len(links))
		return
	}
	s := &sched.Schedule{Slots: slots}
	if err := s.Validate(p); err != nil {
		rep.mismatch("%s: schedule fails Validate: %v", what, err)
	}
}

// carryOver maps a previous generation's slot assignments onto a new
// link set by sender identity (position and power), the tentative
// schedule sched.Repair reconciles: the repair path a PATCH takes on
// the server, and the one a library user takes after a delta.
func carryOver(prevLinks []sched.Link, prev [][]int, links []sched.Link) *sched.Schedule {
	type ident struct{ x, y, p float64 }
	slotOf := make(map[ident]int, len(prevLinks))
	for si, slot := range prev {
		for _, li := range slot {
			l := prevLinks[li]
			slotOf[ident{l.Sender.X, l.Sender.Y, l.Power}] = si
		}
	}
	tentative := &sched.Schedule{Slots: make([][]int, len(prev))}
	for j, l := range links {
		if si, ok := slotOf[ident{l.Sender.X, l.Sender.Y, l.Power}]; ok {
			tentative.Slots[si] = append(tentative.Slots[si], j)
		}
	}
	return tentative
}

// stationIndices converts answers to the wire convention.
func stationIndices(locs []core.Location) []int32 {
	out := make([]int32, len(locs))
	for i, l := range locs {
		out[i] = core.NoStationHeard
		if l.Kind == core.Reception {
			out[i] = int32(l.Station)
		}
	}
	return out
}

func describeVersion(net string, v uint64) string { return fmt.Sprintf("%s@v%d", net, v) }
