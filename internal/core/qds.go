package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// CellType classifies a grid cell relative to a reception zone
// (Section 5.1): T+ cells are fully inside the zone, T- cells do not
// intersect it, and T? cells form the bounded uncertainty ring around
// the boundary.
type CellType int

// Cell classifications.
const (
	TMinus    CellType = iota // outside the zone
	TPlus                     // inside the zone
	TQuestion                 // uncertainty ring straddling the boundary
)

// String implements fmt.Stringer.
func (t CellType) String() string {
	switch t {
	case TPlus:
		return "T+"
	case TMinus:
		return "T-"
	case TQuestion:
		return "T?"
	default:
		return fmt.Sprintf("CellType(%d)", int(t))
	}
}

// GammaSafety is the denominator constant in the grid-pitch formula
// gamma = eps * delta~^2 / (GammaSafety * Delta~). The paper derives
// 18 from its 9-cell accounting; we use a slightly larger constant to
// absorb the denser sampling of the star-shape BRP trace, keeping the
// area(H?) <= eps * area(H) guarantee with margin.
const GammaSafety = 40

// QDS is the per-zone approximate point-location structure of
// Section 5.1: a gamma-spaced grid whose cells are classified T+, T-
// or T?, stored as one entry per grid column holding that column's T?
// row intervals. Size is O(#T? cells) = O(eps^-1); queries are O(1)
// plus an O(log) binary search within a column's interval list.
type QDS struct {
	net     *Network
	station int
	grid    Grid
	eps     float64
	bounds  ZoneBounds
	cols    map[int]*qdsColumn
	// numUncertain is the total count of T? cells.
	numUncertain int
	// pointZone marks degenerate zones (shared station location):
	// every cell is T- except the station point itself, which is T?
	// and resolves to not-heard under the interferer-coincidence
	// convention of Network.SINR.
	pointZone bool
}

// qdsColumn stores the sorted, disjoint T? row intervals of one grid
// column. Rows strictly between the column's outermost T? rows that
// fall in no interval are T+; all other rows are T-.
type qdsColumn struct {
	intervals []rowSpan
	minRow    int
	maxRow    int
}

// rowSpan is an inclusive row range [Lo, Hi].
type rowSpan struct {
	Lo, Hi int
}

// Theorem3Preconditions returns nil when the network meets the
// preconditions of the Theorem 3 point-location structure (alpha = 2,
// uniform power, beta > 1), else the error of the first one it fails.
func (n *Network) Theorem3Preconditions() error {
	if n.alpha != 2 {
		return ErrNeedAlpha2
	}
	if !n.uniform {
		return ErrNeedUniform
	}
	if n.beta <= 1 {
		return ErrNeedBetaGT1
	}
	return nil
}

// BuildQDS constructs the Section 5.1 data structure for station k's
// reception zone with performance parameter 0 < eps < 1. Requirements
// mirror the paper's: uniform power, alpha = 2, beta > 1 (so the zone
// is compact, convex and fat) and a non-trivial network. A station
// whose location is shared by another yields a degenerate point-zone
// structure.
func (n *Network) BuildQDS(k int, eps float64) (*QDS, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: performance parameter eps must be in (0, 1), got %v", eps)
	}
	if err := n.Theorem3Preconditions(); err != nil {
		return nil, err
	}
	if k < 0 || k >= len(n.stations) {
		return nil, fmt.Errorf("core: station index %d out of range [0, %d)", k, len(n.stations))
	}
	if n.SharesLocation(k) {
		return &QDS{net: n, station: k, eps: eps, pointZone: true, cols: map[int]*qdsColumn{}}, nil
	}

	bounds, err := n.SampledBounds(k, 128)
	if err != nil {
		return nil, err
	}
	gamma := eps * bounds.DeltaLower * bounds.DeltaLower / (GammaSafety * bounds.DeltaUpper)
	grid, err := NewGrid(n.stations[k], gamma)
	if err != nil {
		return nil, err
	}

	z, err := n.Zone(k)
	if err != nil {
		return nil, err
	}
	trace, err := z.TraceBoundary(gamma, BRPOptions{})
	if err != nil {
		return nil, err
	}

	// Visited boundary cells, inflated to their 9-cells (the paper's
	// ♯C), become the T? ring.
	ring := make(map[Cell]struct{}, 16*len(trace)/2)
	var prev Cell
	havePrev := false
	for _, p := range trace {
		c := grid.CellOf(p)
		if havePrev && c == prev {
			continue
		}
		prev, havePrev = c, true
		for _, nc := range grid.NineCell(c) {
			ring[nc] = struct{}{}
		}
	}

	q := &QDS{
		net:          n,
		station:      k,
		grid:         grid,
		eps:          eps,
		bounds:       bounds,
		cols:         make(map[int]*qdsColumn),
		numUncertain: len(ring),
	}
	// Bucket ring rows by column.
	rows := make(map[int][]int)
	//sinr:nondeterministic-ok per-column row lists are sorted below before any interval is derived
	for c := range ring {
		rows[c.Col] = append(rows[c.Col], c.Row)
	}
	for col, rr := range rows {
		sort.Ints(rr)
		qc := &qdsColumn{minRow: rr[0], maxRow: rr[len(rr)-1]}
		span := rowSpan{Lo: rr[0], Hi: rr[0]}
		for _, r := range rr[1:] {
			if r <= span.Hi+1 {
				if r > span.Hi {
					span.Hi = r
				}
				continue
			}
			qc.intervals = append(qc.intervals, span)
			span = rowSpan{Lo: r, Hi: r}
		}
		qc.intervals = append(qc.intervals, span)
		q.cols[col] = qc
	}
	return q, nil
}

// Station returns the index of the zone's station.
func (q *QDS) Station() int { return q.station }

// Eps returns the performance parameter the structure was built with.
func (q *QDS) Eps() float64 { return q.eps }

// Gamma returns the grid pitch.
func (q *QDS) Gamma() float64 { return q.grid.Gamma }

// Bounds returns the delta/Delta bounds used to size the grid.
func (q *QDS) Bounds() ZoneBounds { return q.bounds }

// NumUncertainCells returns |T?|, the size driver of the structure.
func (q *QDS) NumUncertainCells() int { return q.numUncertain }

// CoverBox returns a box guaranteed to contain every point Classify
// answers T+ or T? for — the zone plus its uncertainty ring. It is
// derived from the stored columns (every non-T- cell lies in a stored
// column between its outermost T? rows) and padded by one grid pitch
// so floating-point disagreement between the box arithmetic and
// CellOf's floor can never misplace a boundary point. Points outside
// the box are certifiably T-, which is what lets a spatial index skip
// this structure entirely for most of the plane.
func (q *QDS) CoverBox() geom.Box {
	if q.pointZone {
		s := q.net.stations[q.station]
		// Classify answers T? only within geom.Eps of the station.
		pad := 2 * geom.Eps
		return geom.NewBox(geom.Pt(s.X-pad, s.Y-pad), geom.Pt(s.X+pad, s.Y+pad))
	}
	first := true
	var colMin, colMax, rowMin, rowMax int
	//sinr:nondeterministic-ok commutative min/max reduction; result is order-independent
	for col, qc := range q.cols {
		if first {
			colMin, colMax, rowMin, rowMax = col, col, qc.minRow, qc.maxRow
			first = false
			continue
		}
		if col < colMin {
			colMin = col
		}
		if col > colMax {
			colMax = col
		}
		if qc.minRow < rowMin {
			rowMin = qc.minRow
		}
		if qc.maxRow > rowMax {
			rowMax = qc.maxRow
		}
	}
	if first {
		// No stored columns: everything is T-; an inverted box indexes
		// nowhere.
		return geom.Box{Min: geom.Pt(1, 1), Max: geom.Pt(-1, -1)}
	}
	pad := q.grid.Gamma
	return geom.NewBox(
		geom.Pt(q.grid.ColumnX(colMin)-pad, q.grid.RowY(rowMin)-pad),
		geom.Pt(q.grid.ColumnX(colMax+1)+pad, q.grid.RowY(rowMax+1)+pad),
	)
}

// NumColumns returns the number of stored grid columns.
func (q *QDS) NumColumns() int { return len(q.cols) }

// UncertainArea returns area(H?) = |T?| * gamma^2.
func (q *QDS) UncertainArea() float64 {
	return float64(q.numUncertain) * q.grid.Gamma * q.grid.Gamma
}

// Classify returns the classification of the cell containing p, in
// O(1) map lookup plus O(log) within-column search.
//
//sinr:hotpath
func (q *QDS) Classify(p geom.Point) CellType {
	if q.pointZone {
		if geom.ApproxEqual(p, q.net.stations[q.station], geom.Eps) {
			return TQuestion
		}
		return TMinus
	}
	cell := q.grid.CellOf(p)
	col, ok := q.cols[cell.Col]
	if !ok {
		return TMinus
	}
	if cell.Row < col.minRow || cell.Row > col.maxRow {
		return TMinus
	}
	// Binary search the sorted disjoint intervals.
	iv := col.intervals
	i := sort.Search(len(iv), func(j int) bool { return iv[j].Hi >= cell.Row })
	if i < len(iv) && iv[i].Lo <= cell.Row {
		return TQuestion
	}
	// Not in any T? interval but strictly between the column's
	// outermost T? rows: there is a T? cell to the north and to the
	// south, so the cell is interior (paper's column rule).
	return TPlus
}

// VerifyColumns cross-checks the structure against the paper's exact
// segment-test machinery: for every stored column it computes the true
// boundary crossings of ∂H_k along the column's center vertical line
// (Sturm root isolation on the boundary polynomial) and verifies each
// crossing row is covered by a T? interval. It returns the number of
// uncovered crossings (0 for a sound structure).
func (q *QDS) VerifyColumns() (int, error) {
	if q.pointZone {
		return 0, nil
	}
	bad := 0
	extent := q.bounds.DeltaUpper * 2
	// Iterate columns in sorted order so the early error return below
	// surfaces the same column on every run.
	cols := make([]int, 0, len(q.cols))
	for col := range q.cols {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	for _, col := range cols {
		qc := q.cols[col]
		x := q.grid.ColumnX(col) + q.grid.Gamma/2
		line := geom.Line{P: geom.Pt(x, q.grid.Anchor.Y), D: geom.Pt(0, 1)}
		roots, err := q.net.LineBoundaryCrossings(q.station, line, q.grid.Gamma/1024)
		if err != nil {
			return bad, err
		}
		for _, t := range roots {
			if math.Abs(t) > extent {
				continue // crossing of another zone's far lobe, not ours
			}
			row := q.grid.CellOf(line.At(t)).Row
			if !qc.covers(row) {
				bad++
			}
		}
	}
	return bad, nil
}

//sinr:hotpath
func (c *qdsColumn) covers(row int) bool {
	iv := c.intervals
	i := sort.Search(len(iv), func(j int) bool { return iv[j].Hi >= row })
	return i < len(iv) && iv[i].Lo <= row
}
