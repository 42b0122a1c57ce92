package thermal

import (
	"math"
	"math/rand"
	"testing"

	"chiplet25d/internal/floorplan"
	"chiplet25d/internal/geom"
)

func testConfig(nx int) Config {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = nx, nx
	return cfg
}

// uniformChipPower spreads total watts evenly over the chiplet silicon of
// the model's stack.
func uniformChipPower(m *Model, totalW float64) []float64 {
	p := make([]float64, m.Grid().NumCells())
	chiplets := m.Stack().Placement.Chiplets
	area := 0.0
	for _, c := range chiplets {
		area += c.Area()
	}
	for _, c := range chiplets {
		m.Grid().RasterizeAdd(p, c, totalW*c.Area()/area)
	}
	return p
}

func singleChipModel(t *testing.T, nx int) *Model {
	t.Helper()
	stack, err := floorplan.BuildStack(floorplan.SingleChip())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(stack, testConfig(nx))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Nx = 63 // not divisible by 4
	if err := bad.Validate(); err == nil {
		t.Errorf("expected error for Nx not divisible by 4")
	}
	bad = good
	bad.HeatTransferCoeff = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("expected error for zero h")
	}
	bad = good
	bad.Tolerance = 2
	if err := bad.Validate(); err == nil {
		t.Errorf("expected error for tolerance >= 1")
	}
}

func TestSolveRejectsBadPower(t *testing.T) {
	m := singleChipModel(t, 16)
	if _, err := m.Solve(make([]float64, 5)); err == nil {
		t.Errorf("expected error for wrong power map length")
	}
	p := make([]float64, m.Grid().NumCells())
	p[0] = -1
	if _, err := m.Solve(p); err == nil {
		t.Errorf("expected error for negative power")
	}
}

// Energy balance: at steady state all injected power leaves via convection.
func TestEnergyBalance(t *testing.T) {
	m := singleChipModel(t, 32)
	res, err := m.Solve(uniformChipPower(m, 300))
	if err != nil {
		t.Fatal(err)
	}
	out := res.HeatOutW()
	if math.Abs(out-300) > 0.5 {
		t.Fatalf("heat out = %.3f W, want 300 W (residual %g)", out, res.Residual)
	}
}

// Zero power must return the ambient temperature everywhere.
func TestZeroPowerIsAmbient(t *testing.T) {
	m := singleChipModel(t, 16)
	res, err := m.Solve(make([]float64, m.Grid().NumCells()))
	if err != nil {
		t.Fatal(err)
	}
	for i, temp := range res.T {
		if math.Abs(temp-m.Config().AmbientC) > 1e-3 {
			t.Fatalf("node %d at %g °C with zero power, want ambient", i, temp)
		}
	}
}

// The system is linear: scaling power scales the temperature rise.
func TestLinearity(t *testing.T) {
	m := singleChipModel(t, 16)
	amb := m.Config().AmbientC
	r1, err := m.Solve(uniformChipPower(m, 100))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := m.Solve(uniformChipPower(m, 300))
	if err != nil {
		t.Fatal(err)
	}
	d1 := r1.PeakC() - amb
	d3 := r3.PeakC() - amb
	if math.Abs(d3-3*d1) > 0.05*d3 {
		t.Fatalf("temperature rise not linear: ΔT(100W)=%.3f, ΔT(300W)=%.3f", d1, d3)
	}
}

// Quasi-1D analytic validation: a single homogeneous layer with uniform
// power, an (effectively isothermal) spreader and sink. The chip-node
// temperature must match ambient + P·(R_conv + R_half-layer + R_half-spreader)
// computed by hand.
func TestAnalytic1D(t *testing.T) {
	const (
		fpMM   = 16.0   // footprint edge, mm
		tChip  = 1e-3   // layer thickness, m
		kSi    = 150.0  // layer conductivity
		totalW = 100.0  // injected power
		h      = 1000.0 // convection coefficient
	)
	stack := floorplan.Stack{
		W: fpMM, H: fpMM,
		Layers: []floorplan.Layer{{
			Name: "slab", ThicknessM: tChip,
			Background: floorplan.LayerProps{VertK: kSi, LatK: kSi, VolHeatCap: 1e6},
		}},
		ChipLayer: 0,
		Placement: floorplan.Placement{R: 1, W: fpMM, H: fpMM,
			Chiplets: []geom.Rect{{X: 0, Y: 0, W: fpMM, H: fpMM}}},
	}
	cfg := testConfig(32)
	cfg.HeatTransferCoeff = h
	cfg.SpreaderK = 1e6 // isothermal spreader and sink
	cfg.SinkK = 1e6
	m, err := NewModel(stack, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, m.Grid().NumCells())
	per := totalW / float64(len(p))
	for i := range p {
		p[i] = per
	}
	res, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	aFP := (fpMM * 1e-3) * (fpMM * 1e-3)
	aSink := 16 * aFP // sink edge is 4x the footprint edge
	rConv := 1 / (h * aSink)
	rHalfLayer := (tChip / 2) / (kSi * aFP)
	rHalfSpreader := (floorplan.SpreaderThicknessM / 2) / (1e6 * aFP)
	want := cfg.AmbientC + totalW*(rConv+rHalfLayer+rHalfSpreader)
	got := res.PeakC()
	if math.Abs(got-want) > 0.02*(want-cfg.AmbientC) {
		t.Fatalf("peak = %.4f °C, analytic %.4f °C", got, want)
	}
	// With uniform power and isothermal cap the chip layer is uniform too.
	chip := res.ChipT()
	lo, hi := chip[0], chip[0]
	for _, v := range chip {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo > 0.01*(want-cfg.AmbientC) {
		t.Fatalf("chip layer not uniform: spread %.4f °C", hi-lo)
	}
}

// A symmetric placement with symmetric power must produce a symmetric field.
func TestSymmetry(t *testing.T) {
	pl, err := floorplan.PaperOrg(16, 1, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := floorplan.BuildStack(pl)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(stack, testConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Solve(uniformChipPower(m, 400))
	if err != nil {
		t.Fatal(err)
	}
	g := m.Grid()
	chip := res.ChipT()
	for iy := 0; iy < g.Ny; iy++ {
		for ix := 0; ix < g.Nx; ix++ {
			a := chip[g.Index(ix, iy)]
			b := chip[g.Index(g.Nx-1-ix, iy)] // mirror in x
			c := chip[g.Index(ix, g.Ny-1-iy)] // mirror in y
			if math.Abs(a-b) > 0.05 || math.Abs(a-c) > 0.05 {
				t.Fatalf("asymmetry at (%d,%d): %g vs %g vs %g", ix, iy, a, b, c)
			}
		}
	}
}

// More spacing between chiplets must reduce the peak temperature at equal
// total power (the paper's core observation, Fig. 5).
func TestSpacingReducesPeak(t *testing.T) {
	peaks := make([]float64, 0, 3)
	for _, spacing := range []float64{0.5, 4, 8} {
		pl, err := floorplan.UniformGrid(2, spacing)
		if err != nil {
			t.Fatal(err)
		}
		stack, err := floorplan.BuildStack(pl)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(stack, testConfig(32))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Solve(uniformChipPower(m, 400))
		if err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, res.PeakC())
	}
	if !(peaks[0] > peaks[1] && peaks[1] > peaks[2]) {
		t.Fatalf("peaks not decreasing with spacing: %v", peaks)
	}
}

// More chiplets at the same interposer size must reduce peak temperature
// (Fig. 3(b) trend).
func TestMoreChipletsReducePeak(t *testing.T) {
	var peaks []float64
	for _, r := range []int{2, 4} {
		pl, err := floorplan.UniformGridForInterposer(r, 36)
		if err != nil {
			t.Fatal(err)
		}
		stack, err := floorplan.BuildStack(pl)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(stack, testConfig(32))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Solve(uniformChipPower(m, 400))
		if err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, res.PeakC())
	}
	if peaks[1] >= peaks[0] {
		t.Fatalf("4x4 at same interposer should be cooler than 2x2: %v", peaks)
	}
}

// Warm starting from a previous solution must converge to the same field,
// faster.
func TestWarmStart(t *testing.T) {
	m := singleChipModel(t, 32)
	p := uniformChipPower(m, 350)
	cold, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := uniformChipPower(m, 360)
	warm, err := m.SolveWarm(p2, cold)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.Solve(p2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.PeakC()-ref.PeakC()) > 0.05 {
		t.Fatalf("warm-start peak %.4f differs from cold %.4f", warm.PeakC(), ref.PeakC())
	}
	if warm.Iterations > ref.Iterations {
		t.Logf("note: warm start used %d iterations vs cold %d", warm.Iterations, ref.Iterations)
	}
}

// Grid refinement should change the peak only modestly (discretization
// error, not model error).
func TestGridConvergence(t *testing.T) {
	var peaks []float64
	for _, nx := range []int{32, 64} {
		m := singleChipModel(t, nx)
		res, err := m.Solve(uniformChipPower(m, 400))
		if err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, res.PeakC())
	}
	if d := math.Abs(peaks[0] - peaks[1]); d > 3 {
		t.Fatalf("32 vs 64 grid peak differs by %.2f °C: %v", d, peaks)
	}
}

// MaxOverRect/AvgOverRect must agree with direct scans and handle
// sub-cell rectangles.
func TestOverRect(t *testing.T) {
	m := singleChipModel(t, 16)
	p := make([]float64, m.Grid().NumCells())
	p[m.Grid().Index(8, 8)] = 50 // hot spot
	res, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	full := geom.Rect{X: 0, Y: 0, W: 18, H: 18}
	if got, want := res.MaxOverRect(full), res.PeakC(); math.Abs(got-want) > 1e-9 {
		t.Errorf("MaxOverRect(full) = %v, want %v", got, want)
	}
	if res.AvgOverRect(full) >= res.PeakC() {
		t.Errorf("average should be below the peak for a hotspot field")
	}
	// Sub-cell rectangle should return its containing cell's temperature.
	tiny := geom.Rect{X: 9.5, Y: 9.56, W: 0.01, H: 0.01}
	if got := res.MaxOverRect(tiny); got <= m.Config().AmbientC {
		t.Errorf("sub-cell rect lookup returned %v", got)
	}
}

func TestHotspotAboveUniform(t *testing.T) {
	// Concentrating the same power into a quarter of the chip must raise
	// the peak temperature.
	m := singleChipModel(t, 32)
	uni, err := m.Solve(uniformChipPower(m, 200))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, m.Grid().NumCells())
	m.Grid().RasterizeAdd(p, geom.Rect{X: 0, Y: 0, W: 9, H: 9}, 200)
	conc, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if conc.PeakC() <= uni.PeakC() {
		t.Fatalf("concentrated power peak %.2f should exceed uniform peak %.2f",
			conc.PeakC(), uni.PeakC())
	}
}

// The optional secondary (board) heat path must lower the peak and still
// conserve energy.
func TestBoardSecondaryPath(t *testing.T) {
	stack, err := floorplan.BuildStack(floorplan.SingleChip())
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig(16)
	mOff, err := NewModel(stack, base)
	if err != nil {
		t.Fatal(err)
	}
	withBoard := base
	withBoard.BoardHeatTransferCoeff = 500
	mOn, err := NewModel(stack, withBoard)
	if err != nil {
		t.Fatal(err)
	}
	pOff := uniformChipPower(mOff, 300)
	rOff, err := mOff.Solve(pOff)
	if err != nil {
		t.Fatal(err)
	}
	rOn, err := mOn.Solve(uniformChipPower(mOn, 300))
	if err != nil {
		t.Fatal(err)
	}
	if rOn.PeakC() >= rOff.PeakC() {
		t.Fatalf("board path should lower peak: %.2f vs %.2f", rOn.PeakC(), rOff.PeakC())
	}
	if math.Abs(rOn.HeatOutW()-300) > 0.5 {
		t.Fatalf("energy balance broken with board path: %.2f W", rOn.HeatOutW())
	}
	bad := base
	bad.BoardHeatTransferCoeff = -1
	if err := bad.Validate(); err == nil {
		t.Errorf("expected validation error for negative board coefficient")
	}
}

// The paper's Sec. I motivation, quantified: at equal total power, the 3D
// stack runs hotter than the monolithic chip, which runs hotter than a
// spread 2.5D organization; energy balance holds for multi-layer injection.
func TestStackingOrdering3DHotter(t *testing.T) {
	tc := testConfig(16)
	const totalW = 300.0

	m2d := singleChipModel(t, 16)
	r2d, err := m2d.Solve(uniformChipPower(m2d, totalW))
	if err != nil {
		t.Fatal(err)
	}

	stack3d, p3, err := floorplan.BuildStack3D(2)
	if err != nil {
		t.Fatal(err)
	}
	m3d, err := NewModel(stack3d, tc)
	if err != nil {
		t.Fatal(err)
	}
	perLayer := map[int][]float64{}
	for _, l := range p3.CMOSLayers {
		pmap := make([]float64, m3d.Grid().NumCells())
		per := totalW / 2 / float64(len(pmap))
		for i := range pmap {
			pmap[i] = per
		}
		perLayer[l] = pmap
	}
	r3d, err := m3d.SolveMulti(perLayer)
	if err != nil {
		t.Fatal(err)
	}
	peak3d, err := r3d.PeakOverLayers(p3.CMOSLayers)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r3d.HeatOutW()-totalW) > 0.5 {
		t.Fatalf("multi-layer energy balance broken: %.2f W", r3d.HeatOutW())
	}

	pl25, err := floorplan.UniformGrid(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	stack25, err := floorplan.BuildStack(pl25)
	if err != nil {
		t.Fatal(err)
	}
	m25, err := NewModel(stack25, tc)
	if err != nil {
		t.Fatal(err)
	}
	r25, err := m25.Solve(uniformChipPower(m25, totalW))
	if err != nil {
		t.Fatal(err)
	}

	if !(peak3d > r2d.PeakC() && r2d.PeakC() > r25.PeakC()) {
		t.Fatalf("expected 3D (%.1f) > 2D (%.1f) > 2.5D (%.1f)",
			peak3d, r2d.PeakC(), r25.PeakC())
	}
	// The buried die must run hotter than the top die.
	lower, err := r3d.LayerT(p3.CMOSLayers[0])
	if err != nil {
		t.Fatal(err)
	}
	upper, err := r3d.LayerT(p3.CMOSLayers[1])
	if err != nil {
		t.Fatal(err)
	}
	maxOf := func(v []float64) float64 {
		m := v[0]
		for _, x := range v {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(lower) <= maxOf(upper) {
		t.Fatalf("buried die (%.1f) should run hotter than the top die (%.1f)",
			maxOf(lower), maxOf(upper))
	}
}

func TestSolveMultiErrors(t *testing.T) {
	m := singleChipModel(t, 16)
	if _, err := m.SolveMulti(map[int][]float64{99: make([]float64, m.Grid().NumCells())}); err == nil {
		t.Errorf("expected error for out-of-range layer")
	}
	if _, err := m.SolveMulti(map[int][]float64{0: make([]float64, 3)}); err == nil {
		t.Errorf("expected error for wrong map length")
	}
	bad := make([]float64, m.Grid().NumCells())
	bad[0] = -1
	if _, err := m.SolveMulti(map[int][]float64{0: bad}); err == nil {
		t.Errorf("expected error for negative power")
	}
	res, err := m.Solve(make([]float64, m.Grid().NumCells()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.LayerT(99); err == nil {
		t.Errorf("expected error for out-of-range layer read")
	}
	if _, err := res.PeakOverLayers([]int{99}); err == nil {
		t.Errorf("expected error for out-of-range peak read")
	}
}

// fullOverRect is the unbounded scan overRect replaced: every cell center
// on the grid is tested against the rectangle.
func fullOverRect(r *Result, rc geom.Rect, max bool) float64 {
	g := r.model.grid
	chip := r.ChipT()
	best := math.Inf(-1)
	sum, n := 0.0, 0
	for iy := 0; iy < g.Ny; iy++ {
		for ix := 0; ix < g.Nx; ix++ {
			cx, cy := g.CellRect(ix, iy).Center()
			if !rc.ContainsPoint(cx, cy) {
				continue
			}
			t := chip[g.Index(ix, iy)]
			if t > best {
				best = t
			}
			sum += t
			n++
		}
	}
	if n == 0 {
		cx, cy := rc.Center()
		ix, iy := g.CellAt(cx, cy)
		return chip[g.Index(ix, iy)]
	}
	if max {
		return best
	}
	return sum / float64(n)
}

// The bounded scan must return the full scan's bits for any rectangle:
// random ones, sub-cell ones, edges exactly on cell centers and boundaries
// nudged by ±geom.Eps, rectangles partly or wholly outside the grid, and
// negative origins.
func TestOverRectBoundedMatchesFullScan(t *testing.T) {
	for _, nx := range []int{12, 24} {
		m, pmap := gridModel(t, nx)
		res, err := m.Solve(pmap)
		if err != nil {
			t.Fatal(err)
		}
		g := m.Grid()
		cw, ch := g.CellW(), g.CellH()
		rng := rand.New(rand.NewSource(int64(nx)))
		var rects []geom.Rect
		for range 400 {
			rects = append(rects, geom.Rect{
				X: (1.2*rng.Float64() - 0.1) * g.W, Y: (1.2*rng.Float64() - 0.1) * g.H,
				W: rng.Float64() * g.W / 2, H: rng.Float64() * g.H / 2,
			})
		}
		for range 200 { // snapped to cell centers and boundaries, ±Eps
			ix, iy := rng.Intn(g.Nx+2)-1, rng.Intn(g.Ny+2)-1
			half := []float64{0, 0.5}[rng.Intn(2)]
			nudge := []float64{-geom.Eps, 0, geom.Eps}
			rects = append(rects, geom.Rect{
				X: (float64(ix)+half)*cw + nudge[rng.Intn(3)],
				Y: (float64(iy)+half)*ch + nudge[rng.Intn(3)],
				W: float64(rng.Intn(4))*cw + nudge[rng.Intn(3)] + geom.Eps,
				H: float64(rng.Intn(4))*ch + nudge[rng.Intn(3)] + geom.Eps,
			})
		}
		rects = append(rects,
			geom.Rect{X: 0.3 * cw, Y: 0.3 * ch, W: 0.1 * cw, H: 0.1 * ch}, // sub-cell
			geom.Rect{X: -5, Y: -5, W: 3, H: 3},                           // wholly outside, negative
			geom.Rect{X: -cw, Y: -ch, W: 3 * cw, H: 3 * ch},               // straddles the origin
			geom.Rect{X: g.W - cw, Y: g.H - ch, W: 5 * cw, H: 5 * ch},     // past the far corner
			geom.Rect{X: 0, Y: 0, W: g.W, H: g.H},                         // the whole grid
		)
		for i, rc := range rects {
			for _, max := range []bool{true, false} {
				got, want := res.overRect(rc, max), fullOverRect(res, rc, max)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("grid %d rect %d %+v (max=%v): bounded %v, full %v", nx, i, rc, max, got, want)
				}
			}
		}
	}
}
