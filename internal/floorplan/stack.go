package floorplan

import (
	"fmt"

	"chiplet25d/internal/geom"
	"chiplet25d/internal/materials"
)

// Layer thicknesses from Table I, in meters.
const (
	SinkThicknessM       = 6.9e-3
	SpreaderThicknessM   = 1.0e-3
	TIMThicknessM        = 20e-6
	ChipThicknessM       = 150e-6
	MicrobumpThicknessM  = 10e-6
	InterposerThicknessM = 110e-6
	C4ThicknessM         = 70e-6
	SubstrateThicknessM  = 200e-6
)

// LayerProps are the effective thermal properties of a region within a
// layer. Vertical and lateral conductivities may differ for columnar
// composites (bump and TSV layers).
type LayerProps struct {
	VertK      float64 // W/(m·K), through-layer
	LatK       float64 // W/(m·K), in-plane
	VolHeatCap float64 // J/(m³·K)
}

func propsOf(m materials.Material) LayerProps {
	return LayerProps{VertK: m.K, LatK: m.K, VolHeatCap: m.VolHeatCap}
}

func propsOfComposite(c materials.Composite) LayerProps {
	return LayerProps{VertK: c.VerticalK(), LatK: c.LateralK(), VolHeatCap: c.VolHeatCap()}
}

// Block assigns material properties to a rectangular region of a layer.
type Block struct {
	Rect  geom.Rect
	Props LayerProps
}

// Layer is one horizontal slice of the package stack. Regions not covered
// by any Block take the Background properties.
type Layer struct {
	Name       string
	ThicknessM float64
	Background LayerProps
	Blocks     []Block
}

// Stack is the ordered package layer stack (bottom-up: substrate first, TIM
// last) over a common footprint. The spreader and heat sink above the TIM
// are modeled by the thermal solver (they extend beyond the footprint).
type Stack struct {
	// W, H is the common footprint in mm (interposer size, or chip size for
	// the 2D baseline).
	W, H float64
	// Layers, ordered bottom (substrate) to top (TIM).
	Layers []Layer
	// ChipLayer indexes the CMOS layer carrying the heat sources.
	ChipLayer int
	// Placement records the organization this stack was built from.
	Placement Placement
}

// BuildStack assembles the Table I layer stack for a placement. The 2D
// baseline omits the interposer and microbump layers (chip directly on the
// organic substrate via C4 bumps); 2.5D stacks include the full set with
// epoxy filling the inter-chiplet regions of the CMOS and microbump layers.
func BuildStack(p Placement) (Stack, error) {
	if err := p.Validate(); err != nil {
		return Stack{}, err
	}
	si := propsOf(materials.Silicon)
	epoxy := propsOf(materials.Epoxy)
	fr4 := propsOf(materials.FR4)
	tim := propsOf(materials.TIM)
	c4 := propsOfComposite(materials.C4Layer)
	ubump := propsOfComposite(materials.MicrobumpLayer)
	interp := propsOfComposite(materials.InterposerLayer)

	chipletBlocks := func(props LayerProps) []Block {
		blocks := make([]Block, len(p.Chiplets))
		for i, c := range p.Chiplets {
			blocks[i] = Block{Rect: c, Props: props}
		}
		return blocks
	}

	var s Stack
	s.W, s.H = p.W, p.H
	s.Placement = p
	if p.Is2D() {
		s.Layers = []Layer{
			{Name: "substrate", ThicknessM: SubstrateThicknessM, Background: fr4},
			{Name: "c4", ThicknessM: C4ThicknessM, Background: c4},
			{Name: "chip", ThicknessM: ChipThicknessM, Background: si},
			{Name: "tim", ThicknessM: TIMThicknessM, Background: tim},
		}
		s.ChipLayer = 2
		return s, nil
	}
	s.Layers = []Layer{
		{Name: "substrate", ThicknessM: SubstrateThicknessM, Background: fr4},
		{Name: "c4", ThicknessM: C4ThicknessM, Background: c4},
		{Name: "interposer", ThicknessM: InterposerThicknessM, Background: interp},
		{Name: "microbump", ThicknessM: MicrobumpThicknessM, Background: epoxy, Blocks: chipletBlocks(ubump)},
		{Name: "chiplets", ThicknessM: ChipThicknessM, Background: epoxy, Blocks: chipletBlocks(si)},
		{Name: "tim", ThicknessM: TIMThicknessM, Background: tim},
	}
	s.ChipLayer = 4
	return s, nil
}

// RasterizeLayer computes per-cell effective properties of a layer on the
// given grid by area-weighted blending of block and background properties.
func RasterizeLayer(l Layer, g geom.Grid) []LayerProps {
	n := g.NumCells()
	cov := make([]float64, n)
	vert := make([]float64, n)
	lat := make([]float64, n)
	hc := make([]float64, n)
	frac := make([]float64, n)
	for _, b := range l.Blocks {
		clear(frac)
		g.CoverageFraction(frac, b.Rect)
		for i, f := range frac {
			if f == 0 {
				continue
			}
			cov[i] += f
			vert[i] += f * b.Props.VertK
			lat[i] += f * b.Props.LatK
			hc[i] += f * b.Props.VolHeatCap
		}
	}
	out := make([]LayerProps, n)
	for i := 0; i < n; i++ {
		rest := 1 - cov[i]
		if rest < 0 {
			rest = 0 // overlapping blocks would be a floorplan bug; clamp defensively
		}
		out[i] = LayerProps{
			VertK:      vert[i] + rest*l.Background.VertK,
			LatK:       lat[i] + rest*l.Background.LatK,
			VolHeatCap: hc[i] + rest*l.Background.VolHeatCap,
		}
	}
	return out
}

// Validate checks stack-level invariants.
func (s Stack) Validate() error {
	if len(s.Layers) == 0 {
		return fmt.Errorf("floorplan: stack has no layers")
	}
	if s.ChipLayer < 0 || s.ChipLayer >= len(s.Layers) {
		return fmt.Errorf("floorplan: chip layer index %d out of range", s.ChipLayer)
	}
	for _, l := range s.Layers {
		if l.ThicknessM <= 0 {
			return fmt.Errorf("floorplan: layer %q has non-positive thickness", l.Name)
		}
		if l.Background.VertK <= 0 || l.Background.LatK <= 0 {
			return fmt.Errorf("floorplan: layer %q has non-positive background conductivity", l.Name)
		}
		for _, b := range l.Blocks {
			if b.Props.VertK <= 0 || b.Props.LatK <= 0 {
				return fmt.Errorf("floorplan: layer %q block %v has non-positive conductivity", l.Name, b.Rect)
			}
		}
	}
	return nil
}
