package raster

import (
	"math"

	"repro/internal/geom"
	"repro/internal/gpipe"
	"repro/internal/scene"
	"repro/internal/tiling"
)

// ClearColor is the background color of every frame.
const ClearColor uint32 = 0xFF101820

// QuadMeta is the trace record of one shaded 2×2 quad: everything the timing
// engine needs to replay its cost against a shader core.
type QuadMeta struct {
	Fragments uint8  // fragments actually shaded
	Instr     uint16 // total dynamic shader instructions for the quad
	TexStart  uint32 // first texture line index in TileWork.TexLines
	TexCount  uint16 // number of distinct texture line accesses
	// Samples is the number of per-fragment texture samples issued; the
	// quad's fragments coalesce onto TexCount distinct lines (real texture
	// units merge same-line requests within a quad), so hit-ratio
	// accounting uses Samples while timing replays the distinct lines.
	Samples uint16
}

// TileWork is the complete rendering trace of one tile: the Raster Unit's
// workload in program order, plus the memory traffic of the Tile Fetcher
// (PBReads) and the Color Buffer flush (FlushLines).
type TileWork struct {
	TileID     int
	Quads      []QuadMeta
	TexLines   []uint64 // flattened texture line addresses, indexed by quads
	PBReads    []uint64 // Parameter Buffer entry addresses (Tile Fetcher)
	FlushLines []uint64 // Frame Buffer line writes at tile flush

	Instructions    uint64 // total shader instructions (temperature denominator)
	FragmentsShaded int
	FragmentsKilled int // killed by Early-Z
	PixelsCovered   int
	Primitives      int
}

// Reset clears the work to an empty trace for tileID while keeping the
// backing arrays of its slices, so a long-lived TileWork can absorb one tile
// after another without allocating once its slices have grown to the hot
// tile's watermark.
func (w *TileWork) Reset(tileID int) {
	w.TileID = tileID
	w.Quads = w.Quads[:0]
	w.TexLines = w.TexLines[:0]
	w.PBReads = w.PBReads[:0]
	w.FlushLines = w.FlushLines[:0]
	w.Instructions = 0
	w.FragmentsShaded = 0
	w.FragmentsKilled = 0
	w.PixelsCovered = 0
	w.Primitives = 0
}

// Clone deep-copies the work so it stays valid after the source's buffers are
// reused. Empty slices become nil, matching a freshly rendered TileWork, so
// clones of reused and fresh renders are reflect.DeepEqual-identical.
func (w TileWork) Clone() TileWork {
	c := w
	c.Quads = cloneSlice(w.Quads)
	c.TexLines = cloneSlice(w.TexLines)
	c.PBReads = cloneSlice(w.PBReads)
	c.FlushLines = cloneSlice(w.FlushLines)
	return c
}

func cloneSlice[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Filtering selects the texture sampling footprint.
type Filtering int

// Texture filtering modes. The filter determines how many texel lines each
// fragment touches: nearest reads one texel, bilinear a 2×2 footprint (up to
// 4 lines at block corners), trilinear a 2×2 footprint in each of two
// adjacent mip levels.
const (
	FilterNearest Filtering = iota
	FilterBilinear
	FilterTrilinear
)

// Renderer rasterizes tiles. The Z-Buffer and Color Buffer are the on-chip
// tile-sized buffers of the TBR architecture; one Renderer is private to one
// Raster Unit. A Renderer is not safe for concurrent use.
//
// Concurrency contract: RenderTile is a pure function of (scene, prims,
// refs, tileID) plus the receiver's private buffers, which it fully resets
// per tile — it never reads the FrameBuffer and writes only the pixels of
// its own tile. Distinct Renderer instances may therefore render distinct
// tiles of the same frame concurrently, sharing the scene, primitive slice
// and FrameBuffer, and produce results identical to any serial order — and
// a tile may be rendered at any time within its frame, before or after its
// neighbours, since nothing it reads changes during the frame. The engine's
// render-ahead helpers (internal/sim, Config.Workers) render tiles ahead of
// their dispatch on this basis.
type Renderer struct {
	grid   tiling.Grid
	filter Filtering
	zbuf   [tiling.TileSize * tiling.TileSize]float32
	cbuf   [tiling.TileSize * tiling.TileSize]uint32
	// levels holds the current quad's mip level per texture slot once its
	// UV derivatives are known: per-quad scratch, reused across quads.
	levels []int
}

// NewRenderer builds a tile renderer for the given grid with nearest
// filtering.
func NewRenderer(grid tiling.Grid) *Renderer {
	return &Renderer{grid: grid}
}

// SetFiltering selects the texture sampling footprint for subsequent tiles.
func (r *Renderer) SetFiltering(f Filtering) { r.filter = f }

// RenderTile renders one tile: consumes the tile's primitive list in program
// order, performs depth test and blending against the on-chip buffers,
// flushes the Color Buffer into fb, and returns the tile's work trace in
// freshly allocated storage. The steady-state frame loop uses RenderTileInto
// instead, which reuses a caller-owned TileWork.
func (r *Renderer) RenderTile(sc *scene.Scene, prims []gpipe.Primitive, refs []tiling.PrimRef, tileID int, fb *FrameBuffer) TileWork {
	var w TileWork
	r.RenderTileInto(&w, sc, prims, refs, tileID, fb)
	return w
}

// RenderTileInto is RenderTile appending into w's existing storage: w is
// Reset for tileID and its slices grow only past their previous capacity, so
// rendering tile after tile into one TileWork allocates nothing once the
// buffers reach the frame's hot-tile watermark. The produced trace is
// value-identical to RenderTile's (only slice capacities may differ); w's
// slices are owned by the caller and invalidated by the next RenderTileInto
// on the same w.
//
//libra:hotpath
//libra:transient
func (r *Renderer) RenderTileInto(w *TileWork, sc *scene.Scene, prims []gpipe.Primitive, refs []tiling.PrimRef, tileID int, fb *FrameBuffer) {
	rect := r.grid.TileRect(tileID)
	w.Reset(tileID)

	// Reset on-chip buffers (free on real hardware).
	for i := range r.zbuf {
		r.zbuf[i] = math.MaxFloat32
		r.cbuf[i] = ClearColor
	}

	for _, ref := range refs {
		w.PBReads = append(w.PBReads, ref.Addr)
		p := &prims[ref.Prim]
		dc := &sc.DrawCalls[p.Draw]
		r.rasterPrim(p, &dc.Material, rect, w)
		w.Primitives++
	}

	// Flush Color Buffer to the Frame Buffer.
	for y := rect.MinY; y <= rect.MaxY; y++ {
		for x := rect.MinX; x <= rect.MaxX; x++ {
			fb.Pixels[y*fb.W+x] = r.cbuf[r.local(x, y, rect)]
		}
	}
	w.FlushLines = fb.AppendTileFlushLines(w.FlushLines, r.grid, tileID)
}

// Reset restores the renderer to its just-constructed state. The on-chip
// Z/Color buffers are re-cleared at every tile anyway, so Reset exists to
// make the reuse contract explicit: a Reset renderer is indistinguishable
// from a new one (the filtering mode, part of the configuration rather than
// per-tile state, is preserved).
func (r *Renderer) Reset() {
	for i := range r.zbuf {
		r.zbuf[i] = math.MaxFloat32
		r.cbuf[i] = ClearColor
	}
}

// local maps screen pixel (x, y) to the tile-local buffer index.
func (r *Renderer) local(x, y int, rect geom.Rect) int {
	return (y-rect.MinY)*tiling.TileSize + (x - rect.MinX)
}

// edge precomputation for one triangle edge: e(x, y) = A*x + B*y + C, with
// the top-left fill rule bias folded into the comparison.
type edge struct {
	A, B, C float32
	topLeft bool
}

func makeEdge(ax, ay, bx, by float32) edge {
	// e(p) = (bx-ax)(py-ay) - (by-ay)(px-ax), rearranged to A*px+B*py+C.
	a := -(by - ay)
	b := bx - ax
	c := -(a*ax + b*ay)
	// Top-left rule in a y-up space: an edge is "left" if it goes down
	// (dy < 0) and "top" if it is horizontal and points left.
	dy := by - ay
	dx := bx - ax
	topLeft := dy < 0 || (dy == 0 && dx < 0)
	return edge{A: a, B: b, C: c, topLeft: topLeft}
}

func (e edge) eval(x, y float32) float32 { return e.A*x + e.B*y + e.C }

func (e edge) inside(v float32) bool {
	if v > 0 {
		return true
	}
	return v == 0 && e.topLeft
}

// reaches reports whether any sample centre of the pixel box [x0,x1]×[y0,y1]
// can be inside the edge. eval rounds monotonically in x and y, so its
// largest value over the box is at the corner the signs of A and B pick,
// and inside is monotone in that value: false is exact, not conservative —
// no sample of the box is inside (DESIGN.md §16). It evaluates the corner
// through the same eval as the pixel loop, so both round alike.
func (e edge) reaches(x0, y0, x1, y1 int) bool {
	x, y := x0, y0
	if e.A > 0 {
		x = x1
	}
	if e.B > 0 {
		y = y1
	}
	return e.inside(e.eval(float32(x)+0.5, float32(y)+0.5))
}

// triangle is one primitive's setup: its three edges and what perspective-
// correct interpolation needs besides the edge values.
type triangle struct {
	e12, e20, e01 edge // λ0, λ1, λ2
	v0, v1, v2    *geom.Vertex
	invArea       float32
	invW0, invW1  float32
	invW2         float32
}

// mayCover reports whether the triangle can cover a sample of the pixel box
// [x0,x1]×[y0,y1]; false means it covers none.
func (t *triangle) mayCover(x0, y0, x1, y1 int) bool {
	return t.e12.reaches(x0, y0, x1, y1) && t.e20.reaches(x0, y0, x1, y1) && t.e01.reaches(x0, y0, x1, y1)
}

// uvAt interpolates the UV alone at the sample centre (px, py), with the
// fragment path's float operations in its order; ok is false where the
// perspective denominator vanishes.
func (t *triangle) uvAt(px, py float32) (uv geom.Vec2, ok bool) {
	q0 := t.e12.eval(px, py) * t.invArea * t.invW0
	q1 := t.e20.eval(px, py) * t.invArea * t.invW1
	q2 := t.e01.eval(px, py) * t.invArea * t.invW2
	den := q0 + q1 + q2
	if den == 0 {
		return geom.Vec2{}, false
	}
	inv := 1 / den
	return geom.V2(
		(q0*t.v0.UV.X+q1*t.v1.UV.X+q2*t.v2.UV.X)*inv,
		(q0*t.v0.UV.Y+q1*t.v1.UV.Y+q2*t.v2.UV.Y)*inv,
	), true
}

// rasterPrim rasterizes one triangle into the tile, quad by quad. Quad rows
// and quads no sample of which the triangle covers are skipped before any
// per-pixel work (edge.reaches).
func (r *Renderer) rasterPrim(p *gpipe.Primitive, mat *scene.Material, rect geom.Rect, w *TileWork) {
	v0, v1, v2 := &p.V[0], &p.V[1], &p.V[2]
	area2 := geom.TriangleArea2(
		geom.V2(v0.Pos.X, v0.Pos.Y),
		geom.V2(v1.Pos.X, v1.Pos.Y),
		geom.V2(v2.Pos.X, v2.Pos.Y),
	)
	if area2 == 0 || geom.Abs(area2) < 1e-9 {
		return
	}
	if area2 < 0 {
		// Normalize to counter-clockwise so edge signs are uniform
		// (surfaces are double-sided: no backface culling, common in
		// mobile 2D/UI content).
		v1, v2 = v2, v1
		area2 = -area2
	}
	t := triangle{
		e12:     makeEdge(v1.Pos.X, v1.Pos.Y, v2.Pos.X, v2.Pos.Y),
		e20:     makeEdge(v2.Pos.X, v2.Pos.Y, v0.Pos.X, v0.Pos.Y),
		e01:     makeEdge(v0.Pos.X, v0.Pos.Y, v1.Pos.X, v1.Pos.Y),
		v0:      v0,
		v1:      v1,
		v2:      v2,
		invArea: 1 / area2,
		invW0:   1 / v0.Pos.W,
		invW1:   1 / v1.Pos.W,
		invW2:   1 / v2.Pos.W,
	}

	// Primitive bbox clipped to this tile, snapped to even pixels (quads).
	b := p.ScreenBounds(r.grid.ScreenW, r.grid.ScreenH).Clip(rect)
	if b.Empty() {
		return
	}
	qx0, qy0 := b.MinX&^1, b.MinY&^1

	perFragInstr := mat.Program.InstructionsPerInvocation()
	nTex := mat.Program.TexSamples
	textured := nTex > 0 && len(mat.Textures) > 0
	// Sample slots past the texture count wrap onto earlier slots: the same
	// texture at the same UV and level, whose footprint lines the earlier
	// slot has already added to the quad (appendUniqueLine). Only the
	// distinct slots are sampled; every slot still counts in Samples.
	var texs []*scene.Texture
	if textured {
		texs = mat.Textures[:min(nTex, len(mat.Textures))]
	}
	earlyZ := !mat.ForceLateZ

	rowsReached := false
	for qy := qy0; qy <= b.MaxY; qy += 2 {
		y0, y1 := max(qy, b.MinY), min(qy+1, b.MaxY)
		if !t.mayCover(b.MinX, y0, b.MaxX, y1) {
			if rowsReached {
				break // the rows mayCover passes are contiguous
			}
			continue
		}
		rowsReached = true
		// So are the quads of a row: find the first from the left and the
		// last from the right, and walk the quads between them untested.
		lo, hi := qx0, b.MaxX&^1
		for lo <= hi && !t.mayCover(max(lo, b.MinX), y0, min(lo+1, b.MaxX), y1) {
			lo += 2
		}
		for hi > lo && !t.mayCover(max(hi, b.MinX), y0, min(hi+1, b.MaxX), y1) {
			hi -= 2
		}
		for qx := lo; qx <= hi; qx += 2 {
			// Per-quad UV derivatives for mip selection (computed lazily
			// when the quad has coverage and textures).
			haveDeriv := false

			var quad QuadMeta
			quad.TexStart = uint32(len(w.TexLines))
			texBefore := len(w.TexLines)

			for s := 0; s < 4; s++ {
				x := qx + (s & 1)
				y := qy + (s >> 1)
				if x < b.MinX || x > b.MaxX || y < b.MinY || y > b.MaxY {
					continue
				}
				px, py := float32(x)+0.5, float32(y)+0.5
				ev12 := t.e12.eval(px, py)
				if !t.e12.inside(ev12) {
					continue
				}
				ev20 := t.e20.eval(px, py)
				if !t.e20.inside(ev20) {
					continue
				}
				ev01 := t.e01.eval(px, py)
				if !t.e01.inside(ev01) {
					continue
				}
				w.PixelsCovered++
				// Perspective-correct interpolation from the edge values
				// (the barycentrics before normalization by the area).
				l0 := ev12 * t.invArea
				l1 := ev20 * t.invArea
				l2 := ev01 * t.invArea
				z := l0*v0.Pos.Z + l1*v1.Pos.Z + l2*v2.Pos.Z
				q0 := l0 * t.invW0
				q1 := l1 * t.invW1
				q2 := l2 * t.invW2
				den := q0 + q1 + q2
				if den == 0 {
					continue
				}
				li := r.local(x, y, rect)
				if earlyZ && z >= r.zbuf[li] {
					w.FragmentsKilled++
					continue
				}
				inv := 1 / den

				// Shade the fragment.
				quad.Fragments++
				w.FragmentsShaded++
				quad.Instr += uint16(perFragInstr)

				texel := geom.V3(1, 1, 1)
				if textured {
					uv := geom.V2(
						(q0*v0.UV.X+q1*v1.UV.X+q2*v2.UV.X)*inv,
						(q0*v0.UV.Y+q1*v1.UV.Y+q2*v2.UV.Y)*inv,
					)
					if !haveDeriv {
						uvX, okX := t.uvAt(px+1, py)
						uvY, okY := t.uvAt(px, py+1)
						if okX && okY {
							duvx, duvy := uvX.Sub(uv), uvY.Sub(uv)
							haveDeriv = true
							// The derivatives are fixed for the rest of the
							// quad, so each sampled slot's level is too.
							r.levels = r.levels[:0]
							for _, tex := range texs {
								r.levels = append(r.levels, mipLevel(duvx, duvy, tex.W, tex.H))
							}
						}
					}
					quad.Samples += uint16(nTex)
					for j, tex := range texs {
						level := 0 // what zero derivatives select
						if haveDeriv {
							level = r.levels[j]
						}
						addr := r.sampleFootprint(w, texBefore, tex, uv, level)
						if j == 0 {
							texel = sampleColor(tex.ID, addr)
						}
					}
				}

				// Late Z-test after shading.
				if !earlyZ && z >= r.zbuf[li] {
					continue
				}
				if mat.DepthWrite {
					r.zbuf[li] = z
				}
				col := geom.V3(
					(q0*v0.Color.X+q1*v1.Color.X+q2*v2.Color.X)*inv,
					(q0*v0.Color.Y+q1*v1.Color.Y+q2*v2.Color.Y)*inv,
					(q0*v0.Color.Z+q1*v1.Color.Z+q2*v2.Color.Z)*inv,
				)
				r.cbuf[li] = blendPixel(mat.Blend, r.cbuf[li], texel.Mul(col))
			}
			if quad.Fragments > 0 {
				quad.TexCount = uint16(len(w.TexLines) - texBefore)
				w.Quads = append(w.Quads, quad)
				w.Instructions += uint64(quad.Instr)
			}
		}
	}
}

// sampleFootprint emits the texel-line accesses of one filtered texture
// sample at (uv, level) into the tile work and returns the base texel
// address (used for the procedural color).
func (r *Renderer) sampleFootprint(w *TileWork, texBefore int, tex *scene.Texture, uv geom.Vec2, level int) uint64 {
	base := tex.TexelAddr(uv.X, uv.Y, level)
	appendUniqueLine(&w.TexLines, texBefore, base&^63)
	if r.filter >= FilterBilinear {
		lw, lh := tex.LevelDims(level)
		du := 1 / float32(lw)
		dv := 1 / float32(lh)
		appendUniqueLine(&w.TexLines, texBefore, tex.TexelAddr(uv.X+du, uv.Y, level)&^63)
		appendUniqueLine(&w.TexLines, texBefore, tex.TexelAddr(uv.X, uv.Y+dv, level)&^63)
		appendUniqueLine(&w.TexLines, texBefore, tex.TexelAddr(uv.X+du, uv.Y+dv, level)&^63)
	}
	if r.filter == FilterTrilinear && level+1 < tex.Levels {
		appendUniqueLine(&w.TexLines, texBefore, tex.TexelAddr(uv.X, uv.Y, level+1)&^63)
	}
	return base
}

// appendUniqueLine appends line to *dst if it is not already present among
// the entries added for the current quad (from index start on).
func appendUniqueLine(dst *[]uint64, start int, line uint64) {
	s := *dst
	for i := start; i < len(s); i++ {
		if s[i] == line {
			return
		}
	}
	*dst = append(*dst, line)
}

// nonFiniteLevel is the mip level of a non-finite footprint (UV derivatives
// overflowing float32, or NaN). TexelAddr clamps it to level 0, LevelDims
// answers the base dimensions, and trilinear's level+1 clamps to 0 as well.
// It is what a float→int conversion of +Inf or NaN yields on amd64, stated
// explicitly so the level does not depend on the CPU.
const nonFiniteLevel = math.MinInt

// mipLevel selects the mip level from screen-space UV derivatives by the
// standard floor(log2(texel footprint)) rule. With rho the larger squared
// footprint that is floor(log2(rho)/2): for rho > 1, half the unbiased
// exponent of rho, read exactly from its float bits (DESIGN.md §16).
func mipLevel(duvx, duvy geom.Vec2, texW, texH int) int {
	fx := duvx.X * float32(texW)
	fy := duvx.Y * float32(texH)
	gx := duvy.X * float32(texW)
	gy := duvy.Y * float32(texH)
	// The builtin max propagates NaN and +Inf like math.Max.
	rho := float64(max(fx*fx+fy*fy, gx*gx+gy*gy))
	if rho <= 1 {
		return 0
	}
	exp := int(math.Float64bits(rho)>>52) & 0x7FF
	if exp == 0x7FF { // +Inf or NaN
		return nonFiniteLevel
	}
	return (exp - 1023) >> 1
}

// sampleColor is the procedural stand-in for texel data: a deterministic
// color derived from the texture id and texel address, so that the final
// image depends on real sampling positions (and is scheduler-invariant).
func sampleColor(texID int, addr uint64) geom.Vec3 {
	h := addr*0x9E3779B97F4A7C15 + uint64(texID)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	r := channel[h&0xFF]
	g := channel[(h>>8)&0xFF]
	b := channel[(h>>16)&0xFF]
	return geom.V3(0.25+0.75*r, 0.25+0.75*g, 0.25+0.75*b)
}

// channel maps an 8-bit channel value c to float32(c)/255.
var channel = func() (t [256]float32) {
	for c := range t {
		t[c] = float32(c) / 255
	}
	return t
}()

// blendPixel combines a shaded color with the Color Buffer contents.
func blendPixel(mode scene.BlendMode, dst uint32, src geom.Vec3) uint32 {
	switch mode {
	case scene.BlendOpaque:
		return packColor(src)
	case scene.BlendAdditive:
		d := unpackColor(dst)
		return packColor(geom.V3(
			geom.Clamp(d.X+src.X, 0, 1),
			geom.Clamp(d.Y+src.Y, 0, 1),
			geom.Clamp(d.Z+src.Z, 0, 1),
		))
	default: // BlendAlpha with the fixed source alpha of sprite content
		const alpha = 0.75
		d := unpackColor(dst)
		return packColor(geom.V3(
			src.X*alpha+d.X*(1-alpha),
			src.Y*alpha+d.Y*(1-alpha),
			src.Z*alpha+d.Z*(1-alpha),
		))
	}
}

func packColor(c geom.Vec3) uint32 {
	r := uint32(geom.Clamp(c.X, 0, 1) * 255)
	g := uint32(geom.Clamp(c.Y, 0, 1) * 255)
	b := uint32(geom.Clamp(c.Z, 0, 1) * 255)
	return 0xFF000000 | r<<16 | g<<8 | b
}

func unpackColor(p uint32) geom.Vec3 {
	return geom.V3(channel[(p>>16)&0xFF], channel[(p>>8)&0xFF], channel[p&0xFF])
}
