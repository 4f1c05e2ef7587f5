package raster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/gpipe"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/tiling"
)

// renderTileRef is RenderTileInto over rasterPrimRef.
func renderTileRef(r *Renderer, sc *scene.Scene, prims []gpipe.Primitive, refs []tiling.PrimRef, tileID int, fb *FrameBuffer) TileWork {
	var w TileWork
	rect := r.grid.TileRect(tileID)
	w.Reset(tileID)
	for i := range r.zbuf {
		r.zbuf[i] = math.MaxFloat32
		r.cbuf[i] = ClearColor
	}
	for _, ref := range refs {
		w.PBReads = append(w.PBReads, ref.Addr)
		p := &prims[ref.Prim]
		dc := &sc.DrawCalls[p.Draw]
		rasterPrimRef(r, p, &dc.Material, rect, &w)
		w.Primitives++
	}
	for y := rect.MinY; y <= rect.MaxY; y++ {
		for x := rect.MinX; x <= rect.MaxX; x++ {
			fb.Pixels[y*fb.W+x] = r.cbuf[r.local(x, y, rect)]
		}
	}
	w.FlushLines = fb.AppendTileFlushLines(w.FlushLines, r.grid, tileID)
	return w
}

// rasterPrimRef is the rasterizer before the exact quad rejection and the
// inlined interpolation: every quad of the clipped bbox visited pixel by
// pixel, attributes from the interp closure. The differential tests hold
// rasterPrim to it bit for bit.
func rasterPrimRef(r *Renderer, p *gpipe.Primitive, mat *scene.Material, rect geom.Rect, w *TileWork) {
	v0, v1, v2 := p.V[0], p.V[1], p.V[2]
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
	invArea := 1 / area2

	e12 := makeEdge(v1.Pos.X, v1.Pos.Y, v2.Pos.X, v2.Pos.Y) // λ0
	e20 := makeEdge(v2.Pos.X, v2.Pos.Y, v0.Pos.X, v0.Pos.Y) // λ1
	e01 := makeEdge(v0.Pos.X, v0.Pos.Y, v1.Pos.X, v1.Pos.Y) // λ2

	// Primitive bbox clipped to this tile, snapped to even pixels (quads).
	b := p.ScreenBounds(r.grid.ScreenW, r.grid.ScreenH).Clip(rect)
	if b.Empty() {
		return
	}
	qx0, qy0 := b.MinX&^1, b.MinY&^1
	invW0, invW1, invW2 := 1/v0.Pos.W, 1/v1.Pos.W, 1/v2.Pos.W

	// Attribute interpolation from the three edge values at a pixel center
	// (the barycentrics before normalization by the area).
	interp := func(ev12, ev20, ev01 float32) (z float32, uv geom.Vec2, col geom.Vec3, ok bool) {
		l0 := ev12 * invArea
		l1 := ev20 * invArea
		l2 := ev01 * invArea
		z = l0*v0.Pos.Z + l1*v1.Pos.Z + l2*v2.Pos.Z
		q0 := l0 * invW0
		q1 := l1 * invW1
		q2 := l2 * invW2
		den := q0 + q1 + q2
		if den == 0 {
			return 0, geom.Vec2{}, geom.Vec3{}, false
		}
		inv := 1 / den
		uv = geom.V2(
			(q0*v0.UV.X+q1*v1.UV.X+q2*v2.UV.X)*inv,
			(q0*v0.UV.Y+q1*v1.UV.Y+q2*v2.UV.Y)*inv,
		)
		col = geom.V3(
			(q0*v0.Color.X+q1*v1.Color.X+q2*v2.Color.X)*inv,
			(q0*v0.Color.Y+q1*v1.Color.Y+q2*v2.Color.Y)*inv,
			(q0*v0.Color.Z+q1*v1.Color.Z+q2*v2.Color.Z)*inv,
		)
		return z, uv, col, true
	}

	perFragInstr := mat.Program.InstructionsPerInvocation()
	nTex := mat.Program.TexSamples
	earlyZ := !mat.ForceLateZ

	for qy := qy0; qy <= b.MaxY; qy += 2 {
		for qx := qx0; qx <= b.MaxX; qx += 2 {
			// Per-quad UV derivatives for mip selection (computed lazily
			// when the quad has coverage and textures).
			var duvx, duvy geom.Vec2
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
				ev12 := e12.eval(px, py)
				ev20 := e20.eval(px, py)
				ev01 := e01.eval(px, py)
				if !e12.inside(ev12) || !e20.inside(ev20) || !e01.inside(ev01) {
					continue
				}
				w.PixelsCovered++
				z, uv, col, ok := interp(ev12, ev20, ev01)
				if !ok {
					continue
				}
				li := r.local(x, y, rect)
				if earlyZ && z >= r.zbuf[li] {
					w.FragmentsKilled++
					continue
				}

				// Shade the fragment.
				quad.Fragments++
				w.FragmentsShaded++
				quad.Instr += uint16(perFragInstr)

				var texel geom.Vec3
				if nTex > 0 && len(mat.Textures) > 0 {
					if !haveDeriv {
						_, uvX, _, okX := interp(e12.eval(px+1, py), e20.eval(px+1, py), e01.eval(px+1, py))
						_, uvY, _, okY := interp(e12.eval(px, py+1), e20.eval(px, py+1), e01.eval(px, py+1))
						if okX && okY {
							duvx = uvX.Sub(uv)
							duvy = uvY.Sub(uv)
							haveDeriv = true
							// The derivatives are fixed for the rest of the
							// quad, so each sampled slot's level is too.
							r.levels = r.levels[:0]
							for _, tex := range mat.Textures[:min(nTex, len(mat.Textures))] {
								r.levels = append(r.levels, mipLevel(duvx, duvy, tex.W, tex.H))
							}
						}
					}
					quad.Samples += uint16(nTex)
					for s2 := 0; s2 < nTex; s2++ {
						j := s2 % len(mat.Textures)
						tex := mat.Textures[j]
						level := 0 // what zero derivatives select
						if haveDeriv {
							level = r.levels[j]
						}
						addr := r.sampleFootprint(w, texBefore, tex, uv, level)
						if s2 == 0 {
							texel = sampleColor(tex.ID, addr)
						}
					}
				} else {
					texel = geom.V3(1, 1, 1)
				}

				// Late Z-test after shading.
				if !earlyZ && z >= r.zbuf[li] {
					continue
				}
				if mat.DepthWrite {
					r.zbuf[li] = z
				}
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

// exactW and exactH size the differential tests' screen: 3×2 tiles, the
// last column and row partial and of odd width, so bboxes end on tile
// borders and on odd pixels.
const exactW, exactH = 3*tiling.TileSize - 5, 2*tiling.TileSize - 9

// exactScene has one draw call whose material the mode bits choose:
// texturing (two textures, one of them minified, or the first alone, so
// the second sample wraps onto it), early or late Z, depth writes and the
// blend mode.
func exactScene(mode uint8) *scene.Scene {
	mat := scene.Material{
		Program:    shader.Flat,
		Blend:      scene.BlendMode(mode >> 2 % 3),
		ForceLateZ: mode&0x10 != 0,
		DepthWrite: mode&0x40 == 0,
	}
	if mode&0x20 != 0 {
		mat.Program = shader.Multitexture
		mat.Textures = []*scene.Texture{
			scene.NewTexture(1, 256, 128, 0x4000_0000, 0),
			scene.NewTexture(2, 2, 8, 0x4100_0000, 0),
		}
		if mode&0x80 != 0 {
			mat.Textures = mat.Textures[:1]
		}
	}
	s := scene.NewScene()
	s.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: mat})
	return s
}

// exactPrims is the fuzzed triangle drawn twice over a background
// triangle, so early Z kills and late Z discards occur: the second copy
// sits in front with perspective weights w1, w2 and UVs spanning uvScale
// repeats.
func exactPrims(ax, ay, bx, by, cx, cy, w1, w2, uvScale float32) []gpipe.Primitive {
	fuzzed := func(z float32) gpipe.Primitive {
		var p gpipe.Primitive
		p.V[0] = geom.Vertex{Pos: geom.Vec4{X: ax, Y: ay, Z: z, W: 1}, UV: geom.V2(0, 0), Color: geom.V3(1, 0.5, 0.25)}
		p.V[1] = geom.Vertex{Pos: geom.Vec4{X: bx, Y: by, Z: z, W: w1}, UV: geom.V2(uvScale, 0.25*uvScale), Color: geom.V3(0.5, 1, 0.5)}
		p.V[2] = geom.Vertex{Pos: geom.Vec4{X: cx, Y: cy, Z: z * 0.5, W: w2}, UV: geom.V2(-0.5*uvScale, uvScale), Color: geom.V3(0.25, 0.5, 1)}
		return p
	}
	ps := []gpipe.Primitive{
		tri(-7, -3, 3*exactW, 5, 9, 2*exactH, 0.6),
		fuzzed(0.7),
		fuzzed(0.4),
	}
	for i := range ps {
		ps[i].Seq = i
	}
	return ps
}

// checkMatchesReference renders every tile through RenderTileInto (one
// reused renderer and TileWork) and through renderTileRef, under the
// filter mode&3 picks, and requires identical work traces and pixels.
func checkMatchesReference(t *testing.T, mode uint8, prims []gpipe.Primitive) {
	t.Helper()
	grid := tiling.NewGrid(exactW, exactH)
	sc := exactScene(mode)
	rf := refs(len(prims))
	filter := Filtering(mode & 3 % 3)
	got, want := NewRenderer(grid), NewRenderer(grid)
	got.SetFiltering(filter)
	want.SetFiltering(filter)
	fbGot, fbWant := NewFrameBuffer(exactW, exactH), NewFrameBuffer(exactW, exactH)
	var w TileWork
	for tile := 0; tile < grid.NumTiles(); tile++ {
		got.RenderTileInto(&w, sc, prims, rf, tile, fbGot)
		ref := renderTileRef(want, sc, prims, rf, tile, fbWant)
		if !reflect.DeepEqual(w.Clone(), ref.Clone()) {
			t.Fatalf("mode %#x tile %d: work differs from the reference\n got %+v\nwant %+v\nprims %+v", mode, tile, w.Clone(), ref.Clone(), prims)
		}
	}
	for i := range fbGot.Pixels {
		if fbGot.Pixels[i] != fbWant.Pixels[i] {
			t.Fatalf("mode %#x: pixel (%d,%d) = %08x, reference %08x\nprims %+v", mode, i%exactW, i/exactW, fbGot.Pixels[i], fbWant.Pixels[i], prims)
		}
	}
}

// exactCoords are the adversarial coordinates: pixel centres and the pixel
// borders between them (edges through sample centres exercise the
// top-left rule), tile and screen borders, off-screen and huge values,
// subnormals, and the non-finite values.
var exactCoords = []float32{
	0, 0.5, 1, 1.5, 2, 2.5, 16.5, 31, 31.5, 32, 32.5, 33, 63.5, 64,
	exactW - 1, exactW - 0.5, exactW, exactH - 0.5, exactH,
	-0.5, -1, -40, 200, 1e7, -1e7, 3e38, -3e38, 1e-40,
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// TestRasterMatchesReference holds rasterPrim to rasterPrimRef on seeded
// random triangles, on triangles built from the adversarial coordinates,
// and on zero-area and axis-aligned ones, under every material and filter.
func TestRasterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coord := func(span float32) float32 {
		if rng.Intn(4) == 0 {
			return exactCoords[rng.Intn(len(exactCoords))]
		}
		v := rng.Float32()*span - span/4
		if rng.Intn(3) == 0 {
			v = float32(math.Round(float64(v)*2)) / 2 // pixel centre or border
		}
		return v
	}
	weight := func() float32 {
		switch rng.Intn(8) {
		case 0:
			return exactCoords[rng.Intn(len(exactCoords))]
		case 1:
			return -rng.Float32() * 4
		}
		return 0.25 + rng.Float32()*8
	}
	trials := 1000
	if testing.Short() {
		trials = 200
	}
	for i := 0; i < trials; i++ {
		ax, ay := coord(exactW*1.5), coord(exactH*1.5)
		bx, by := coord(exactW*1.5), coord(exactH*1.5)
		cx, cy := coord(exactW*1.5), coord(exactH*1.5)
		switch rng.Intn(6) {
		case 0: // zero area: a repeated vertex
			cx, cy = ax, ay
		case 1: // zero area: collinear
			cx, cy = 2*bx-ax, 2*by-ay
		case 2: // an axis-aligned edge
			by = ay
		}
		prims := exactPrims(ax, ay, bx, by, cx, cy, weight(), weight(), coord(64))
		checkMatchesReference(t, uint8(rng.Intn(256)), prims)
	}
}

// FuzzRasterMatchesReference is TestRasterMatchesReference's check on
// fuzzed triangles, perspective weights, UV spans and material modes.
func FuzzRasterMatchesReference(f *testing.F) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	f.Add(float32(0), float32(0), float32(60), float32(8), float32(8), float32(60), float32(1), float32(1), float32(1), uint8(0))
	f.Add(float32(0.5), float32(0.5), float32(32.5), float32(0.5), float32(0.5), float32(32.5), float32(3), float32(7), float32(17), uint8(0x26))
	f.Add(float32(-1e7), float32(-3), float32(1e7), float32(-2), float32(40), float32(1e7), float32(2), float32(0.5), float32(200), uint8(0x31))
	f.Add(float32(1), float32(1), inf, float32(5), float32(9), float32(40), float32(1), float32(1), float32(1), uint8(0x22))
	f.Add(float32(1), nan, float32(50), float32(5), float32(9), float32(40), nan, float32(1), inf, uint8(0x5a))
	f.Add(float32(31), float32(31), float32(33), float32(31), float32(31), float32(33), float32(1), float32(1), float32(4), uint8(0x2d))
	f.Add(float32(5), float32(5), float32(5), float32(5), float32(20), float32(20), float32(1), float32(1), float32(1), uint8(0x20))
	f.Add(float32(exactW-1), float32(0), float32(exactW-1), float32(exactH), float32(exactW-3), float32(exactH-1), float32(-2), float32(1), float32(1), uint8(0x61))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, w1, w2, uvScale float32, mode uint8) {
		checkMatchesReference(t, mode, exactPrims(ax, ay, bx, by, cx, cy, w1, w2, uvScale))
	})
}
