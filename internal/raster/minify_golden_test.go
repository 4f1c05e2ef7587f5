package raster

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/geom"
	"repro/internal/gpipe"
	"repro/internal/scene"
	"repro/internal/shader"
	"repro/internal/tiling"
)

// minifiedPrim builds a perspective triangle for draw 0 whose UVs span
// scale repeats, so its quads select mip levels well above 0 that vary
// across the tile.
func minifiedPrim(ax, ay, bx, by, cx, cy, scale float32, seq int) gpipe.Primitive {
	var p gpipe.Primitive
	p.V[0] = geom.Vertex{Pos: geom.Vec4{X: ax, Y: ay, Z: 0.5, W: 1}, UV: geom.V2(0, 0), Color: geom.V3(1, 1, 1)}
	p.V[1] = geom.Vertex{Pos: geom.Vec4{X: bx, Y: by, Z: 0.4, W: 3}, UV: geom.V2(scale, 0.25*scale), Color: geom.V3(1, 0.5, 1)}
	p.V[2] = geom.Vertex{Pos: geom.Vec4{X: cx, Y: cy, Z: 0.3, W: 7}, UV: geom.V2(0.125*scale, scale), Color: geom.V3(0.5, 1, 1)}
	p.Seq = seq
	return p
}

// goldenMinified pins the footprints of minified, perspective, two-texture
// sampling per filter: an FNV-1a hash over the tile's quads, texture lines
// and flushed pixels. The game frames behind the golden frame and filter
// digests sample mip level 0 only, so this is the pin on the levels above.
var goldenMinified = map[Filtering]uint64{
	FilterNearest:   0xe569d6a9c0a8e4a9,
	FilterBilinear:  0xeccd7dd5833fe708,
	FilterTrilinear: 0xbd59059fa4030425,
}

func TestGoldenMinifiedFootprints(t *testing.T) {
	grid := tiling.NewGrid(64, 64)
	sc := scene.NewScene()
	sc.Add(scene.DrawCall{Mesh: scene.NewQuad(1, 1), Material: scene.Material{
		Program: shader.Multitexture,
		Textures: []*scene.Texture{
			scene.NewTexture(1, 1024, 1024, 0x4000_0000, 0),
			scene.NewTexture(2, 64, 256, 0x4100_0000, 5),
		},
		Blend: scene.BlendOpaque, DepthWrite: true,
	}})
	var prims []gpipe.Primitive
	for i, scale := range []float32{0.5, 3, 17, 200} {
		o := float32(i)
		prims = append(prims, minifiedPrim(o, o, 32-o, 2*o, 3*o, 32-o, scale, i))
	}
	for _, f := range []Filtering{FilterNearest, FilterBilinear, FilterTrilinear} {
		r := NewRenderer(grid)
		r.SetFiltering(f)
		fb := NewFrameBuffer(64, 64)
		w := r.RenderTile(sc, prims, refs(len(prims)), 0, fb)

		hs := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			hs.Write(buf[:])
		}
		for _, q := range w.Quads {
			put(uint64(q.Fragments))
			put(uint64(q.Instr))
			put(uint64(q.TexStart))
			put(uint64(q.TexCount))
			put(uint64(q.Samples))
		}
		for _, l := range w.TexLines {
			put(l)
		}
		put(fb.Hash())
		got := hs.Sum64()
		if want, ok := goldenMinified[f]; !ok || got != want {
			t.Errorf("filter %d: footprint digest %#x, golden %#x (recorded: %v)", f, got, want, ok)
		}
	}
}
