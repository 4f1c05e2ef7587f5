package raster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/scene"
)

// logMipLevel is the logarithm form of mipLevel's rule, kept as the
// reference the exact-exponent implementation must reproduce for every
// finite footprint.
func logMipLevel(duvx, duvy geom.Vec2, texW, texH int) int {
	fx := duvx.X * float32(texW)
	fy := duvx.Y * float32(texH)
	gx := duvy.X * float32(texW)
	gy := duvy.Y * float32(texH)
	rho := math.Max(float64(fx*fx+fy*fy), float64(gx*gx+gy*gy))
	if rho <= 1 {
		return 0
	}
	return int(0.5 * math.Log2(rho))
}

// TestMipLevelMatchesLog scans float32 footprints within ±20k ULPs of
// √(2^k) for every k in [-10, 64) — so rho straddles every exponent
// boundary, even and odd — placed in a random derivative component beside
// smaller random ones, on random power-of-two textures.
func TestMipLevelMatchesLog(t *testing.T) {
	const ulps = 20000
	rng := rand.New(rand.NewSource(1))
	for k := -10; k < 64; k++ {
		center := math.Float32bits(float32(math.Sqrt(math.Ldexp(1, k))))
		for d := -ulps; d <= ulps; d++ {
			v := math.Float32frombits(uint32(int64(center) + int64(d)))
			texW, texH := 1<<rng.Intn(13), 1<<rng.Intn(13)
			// Footprint components f = derivative * dimension; dividing by a
			// power of two is exact, so the scanned value reaches mipLevel
			// unrounded.
			var f [4]float32
			for i := range f {
				f[i] = v * rng.Float32() / 64
				if rng.Intn(2) == 0 {
					f[i] = -f[i]
				}
			}
			f[rng.Intn(4)] = v
			duvx := geom.V2(f[0]/float32(texW), f[1]/float32(texH))
			duvy := geom.V2(f[2]/float32(texW), f[3]/float32(texH))
			got, want := mipLevel(duvx, duvy, texW, texH), logMipLevel(duvx, duvy, texW, texH)
			if got != want {
				t.Fatalf("k=%d v=%g (%#x) on %dx%d: mipLevel %d, log rule %d",
					k, v, math.Float32bits(v), texW, texH, got, want)
			}
		}
	}
}

// TestMipLevelNonFinite pins the level of an overflowing or NaN footprint
// and what the samplers make of it: level 0 everywhere, including
// trilinear's second level.
func TestMipLevelNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	for _, c := range []struct {
		name       string
		duvx, duvy geom.Vec2
	}{
		{"overflow", geom.V2(1e30, 0), geom.V2(0, 0)},
		{"+Inf", geom.V2(float32(math.Inf(1)), 0), geom.V2(0, 0)},
		{"NaN", geom.V2(nan, 0), geom.V2(0, 0)},
		{"NaN beside overflow", geom.V2(nan, 0), geom.V2(1e30, 0)},
		{"overflow beside NaN", geom.V2(1e30, 0), geom.V2(0, nan)},
		{"NaN beside finite", geom.V2(0.5, 0), geom.V2(0, nan)},
	} {
		if got := mipLevel(c.duvx, c.duvy, 256, 256); got != nonFiniteLevel {
			t.Errorf("%s: mipLevel = %d, want nonFiniteLevel %d", c.name, got, nonFiniteLevel)
		}
	}

	tex := scene.NewTexture(1, 256, 128, 0x4000_0000, 0)
	if w, h := tex.LevelDims(nonFiniteLevel); w != 256 || h != 128 {
		t.Errorf("LevelDims(nonFiniteLevel) = %dx%d, want the base 256x128", w, h)
	}
	for _, l := range []int{nonFiniteLevel, nonFiniteLevel + 1} {
		if got, want := tex.TexelAddr(0.3, 0.7, l), tex.TexelAddr(0.3, 0.7, 0); got != want {
			t.Errorf("TexelAddr(level %d) = %#x, want level 0's %#x", l, got, want)
		}
	}
	// Trilinear at the non-finite level is bilinear at level 0: its second
	// level clamps back onto level 0 and deduplicates.
	uv := geom.V2(0.3, 0.7)
	var tri, bi TileWork
	(&Renderer{filter: FilterTrilinear}).sampleFootprint(&tri, 0, tex, uv, nonFiniteLevel)
	(&Renderer{filter: FilterBilinear}).sampleFootprint(&bi, 0, tex, uv, 0)
	if len(tri.TexLines) != len(bi.TexLines) {
		t.Fatalf("trilinear non-finite footprint %x, want bilinear level-0 %x", tri.TexLines, bi.TexLines)
	}
	for i := range tri.TexLines {
		if tri.TexLines[i] != bi.TexLines[i] {
			t.Fatalf("trilinear non-finite footprint %x, want bilinear level-0 %x", tri.TexLines, bi.TexLines)
		}
	}
}

// TestChannelTable checks every entry of sampleColor's channel table
// against the division it replaces, bit for bit.
func TestChannelTable(t *testing.T) {
	for c := uint64(0); c < 256; c++ {
		if got, want := math.Float32bits(channel[c]), math.Float32bits(float32(c)/255); got != want {
			t.Errorf("channel[%d] = %#x, want %#x", c, got, want)
		}
	}
}
