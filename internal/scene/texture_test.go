package scene

import (
	"math"
	"math/rand"
	"testing"
)

// texelAddrRef is TexelAddr as first written — division, remainder and
// per-level dimension and offset lookups — recomputing the layout from the
// exported fields alone. The table-driven TexelAddr must equal it for every
// input.
func texelAddrRef(t *Texture, u, v float32, l int) uint64 {
	if l < 0 {
		l = 0
	}
	if l >= t.Levels {
		l = t.Levels - 1
	}
	off := uint64(0)
	for k := 0; k < l; k++ {
		off += uint64(max(1, t.W>>k)*max(1, t.H>>k)) * TexelBytes
	}
	w, h := max(1, t.W>>l), max(1, t.H>>l)
	u -= float32(int(u))
	if u < 0 {
		u += 1
	}
	v -= float32(int(v))
	if v < 0 {
		v += 1
	}
	x := int(u * float32(w))
	y := int(v * float32(h))
	if x >= w {
		x = w - 1
	}
	if y >= h {
		y = h - 1
	}
	blocksPerRow := max(1, w/BlockDim)
	bx, by := x/BlockDim, y/BlockDim
	inX, inY := x%BlockDim, y%BlockDim
	blockIndex := by*blocksPerRow + bx
	texelIndex := blockIndex*(BlockDim*BlockDim) + inY*BlockDim + inX
	return t.Base + off + uint64(texelIndex)*TexelBytes
}

// texelTextures covers square, wide, tall and sub-block levels, full and
// truncated mip chains.
var texelTextures = []*Texture{
	NewTexture(0, 256, 128, 0x4000_0000, 0),
	NewTexture(1, 1, 1, 0x4100_0000, 0),
	NewTexture(2, 2, 8, 0x4200_0000, 0),
	NewTexture(3, 1024, 16, 0x4300_0000, 3),
	NewTexture(4, 64, 64, 0x4400_0000, 1),
}

// texelCoords are the adversarial coordinates: the non-finite values,
// values past every integer conversion's range, negative and wrapping
// values, exactly 1 and the float32 neighbours of the wrap points.
var texelCoords = []float32{
	0, 1, -1, 0.5, -0.5, 0.999999, 1.0000001, -1e-10, 1e-10, 2, -3.75,
	1 << 24, -(1 << 24), 1e10, -1e10, 9.3e18, -9.3e18, 1e30, -1e30,
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

var texelLevels = []int{math.MinInt, -1, 0, 1, 2, 3, 7, 8, 9, 12, math.MaxInt}

// TestTexelAddrMatchesReference checks every texture at every adversarial
// (u, v, level) and at seeded random ones.
func TestTexelAddrMatchesReference(t *testing.T) {
	for _, tx := range texelTextures {
		for _, u := range texelCoords {
			for _, v := range texelCoords {
				for _, l := range texelLevels {
					if got, want := tx.TexelAddr(u, v, l), texelAddrRef(tx, u, v, l); got != want {
						t.Fatalf("texture %d (%dx%d, %d levels) TexelAddr(%g, %g, %d) = %#x, want %#x",
							tx.ID, tx.W, tx.H, tx.Levels, u, v, l, got, want)
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		tx := texelTextures[rng.Intn(len(texelTextures))]
		u := (rng.Float32() - 0.5) * float32(math.Pow(10, float64(rng.Intn(12))))
		v := math.Float32frombits(rng.Uint32())
		l := rng.Intn(14) - 2
		if got, want := tx.TexelAddr(u, v, l), texelAddrRef(tx, u, v, l); got != want {
			t.Fatalf("texture %d TexelAddr(%g, %g, %d) = %#x, want %#x", tx.ID, u, v, l, got, want)
		}
	}
}

// FuzzTexelAddr is TestTexelAddrMatchesReference on fuzzed coordinates,
// levels and textures.
func FuzzTexelAddr(f *testing.F) {
	for i, u := range texelCoords {
		v := texelCoords[(i*7+3)%len(texelCoords)]
		f.Add(u, v, texelLevels[i%len(texelLevels)], uint8(i))
	}
	f.Fuzz(func(t *testing.T, u, v float32, l int, which uint8) {
		tx := texelTextures[int(which)%len(texelTextures)]
		if got, want := tx.TexelAddr(u, v, l), texelAddrRef(tx, u, v, l); got != want {
			t.Fatalf("texture %d (%dx%d, %d levels) TexelAddr(%g, %g, %d) = %#x, want %#x",
				tx.ID, tx.W, tx.H, tx.Levels, u, v, l, got, want)
		}
	})
}
