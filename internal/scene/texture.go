// Package scene describes the input to the rendering pipelines: textures,
// materials, meshes, draw calls and cameras. Scenes are produced procedurally
// by the workloads package; the geometry and raster pipelines consume them.
package scene

import (
	"math/bits"

	"repro/internal/mem"
)

// TexelBytes is the storage size of one RGBA8 texel.
const TexelBytes = 4

// BlockDim is the side of the square texel block stored contiguously: GPUs
// tile texture memory so that a 4×4 RGBA8 block fills exactly one 64-byte
// cache line, giving 2D spatial locality.
const BlockDim = 4

// Texture is a mip-mapped 2D image living in the simulated texture address
// space. Only addresses matter to the simulator; there is no pixel data.
type Texture struct {
	ID     int
	W, H   int    // base-level dimensions in texels (powers of two)
	Levels int    // mip levels (1 = no mipmapping)
	Base   uint64 // start address in the texture region

	// levels describes every level of the full chain down to 1×1, even
	// past Levels, so LevelDims is one clamped lookup; only the first
	// Levels entries have storage (a base address).
	levels     []texLevel
	totalBytes uint64
}

// texLevel is what TexelAddr needs of one mip level, in one record.
type texLevel struct {
	w, h     int
	fw, fh   float32 // w and h as float32
	rowShift uint    // log2 of the level's blocks per row
	base     uint64  // the level's start address
}

// NewTexture lays out a texture with a full mip chain down to 1×1 (or fewer
// levels if maxLevels > 0 limits it). W and H must be powers of two.
func NewTexture(id, w, h int, base uint64, maxLevels int) *Texture {
	if w <= 0 || h <= 0 || w&(w-1) != 0 || h&(h-1) != 0 {
		panic("scene: texture dimensions must be positive powers of two")
	}
	t := &Texture{ID: id, W: w, H: h, Base: base}
	full := bits.Len(uint(max(w, h))) // levels of the full chain down to 1×1
	levels := full
	if maxLevels > 0 && levels > maxLevels {
		levels = maxLevels
	}
	t.Levels = levels
	off := uint64(0)
	lw, lh := w, h
	for l := 0; l < full; l++ {
		lv := texLevel{w: lw, h: lh, fw: float32(lw), fh: float32(lh)}
		// Blocks per row: max(1, lw/BlockDim), a power of two.
		lv.rowShift = uint(bits.Len(uint(max(1, lw/BlockDim)))) - 1
		if l < levels {
			lv.base = base + off
			off += uint64(lw*lh) * TexelBytes
		}
		t.levels = append(t.levels, lv)
		lw = max(1, lw/2)
		lh = max(1, lh/2)
	}
	t.totalBytes = off
	return t
}

// SizeBytes returns the full storage footprint including mips.
func (t *Texture) SizeBytes() uint64 { return t.totalBytes }

// LevelDims returns the dimensions of mip level l: the base dimensions for
// l <= 0, and the halving continued to 1×1 for any l, including levels past
// Levels.
func (t *Texture) LevelDims(l int) (w, h int) {
	lv := &t.levels[min(max(l, 0), len(t.levels)-1)]
	return lv.w, lv.h
}

// TexelAddr returns the byte address of the texel at normalized coordinates
// (u, v) in mip level l, using the blocked (tiled) layout. Coordinates wrap
// (repeat addressing), matching common game usage.
//
// Block dimensions and blocks per row are powers of two, so the block
// arithmetic is shifts and masks. They equal division and remainder for
// every x, y reached: a non-negative one, or a negative one from a
// saturated or huge float conversion, which is a multiple of BlockDim
// (DESIGN.md §16).
func (t *Texture) TexelAddr(u, v float32, l int) uint64 {
	lv := &t.levels[min(max(l, 0), t.Levels-1)]
	// Repeat wrap into [0,1).
	u -= float32(int(u))
	if u < 0 {
		u += 1
	}
	v -= float32(int(v))
	if v < 0 {
		v += 1
	}
	x := int(u * lv.fw)
	y := int(v * lv.fh)
	if x >= lv.w {
		x = lv.w - 1
	}
	if y >= lv.h {
		y = lv.h - 1
	}
	// Blocked layout: blocks of BlockDim×BlockDim texels are contiguous.
	const blockShift = 2 // log2(BlockDim)
	blockIndex := (y>>blockShift)<<lv.rowShift + x>>blockShift
	texelIndex := blockIndex<<(2*blockShift) + (y&(BlockDim-1))<<blockShift + x&(BlockDim-1)
	return lv.base + uint64(texelIndex)*TexelBytes
}

// TextureAllocator hands out non-overlapping texture address ranges within
// the texture region.
type TextureAllocator struct {
	next   uint64
	nextID int
}

// NewTextureAllocator starts allocation at the texture region base.
func NewTextureAllocator() *TextureAllocator {
	return &TextureAllocator{next: mem.TextureBase}
}

// Alloc creates a new texture of the given dimensions with a full mip chain.
func (a *TextureAllocator) Alloc(w, h int) *Texture {
	t := NewTexture(a.nextID, w, h, a.next, 0)
	a.nextID++
	// Keep textures line- and row-aligned.
	a.next += (t.SizeBytes() + 4095) &^ 4095
	return t
}
