package tiling

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// TileSize is the tile edge in pixels (Table I: 32×32).
const TileSize = 32

// Grid maps the screen onto the tile grid.
type Grid struct {
	ScreenW, ScreenH int
	TilesX, TilesY   int
}

// NewGrid builds the tile grid covering a screen; partial edge tiles are
// included (clamped at raster time).
func NewGrid(screenW, screenH int) Grid {
	if screenW <= 0 || screenH <= 0 {
		panic(fmt.Sprintf("tiling: invalid screen %dx%d", screenW, screenH))
	}
	return Grid{
		ScreenW: screenW,
		ScreenH: screenH,
		TilesX:  (screenW + TileSize - 1) / TileSize,
		TilesY:  (screenH + TileSize - 1) / TileSize,
	}
}

// NumTiles returns the tile count of the grid.
func (g Grid) NumTiles() int { return g.TilesX * g.TilesY }

// TileID returns the flat id of tile (tx, ty).
func (g Grid) TileID(tx, ty int) int { return ty*g.TilesX + tx }

// TileCoord returns the (tx, ty) position of a tile id.
func (g Grid) TileCoord(id int) (tx, ty int) { return id % g.TilesX, id / g.TilesX }

// TileRect returns the pixel rectangle of a tile, clamped to the screen.
func (g Grid) TileRect(id int) geom.Rect {
	tx, ty := g.TileCoord(id)
	r := geom.Rect{
		MinX: tx * TileSize,
		MinY: ty * TileSize,
		MaxX: tx*TileSize + TileSize - 1,
		MaxY: ty*TileSize + TileSize - 1,
	}
	return r.Clip(geom.Rect{MinX: 0, MinY: 0, MaxX: g.ScreenW - 1, MaxY: g.ScreenH - 1})
}

// TilesCovering returns the inclusive tile-coordinate range overlapped by a
// pixel rectangle (already clamped to the screen).
func (g Grid) TilesCovering(r geom.Rect) (tx0, ty0, tx1, ty1 int) {
	return r.MinX / TileSize, r.MinY / TileSize, r.MaxX / TileSize, r.MaxY / TileSize
}

// Order is a tile traversal order.
type Order int

// Tile traversal orders (§II-B).
const (
	OrderScanline Order = iota // row-major
	OrderMorton                // Z-order (the baseline of this work)
)

// Traversal returns the tile ids of the grid in the requested order. Every
// tile appears exactly once.
func (g Grid) Traversal(o Order) []int {
	ids := make([]int, g.NumTiles())
	for i := range ids {
		ids[i] = i
	}
	if o == OrderMorton {
		sort.Slice(ids, func(a, b int) bool {
			ax, ay := g.TileCoord(ids[a])
			bx, by := g.TileCoord(ids[b])
			return MortonEncode(uint32(ax), uint32(ay)) < MortonEncode(uint32(bx), uint32(by))
		})
	}
	return ids
}

// SupertileGrid groups k×k tiles into supertiles (§III-C).
type SupertileGrid struct {
	Grid
	K                int // supertile edge in tiles (2, 4, 8 or 16)
	SupersX, SupersY int

	// tiles lists every supertile's tile ids back to back, each run in
	// Z-order; supertile s owns tiles[start[s]:start[s+1]]. Built once by
	// NewSupertileGrid, so TilesOf is a read-only slice expression.
	tiles []int
	start []int
}

// ValidSupertileSizes are the sizes LIBRA considers (§III-C).
var ValidSupertileSizes = []int{2, 4, 8, 16}

// NewSupertileGrid overlays a supertile grid of edge k on the tile grid.
func NewSupertileGrid(g Grid, k int) SupertileGrid {
	ok := false
	for _, v := range ValidSupertileSizes {
		if v == k {
			ok = true
		}
	}
	if !ok {
		panic(fmt.Sprintf("tiling: invalid supertile size %d", k))
	}
	s := SupertileGrid{
		Grid:    g,
		K:       k,
		SupersX: (g.TilesX + k - 1) / k,
		SupersY: (g.TilesY + k - 1) / k,
	}
	// The Z-order of the k×k local positions, shared by every supertile:
	// an edge supertile keeps the in-grid subsequence of it.
	local := make([][2]int, 0, k*k)
	for dy := 0; dy < k; dy++ {
		for dx := 0; dx < k; dx++ {
			local = append(local, [2]int{dx, dy})
		}
	}
	sort.Slice(local, func(a, b int) bool {
		return MortonEncode(uint32(local[a][0]), uint32(local[a][1])) <
			MortonEncode(uint32(local[b][0]), uint32(local[b][1]))
	})
	s.tiles = make([]int, 0, g.NumTiles())
	s.start = make([]int, 0, s.NumSupertiles()+1)
	for sid := 0; sid < s.NumSupertiles(); sid++ {
		s.start = append(s.start, len(s.tiles))
		sx, sy := sid%s.SupersX, sid/s.SupersX
		for _, d := range local {
			tx, ty := sx*k+d[0], sy*k+d[1]
			if tx < g.TilesX && ty < g.TilesY {
				s.tiles = append(s.tiles, g.TileID(tx, ty))
			}
		}
	}
	s.start = append(s.start, len(s.tiles))
	return s
}

// NumSupertiles returns the supertile count.
func (s SupertileGrid) NumSupertiles() int { return s.SupersX * s.SupersY }

// SupertileOf returns the supertile id containing tile id.
func (s SupertileGrid) SupertileOf(tileID int) int {
	tx, ty := s.TileCoord(tileID)
	return (ty/s.K)*s.SupersX + tx/s.K
}

// TilesOf returns the tile ids of a supertile, traversed in Z-order within
// the supertile (§III-D: "tiles within a supertile are always traversed in
// Z-order"). Edge supertiles may hold fewer than K×K tiles. The slice is
// shared, precomputed storage: callers may reslice it but must not modify
// its elements. It allocates nothing.
func (s SupertileGrid) TilesOf(superID int) []int {
	return s.tiles[s.start[superID]:s.start[superID+1]:s.start[superID+1]]
}

// SupertileTraversal returns supertile ids in Z-order over the supertile
// grid (the default order before temperature ranking).
func (s SupertileGrid) SupertileTraversal() []int {
	ids := make([]int, s.NumSupertiles())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ax, ay := uint32(ids[a]%s.SupersX), uint32(ids[a]/s.SupersX)
		bx, by := uint32(ids[b]%s.SupersX), uint32(ids[b]/s.SupersX)
		return MortonEncode(ax, ay) < MortonEncode(bx, by)
	})
	return ids
}
