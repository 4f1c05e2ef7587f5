package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	libra "repro"
	"repro/internal/workloads"
)

// Service-side resource caps, stricter than the library's Validate bounds:
// a request decoded off the network must not be able to buy an unbounded
// amount of simulation. Oversized values are a 400, never a panic and never
// an allocation.
const (
	// MaxRequestBody bounds the /v1/run request body in bytes.
	MaxRequestBody = 1 << 20
	// MaxScreenDim bounds each requested screen dimension (4K-class).
	MaxScreenDim = 4096
	// MaxFrames bounds frames per request; window it instead of asking for
	// more (warm windows are near-free, so pagination costs one sim).
	MaxFrames = 256
	// MaxRasterUnits and MaxCoresPerRU bound the simulated hardware scale.
	MaxRasterUnits = 64
	MaxCoresPerRU  = 256
	// MaxL2KB bounds the simulated L2 (64 MiB — 32× the paper's Table I).
	MaxL2KB = 64 * 1024
)

// DefaultFrames and DefaultWarmup apply when a /v1/run request omits the
// frame window. They mirror cmd/librasim's single-run defaults so the same
// request is comparable across the two front ends.
const (
	DefaultFrames = 8
	DefaultWarmup = 2
)

// RunRequest is the body of POST /v1/run: a benchmark, a GPU configuration
// and a frame window. Zero-valued Config fields take the library defaults
// (exactly as cmd/librasim fills them); Frames/Warmup default to
// DefaultFrames/DefaultWarmup, with Warmup clamped to 0 when the window is
// too short to discard warm-up frames (cmd/librasim's rule).
type RunRequest struct {
	Game   string       `json:"game"`
	Config libra.Config `json:"config"`
	Frames int          `json:"frames"`
	// Warmup is a pointer so "omitted" (default) and "explicit 0" (keep
	// every frame in the summary) stay distinguishable.
	Warmup *int `json:"warmup"`
}

// DecodeRunRequest parses and validates a /v1/run body, returning the
// normalized request (defaults applied). Any error is a client error: the
// handler answers 400 and nothing has been allocated or simulated. It must
// never panic for any input — fuzzed as FuzzDecodeRunRequest.
func DecodeRunRequest(raw []byte) (RunRequest, error) {
	var req RunRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return RunRequest{}, fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return RunRequest{}, fmt.Errorf("trailing data after request object")
	}
	if req.Game == "" {
		return RunRequest{}, fmt.Errorf("missing game")
	}
	if _, err := workloads.ByAbbrev(req.Game); err != nil {
		return RunRequest{}, fmt.Errorf("unknown game %q", req.Game)
	}

	// Frame window defaults and bounds.
	if req.Frames == 0 {
		req.Frames = DefaultFrames
	}
	if req.Frames < 1 || req.Frames > MaxFrames {
		return RunRequest{}, fmt.Errorf("frames %d outside [1, %d]", req.Frames, MaxFrames)
	}
	if req.Warmup == nil {
		w := DefaultWarmup
		if w >= req.Frames {
			w = 0
		}
		req.Warmup = &w
	}
	if *req.Warmup < 0 || *req.Warmup >= req.Frames {
		return RunRequest{}, fmt.Errorf("warmup %d outside [0, frames)", *req.Warmup)
	}

	// Configuration defaults (the same shape cmd/librasim builds), then the
	// service caps on top of the library's own Validate.
	cfg := &req.Config
	if cfg.ScreenW == 0 && cfg.ScreenH == 0 {
		cfg.ScreenW, cfg.ScreenH = 640, 384
	}
	if cfg.RasterUnits == 0 {
		cfg.RasterUnits = 2
	}
	if cfg.CoresPerRU == 0 {
		cfg.CoresPerRU = 4
	}
	if cfg.Policy == "" {
		cfg.Policy = libra.PolicyLIBRA
	}
	if cfg.ScreenW > MaxScreenDim || cfg.ScreenH > MaxScreenDim {
		return RunRequest{}, fmt.Errorf("screen %dx%d exceeds the service bound %d",
			cfg.ScreenW, cfg.ScreenH, MaxScreenDim)
	}
	if cfg.RasterUnits > MaxRasterUnits {
		return RunRequest{}, fmt.Errorf("raster units %d exceed the service bound %d",
			cfg.RasterUnits, MaxRasterUnits)
	}
	if cfg.CoresPerRU > MaxCoresPerRU {
		return RunRequest{}, fmt.Errorf("cores per RU %d exceed the service bound %d",
			cfg.CoresPerRU, MaxCoresPerRU)
	}
	if cfg.L2KB < 0 || cfg.L2KB > MaxL2KB {
		return RunRequest{}, fmt.Errorf("l2kb %d outside [0, %d]", cfg.L2KB, MaxL2KB)
	}
	if cfg.IntervalWidth < 0 {
		return RunRequest{}, fmt.Errorf("negative interval width")
	}
	if cfg.ClockHz < 0 {
		return RunRequest{}, fmt.Errorf("negative clock")
	}
	if err := cfg.Validate(); err != nil {
		return RunRequest{}, err
	}
	// The deprecated ReplayWorkers is accepted and validated but read by
	// nothing; clearing it keeps a body that still sends it on the same
	// in-memory memo entry as one that does not.
	cfg.ReplayWorkers = 0
	return req, nil
}
