//go:build race

package sim

// The race detector slows rendering tenfold; the render-ahead matrices then
// walk only their most concurrent corner (aheadMatrix).
func init() { raceDetector = true }
