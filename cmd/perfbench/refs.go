package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	libra "repro"
	"repro/internal/workloads"
)

// refsPath is where --write-refs writes the table, relative to the
// repository root.
const refsPath = "cmd/perfbench/refs.txt"

//go:embed refs.txt
var refsText []byte

// screen is a render resolution.
type screen struct{ W, H int }

func (s screen) String() string { return fmt.Sprintf("%dx%d", s.W, s.H) }

// refKey identifies one reference sequence: a game at a resolution.
type refKey struct {
	game string
	scr  screen
}

// gameCost is one game's measured cost at one resolution: host milliseconds
// per frame (as measured when the table was written) and the simulated
// cycles and DRAM accesses per frame. Only the input generators read it, to
// draw game sets of balanced cost.
type gameCost struct {
	hostMS, cycles, dram float64
}

// refTable holds the committed reference frame hashes and game costs.
type refTable struct {
	hashes map[refKey][]uint64
	costs  map[refKey]gameCost
}

// loadRefs parses the embedded reference table.
func loadRefs() (*refTable, error) { return parseRefs(refsText) }

func parseRefs(raw []byte) (*refTable, error) {
	t := &refTable{hashes: map[refKey][]uint64{}, costs: map[refKey]gameCost{}}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) < 4 {
			return nil, fmt.Errorf("refs line %d: too few fields", line)
		}
		var k refKey
		k.game = f[1]
		if _, err := fmt.Sscanf(f[2], "%dx%d", &k.scr.W, &k.scr.H); err != nil {
			return nil, fmt.Errorf("refs line %d: screen %q: %v", line, f[2], err)
		}
		switch f[0] {
		case "hash":
			hs := make([]uint64, 0, len(f)-3)
			for _, h := range f[3:] {
				v, err := strconv.ParseUint(h, 16, 64)
				if err != nil {
					return nil, fmt.Errorf("refs line %d: %v", line, err)
				}
				hs = append(hs, v)
			}
			t.hashes[k] = hs
		case "cost":
			if len(f) != 6 {
				return nil, fmt.Errorf("refs line %d: cost wants 3 values", line)
			}
			var c gameCost
			for i, p := range []*float64{&c.hostMS, &c.cycles, &c.dram} {
				v, err := strconv.ParseFloat(f[3+i], 64)
				if err != nil {
					return nil, fmt.Errorf("refs line %d: %v", line, err)
				}
				*p = v
			}
			t.costs[k] = c
		default:
			return nil, fmt.Errorf("refs line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// check reports whether hash is the reference FrameHash of frame i of game
// at scr. A frame outside the table is an error: the workloads restart a
// game before it runs past its references.
func (t *refTable) check(game string, scr screen, i int, hash uint64) (bool, error) {
	hs := t.hashes[refKey{game, scr}]
	if i < 0 || i >= len(hs) {
		return false, fmt.Errorf("no reference hash for %s %v frame %d", game, scr, i)
	}
	return hs[i] == hash, nil
}

// cost returns the committed cost of game at scr.
func (t *refTable) cost(game string, scr screen) (gameCost, error) {
	c, ok := t.costs[refKey{game, scr}]
	if !ok {
		return gameCost{}, fmt.Errorf("no cost for %s %v", game, scr)
	}
	return c, nil
}

// refJob is one reference sequence to render.
type refJob struct {
	game   string
	scr    screen
	l2KB   int
	frames int
	// costFrom and costTo bound the frames whose cost is recorded.
	costFrom, costTo int
}

// refJobs lists every sequence the workloads check against: each frame
// game at the frame resolution (warm-up plus one pass, cost over the pass)
// and every game at the service resolution (the frames a request returns,
// cost over all of them).
func refJobs() []refJob {
	var jobs []refJob
	for _, w := range []string{"frames-mem", "frames-re"} {
		games := memGames()
		if w == "frames-re" {
			games = append(append([]string(nil), puzzleGames...), scrollingGames...)
		}
		n := frameWarmup + passFrames(w)
		for _, g := range games {
			jobs = append(jobs, refJob{g, frameScreen, frameL2KB, n, frameWarmup, n})
		}
	}
	for _, p := range workloads.All() {
		jobs = append(jobs, refJob{p.Abbrev, serveScreen, serveL2KB, serveFrames, 0, serveFrames})
	}
	return jobs
}

// costRounds is how many times writeRefs renders every sequence. Host time
// on a shared machine drifts by tens of percent over seconds, so each game's
// host cost is the median over rounds that interleave all the games.
const costRounds = 3

// writeRefs renders every reference sequence with the serial engine and RE
// off (neither scheduling nor RE changes pixels, so one sequence serves every
// configuration of a game at that resolution) and writes the table to path.
// Every round must reproduce the first round's hashes. The cost columns'
// host milliseconds come from this host at this moment; they only steer
// which game sets the seeds draw.
func writeRefs(ctx context.Context, path string, progress io.Writer) error {
	jobs := refJobs()
	hashes := make([][]uint64, len(jobs))
	ms := make([][]float64, len(jobs))
	costs := make([]gameCost, len(jobs))
	for round := 0; round < costRounds; round++ {
		for i, j := range jobs {
			hs, c, err := renderRef(ctx, j)
			if err != nil {
				return err
			}
			if round == 0 {
				hashes[i], costs[i] = hs, c
			} else if !slices.Equal(hs, hashes[i]) {
				return fmt.Errorf("%s %v rendered different frames in round %d", j.game, j.scr, round)
			}
			ms[i] = append(ms[i], c.hostMS)
		}
		fmt.Fprintf(progress, "refs: round %d/%d done\n", round+1, costRounds)
	}

	var buf bytes.Buffer
	buf.WriteString("# perfbench reference table, written by `bash cmd/perfbench/run.sh --write-refs`.\n")
	buf.WriteString("# hash <game> <WxH> <FrameHash of frame 0> <frame 1> ...: serial engine, RE off.\n")
	buf.WriteString("# cost <game> <WxH> <calibrated host ms/frame> <sim cycles/frame> <DRAM accesses/frame>:\n")
	buf.WriteString("#   the measured pass at 640x384 (L2 1024 KiB), frames 0..3 at 320x192 (L2 256 KiB);\n")
	buf.WriteString("#   LIBRA 2 RU x 4 cores. Used only to draw balanced game sets.\n")
	for i, j := range jobs {
		hex := make([]string, len(hashes[i]))
		for k, h := range hashes[i] {
			hex[k] = strconv.FormatUint(h, 16)
		}
		fmt.Fprintf(&buf, "hash %s %v %s\n", j.game, j.scr, strings.Join(hex, " "))
		fmt.Fprintf(&buf, "cost %s %v %.2f %.1f %.1f\n", j.game, j.scr, median(ms[i]), costs[i].cycles, costs[i].dram)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// renderRef renders one reference sequence and returns its frame hashes and
// its cost: the median calibrated host ms and the mean simulated cycles and
// DRAM accesses of the cost frames.
func renderRef(ctx context.Context, j refJob) ([]uint64, gameCost, error) {
	cfg := libra.LIBRA(j.scr.W, j.scr.H, frameRUs)
	cfg.L2KB = j.l2KB
	run, err := libra.NewRun(cfg, j.game)
	if err != nil {
		return nil, gameCost{}, err
	}
	hashes := make([]uint64, 0, j.frames)
	var ms []float64
	var c gameCost
	for i := 0; i < j.frames; i++ {
		if err := ctx.Err(); err != nil {
			return nil, gameCost{}, err
		}
		c0 := calibrate()
		t0 := time.Now()
		f := run.RenderFrame()
		d := time.Since(t0)
		c1 := calibrate()
		hashes = append(hashes, f.FrameHash)
		if i >= j.costFrom && i < j.costTo {
			ms = append(ms, calibrated(d, c0, c1))
			c.cycles += float64(f.TotalCycles)
			c.dram += float64(f.DRAMAccesses)
		}
	}
	n := float64(len(ms))
	c.hostMS, c.cycles, c.dram = median(ms), c.cycles/n, c.dram/n
	return hashes, c, nil
}
