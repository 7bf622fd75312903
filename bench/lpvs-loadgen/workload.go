package main

import (
	"encoding/json"
	"fmt"

	"lpvs/internal/stats"
	"lpvs/internal/video"
	"lpvs/internal/wire"
)

// spec is one named workload: the deployment it boots and the traffic
// one slot carries. The names and the why sentences are mirrored in
// BENCHMARK.json and bench/README.md; later PRs are judged against
// them, so they are fixed.
type spec struct {
	name string
	why  string

	devices  int
	channels int
	// chunks is each stream's length. A slot window is 30 chunks, so 30
	// replays the same window every slot (plans stay cached) and 90
	// advances it (every plan is rebuilt).
	chunks        int
	serverStreams int
	// perDevice sends one JSON report per device and reads one decision
	// and one chunk per device; otherwise the fleet reports as one
	// binary batch and `reads` sampled decisions are fetched.
	perDevice bool
	reads     int
	// shards > 0 boots a router in front of that many shard daemons.
	shards int
	audit  bool
	// resolutions is the display mix devices draw from. A single
	// resolution makes every knapsack weight tie, which is what drives
	// the exact Phase-1 search to its node cap.
	resolutions [][2]int
}

// churn is the share of devices whose battery level changes between
// consecutive slots.
const churn = 0.05

// cyclePositions is the length of the pre-built input cycle. Slot s
// sends position s % cyclePositions; the second half of the cycle
// repeats the first half's churn sets, so every device toggles back
// and the wrap-around changes 5% of the fleet like any other step.
const cyclePositions = 16

// windowChunks is the daemon's slot window: DefaultSlotSeconds over
// DefaultChunkSeconds.
const windowChunks = 30

var mixedDisplays = [][2]int{{1280, 720}, {1920, 1080}, {2340, 1080}, {2560, 1440}}

var workloads = []spec{
	{
		name: "edge-10k-cold",
		why: "10k-device standalone slot with advancing stream windows: batch ingest, scheduler compact, the " +
			"tick's non-scheduler server overhead and 1k decision reads share it; ilp, audit, router do nothing",
		devices: 10_000, channels: 2, chunks: 90, serverStreams: 100, reads: 1000, resolutions: mixedDisplays,
	},
	{
		name: "edge-2k-perdevice-steady",
		why: "2k devices each sending their own JSON report and reading decision+chunk: ~6k small requests per " +
			"slot and a cached tick, so per-request cost (socket, HTTP, lock, JSON) dominates, not the scheduler",
		devices: 2_000, channels: 2, chunks: 30, serverStreams: 100, perDevice: true, resolutions: mixedDisplays,
	},
	{
		name: "fed-8vc-exact",
		why: "router + 2 shards, 8 channels x 200 devices in the exact Phase-1 region: ilp branch-and-bound and " +
			"VC parallelism dominate; the only workload through router forward, fan-out, merge and proxy",
		devices: 1_600, channels: 8, chunks: 90, serverStreams: 60, reads: 500, shards: 2,
		resolutions: [][2]int{{1920, 1080}},
	},
	{
		name: "edge-2k-audit",
		why: "2k-device standalone slot with the audit log on: audit encode+append under the server mutex " +
			"dominates the tick and stalls concurrent device reads",
		devices: 2_000, channels: 2, chunks: 90, serverStreams: 100, reads: 200, audit: true, resolutions: mixedDisplays,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// inputs is everything a workload sends, generated from the seed
// before any daemon boots. The daemons only ever see these requests.
type inputs struct {
	spec    spec
	streams []*video.Video
	// fleet is the device population at cycle position 0; energy[p][d]
	// is device d's battery level at position p.
	fleet  []wire.ReportRequest
	energy [][]float64

	// batch[p] is the binary batch body of position p; single[p][d] the
	// JSON body of device d (perDevice workloads only).
	batch  [][]byte
	single [][][]byte

	// readPaths are the decision GETs of one slot's read phase;
	// readDevice[i] indexes fleet. chunkPaths pairs with readPaths on
	// perDevice workloads. bgPaths feed the background reader.
	readPaths  []string
	readDevice []int
	chunkPaths []string
	bgPaths    []string
}

// channelIDs name the streams. They are words, not numbered keys: the
// shard ring hashes IDs that differ only in their last byte onto the
// same node, and the federation workload needs both shards to own work.
var channelIDs = []string{"gaming", "irl", "music", "sports", "news", "talk", "esports", "cooking"}

// shardIDs name the shard nodes; with channelIDs they split 3/5.
var shardIDs = []string{"east", "west"}

// genStreams builds the workload's channels. Stream content is fixed
// (the seed drives the fleet, not the catalogue), so every daemon of a
// federation and the reference scheduler see identical chunks.
func genStreams(sp spec) ([]*video.Video, error) {
	genres := video.AllGenres()
	out := make([]*video.Video, sp.channels)
	for i := range out {
		v, err := video.Generate(stats.NewRNG(int64(1000+i)),
			video.DefaultGenConfig(channelIDs[i], genres[i%len(genres)], sp.chunks))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func genInputs(sp spec, seed int64) (*inputs, error) {
	streams, err := genStreams(sp)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	in := &inputs{spec: sp, streams: streams, fleet: make([]wire.ReportRequest, sp.devices)}
	alt := make([]float64, sp.devices)
	for d := range in.fleet {
		res := sp.resolutions[rng.Intn(len(sp.resolutions))]
		ty := "LCD"
		if rng.Bool(0.5) {
			ty = "OLED"
		}
		in.fleet[d] = wire.ReportRequest{
			DeviceID:         fmt.Sprintf("dev-%05d", d),
			ChannelID:        channelIDs[d%sp.channels],
			DisplayType:      ty,
			Width:            res[0],
			Height:           res[1],
			DiagonalInch:     rng.Uniform(5.0, 6.9),
			Brightness:       rng.Uniform(0.3, 0.9),
			EnergyFrac:       rng.Uniform(0.05, 0.95),
			BatteryCapacityJ: rng.Uniform(30_000, 60_000),
			BasePowerW:       rng.Uniform(0.3, 0.6),
		}
		alt[d] = rng.Uniform(0.05, 0.95)
	}

	// Churn sets: half a cycle of seeded 5% subsets, repeated.
	nChurn := int(churn * float64(sp.devices))
	sets := make([][]int, cyclePositions/2)
	for i := range sets {
		sets[i] = rng.Perm(sp.devices)[:nChurn]
	}
	toggled := make([]bool, sp.devices)
	in.energy = make([][]float64, cyclePositions)
	for p := range in.energy {
		row := make([]float64, sp.devices)
		for d := range row {
			row[d] = in.fleet[d].EnergyFrac
			if toggled[d] {
				row[d] = alt[d]
			}
		}
		in.energy[p] = row
		for _, d := range sets[p%len(sets)] {
			toggled[d] = !toggled[d]
		}
	}

	if err := in.buildBodies(); err != nil {
		return nil, err
	}
	in.buildPaths(rng)
	return in, nil
}

// reports returns the fleet's reports at cycle position p.
func (in *inputs) reports(p int) []wire.ReportRequest {
	out := make([]wire.ReportRequest, len(in.fleet))
	copy(out, in.fleet)
	for d := range out {
		out[d].EnergyFrac = in.energy[p][d]
	}
	return out
}

func (in *inputs) buildBodies() error {
	if !in.spec.perDevice {
		in.batch = make([][]byte, cyclePositions)
		for p := range in.batch {
			body, err := wire.AppendBatch(nil, in.reports(p))
			if err != nil {
				return err
			}
			in.batch[p] = body
		}
		return nil
	}
	in.single = make([][][]byte, cyclePositions)
	for p := range in.single {
		row := make([][]byte, len(in.fleet))
		for d, r := range in.reports(p) {
			if p > 0 && in.energy[p][d] == in.energy[p-1][d] {
				row[d] = in.single[p-1][d]
				continue
			}
			body, err := json.Marshal(r)
			if err != nil {
				return err
			}
			row[d] = body
		}
		in.single[p] = row
	}
	return nil
}

func (in *inputs) buildPaths(rng *stats.RNG) {
	sp := in.spec
	n := sp.reads
	pick := rng.Perm(sp.devices)
	if sp.perDevice {
		n = sp.devices
		for i := range pick {
			pick[i] = i
		}
	}
	in.readDevice = pick[:n]
	in.readPaths = make([]string, n)
	for i, d := range in.readDevice {
		in.readPaths[i] = "/v1/decision?device=" + in.fleet[d].DeviceID
	}
	if sp.perDevice {
		in.chunkPaths = make([]string, n)
		for i, d := range in.readDevice {
			in.chunkPaths[i] = "/v1/chunk?device=" + in.fleet[d].DeviceID + "&index=0"
		}
	}
	bg := rng.Perm(sp.devices)
	if len(bg) > 512 {
		bg = bg[:512]
	}
	in.bgPaths = make([]string, len(bg))
	for i, d := range bg {
		in.bgPaths[i] = "/v1/decision?device=" + in.fleet[d].DeviceID
	}
}
