// Package libra is a simulation-backed reproduction of LiBRA, the
// learning-based link adaptation framework for 60 GHz WLANs of Aggarwal et
// al. (CoNEXT 2020). It bundles:
//
//   - a geometric 60 GHz indoor channel simulator (image-method ray tracing,
//     phased-array codebooks with imperfect side lobes, human blockage,
//     co-channel interference) standing in for the paper's X60 testbed;
//   - the X60-style PHY and TDMA MAC (9 single-carrier MCSs, 300 Mbps to
//     4.75 Gbps, per-codeword CRC, Block ACK);
//   - standard-compliant beam adaptation (sector level sweeps) and rate
//     adaptation (frame-based downward probing) algorithms;
//   - a from-scratch ML toolbox (decision trees, random forests, SVM, DNN)
//     with stratified cross-validation;
//   - the measurement-campaign emulation that regenerates the paper's
//     datasets (Tables 1-2) with features and ground truth per §5;
//   - LiBRA itself (Algorithm 1) plus the BA-First/RA-First heuristics and
//     the Oracle-Data/Oracle-Delay baselines;
//   - the full §8 trace-driven evaluation harness (Figs 10-13, Table 4).
//
// The package root re-exports the main entry points; the implementation
// lives in focused packages under internal/.
package libra

import (
	"context"
	"math/rand"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/mac"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/sim"
	"github.com/libra-wlan/libra/internal/sim/engine"
	"github.com/libra-wlan/libra/internal/trace"
	"github.com/libra-wlan/libra/internal/vr"
)

// Geometry and environments.
type (
	// Vec is a 2-D point in meters.
	Vec = geom.Vec
	// Environment is an indoor floor plan with reflective walls.
	Environment = env.Environment
)

// V constructs a Vec.
func V(x, y float64) Vec { return geom.V(x, y) }

// MediumCorridor is the medium-width corridor of Appendix A.2.
func MediumCorridor() *Environment { return env.MediumCorridor() }

// Channel and PHY.
type (
	// Link is a simulated 60 GHz Tx-Rx pair.
	Link = channel.Link
	// Array is a 25-beam phased antenna array.
	Array = phased.Array
	// Station is a MAC-layer transmitter on a link.
	Station = mac.Station
)

// NewArray builds a phased array at pos with the given mechanical
// orientation (degrees) and a deterministic, seed-perturbed codebook.
func NewArray(pos Vec, orientDeg float64, seed int64) *Array {
	return phased.NewArray(pos, orientDeg, seed)
}

// NewLink builds a link between two arrays in an environment.
func NewLink(e *Environment, tx, rx *Array) *Link { return channel.NewLink(e, tx, rx) }

// NewStation builds a MAC transmitter on a link.
func NewStation(l *Link, rng *rand.Rand) *Station { return mac.NewStation(l, rng) }

// Campaign is a generated measurement campaign (dataset + positions).
type Campaign = dataset.Campaign

// ActNA is the "no adaptation" label of a campaign entry.
const ActNA = dataset.ActNA

// GenerateMainDataset reproduces the main/training campaign (Table 1:
// 668 labeled cases plus NA augmentation).
func GenerateMainDataset(seed int64) *Campaign { return dataset.GenerateMain(seed) }

// GenerateTestDataset reproduces the two-building testing campaign
// (Table 2: 228 labeled cases plus NA augmentation).
func GenerateTestDataset(seed int64) *Campaign { return dataset.GenerateTest(seed) }

// LiBRA core.
type (
	// Config holds LiBRA's protocol parameters (§8.1).
	Config = core.Config
	// Classifier maps PHY features to an adaptation action.
	Classifier = core.Classifier
	// Controller is the online Algorithm 1 state machine.
	Controller = core.Controller
)

// DefaultConfig returns the paper's default parameterization.
func DefaultConfig() Config { return core.DefaultConfig() }

// TrainClassifier trains the production 3-class random forest on a campaign.
func TrainClassifier(c *Campaign, seed int64) (Classifier, error) {
	return core.TrainDefaultClassifier(c, seed)
}

// NewController assembles the online LiBRA controller on a station.
func NewController(st *Station, clf Classifier, cfg Config) *Controller {
	return core.NewController(st, clf, cfg)
}

// Trace-driven evaluation (§8).
type (
	// Policy identifies an adaptation policy under evaluation.
	Policy = sim.Policy
	// Params is one evaluation grid cell (BA overhead, FAT, flow length).
	Params = sim.Params
	// ScenarioPools pre-generates timeline channel states.
	ScenarioPools = trace.Pools
	// Scenario is the input of Run: exactly one of an entry (single
	// break) or a timeline (multi-impairment) is set.
	Scenario = sim.Scenario
	// RunOptions carries the parameters, policy, classifier and protocol
	// variant of a Run.
	RunOptions = sim.Options
	// RunResult is the output of Run: Outcome for entry scenarios,
	// Timeline for timeline scenarios.
	RunResult = sim.Result
)

// Run executes one scenario under one set of options: a single link break
// (Scenario.Entry) under any policy or protocol variant, or a
// multi-impairment timeline (Scenario.Timeline). It is the only way to run
// one link; invalid parameters come back as an error, and a canceled ctx
// stops a timeline at the next segment boundary.
func Run(ctx context.Context, sc Scenario, opt RunOptions) (RunResult, error) {
	return sim.Run(ctx, sc, opt)
}

// Evaluation policies.
const (
	PolicyLiBRA      = sim.LiBRA
	PolicyBAFirst    = sim.BAFirst
	PolicyOracleData = sim.OracleData
)

// NewScenarioPools builds the §8.3 timeline state pools.
func NewScenarioPools(seed int64) *ScenarioPools { return trace.NewPools(seed) }

// VR case study (§8.4).
type (
	// FrameTrace is a constant-FPS encoded video trace.
	FrameTrace = vr.FrameTrace
	// PlaybackResult holds VR stall statistics.
	PlaybackResult = vr.PlaybackResult
)

// VikingVillage synthesizes the §8.4 8K 60 FPS scene trace.
var VikingVillage = vr.VikingVillage

// PlayVR streams a frame trace over a delivered-rate profile.
var PlayVR = vr.Play

// Multi-AP discrete-event engine.
type (
	// EngineSpec declares a multi-AP scenario: deployment size, topology,
	// adaptation parameters, contention/interference/impairment knobs.
	EngineSpec = engine.Spec
	// EngineScenario is the immutable precomputed form of an EngineSpec
	// (ray-traced snapshots, interference penalties); build once, run many.
	EngineScenario = engine.Scenario
	// Engine runs an EngineScenario deterministically: event traces and
	// the scenario digest are byte-identical for any worker count.
	Engine = engine.Engine
)

// BuildScenario validates and precomputes a multi-AP scenario — the
// expensive ray-tracing step, run once per spec.
func BuildScenario(spec EngineSpec) (*EngineScenario, error) { return engine.Build(spec) }

// NewEngine creates a deterministic multi-AP engine over a built scenario
// with the given worker count (<=0 picks GOMAXPROCS). Workers change wall
// time only, never results.
func NewEngine(sc *EngineScenario, workers int) *Engine { return engine.New(sc, workers) }
