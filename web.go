package prefetch

import (
	"prefetch/internal/adaptive"
	"prefetch/internal/multiclient"
	"prefetch/internal/netsim"
	"prefetch/internal/predict"
	"prefetch/internal/schedsrv"
	"prefetch/internal/webgraph"
)

// Web-browsing workload types (used by the webproxy and newspaper
// examples) and the event-driven network simulator (used to explore
// contention semantics beyond the paper's closed forms).
type (
	// Site is a generated web site: pages, links, sizes, retrieval times.
	Site = webgraph.Site
	// Page is one document of a Site.
	Page = webgraph.Page
	// SiteConfig parameterises GenerateSite.
	SiteConfig = webgraph.SiteConfig
	// Surfer is a random-surfer browsing model with an exposed true
	// next-page distribution.
	Surfer = webgraph.Surfer

	// Transfer is one retrieval on the simulated serial link.
	Transfer = netsim.Transfer
	// NetRound describes one viewing-then-request round for the
	// event-driven simulator.
	NetRound = netsim.Round
	// NetRoundResult reports the event-driven observations.
	NetRoundResult = netsim.RoundResult
	// NetMode selects prefetch/demand contention semantics.
	NetMode = netsim.Mode
)

// Event-driven contention modes.
const (
	// ModeSequential is the paper's semantics: prefetches are never
	// aborted; a demand fetch queues behind them.
	ModeSequential = netsim.ModeSequential
	// ModePreempt aborts prefetch work when a demand miss occurs.
	ModePreempt = netsim.ModePreempt
	// ModeShared splits bandwidth equally between the demand fetch and
	// the in-flight prefetches (the authors' earlier model, ref [15]).
	ModeShared = netsim.ModeShared
)

// DefaultSiteConfig returns a plausible small site over a slow link.
func DefaultSiteConfig() SiteConfig { return webgraph.DefaultSiteConfig() }

// GenerateSite builds a random site from the config.
func GenerateSite(r *Rand, cfg SiteConfig) (*Site, error) { return webgraph.Generate(r, cfg) }

// NewSurfer starts a random surfer on the site (followProb outside (0,1)
// defaults to 0.85).
func NewSurfer(r *Rand, site *Site, followProb float64) *Surfer {
	return webgraph.NewSurfer(r, site, followProb)
}

// SimulateNetRound plays one round through the discrete-event simulator.
func SimulateNetRound(round NetRound) (NetRoundResult, error) { return netsim.SimulateRound(round) }

// Multi-client shared-server simulation: N concurrent surfers, each with
// its own SKP planner and client cache, contending for a server with
// bounded transfer concurrency and an optional shared server-side cache.
type (
	// MultiClientConfig parameterises RunMultiClient.
	MultiClientConfig = multiclient.Config
	// MultiClientResult aggregates one multi-client run.
	MultiClientResult = multiclient.Result
	// MultiClientClientResult is one session's view of the run.
	MultiClientClientResult = multiclient.ClientResult
	// MultiClientComparison pairs a prefetching run with its no-prefetch
	// baseline over the identical workload.
	MultiClientComparison = multiclient.Comparison
)

// Server scheduling subsystem: the shared server's queueing discipline,
// per-client bandwidth shaping and speculative admission control
// (MultiClientConfig.Sched).
type (
	// SchedConfig selects and tunes the server scheduling discipline.
	SchedConfig = schedsrv.Config
	// SchedKind names a built-in scheduling discipline.
	SchedKind = schedsrv.Kind
	// SchedDiscipline is the pluggable queueing-discipline interface.
	SchedDiscipline = schedsrv.Discipline
	// SchedAdmissionController gates speculative requests by utilisation.
	SchedAdmissionController = schedsrv.AdmissionController
	// SchedRequest is one transfer submitted to the scheduling subsystem.
	SchedRequest = schedsrv.Request
)

// The built-in server scheduling disciplines.
const (
	// SchedFIFO is the seed behaviour: one queue, arrival order.
	SchedFIFO = schedsrv.KindFIFO
	// SchedPriority serves queued demand fetches before any speculation;
	// SchedConfig.Preempt additionally aborts in-flight speculative work.
	SchedPriority = schedsrv.KindPriority
	// SchedWFQ is weighted fair queueing over (client, class) flows.
	SchedWFQ = schedsrv.KindWFQ
	// SchedShaped is per-client token-bucket bandwidth shaping.
	SchedShaped = schedsrv.KindShaped
)

// SchedKinds lists the built-in disciplines in canonical order.
func SchedKinds() []SchedKind { return schedsrv.Kinds() }

// Adaptive speculation control: each multiclient client can run a
// closed-loop λ controller (MultiClientConfig.Adaptive) that observes
// per-round congestion feedback from the shared server and re-prices its
// speculation by solving the §6 cost-aware objective g° − λ·Waste at a λ
// that tracks observed load.
type (
	// ControllerConfig selects and tunes the per-client λ controller.
	ControllerConfig = adaptive.Config
	// ControllerKind names a built-in λ controller.
	ControllerKind = adaptive.Kind
	// Controller maps per-round congestion feedback to the next λ.
	Controller = adaptive.Controller
	// ControllerFeedback is the per-round congestion signal a controller
	// consumes.
	ControllerFeedback = adaptive.Feedback
	// SchedFeedback is the scheduler's point-in-time congestion snapshot
	// the server feeds back to adaptive clients.
	SchedFeedback = schedsrv.Feedback
)

// The built-in λ controllers.
const (
	// ControllerStatic holds λ at Lambda0 — with Lambda0 = 0, the plain
	// SKP planner, bit-for-bit.
	ControllerStatic = adaptive.KindStatic
	// ControllerAIMD backs speculation off multiplicatively on congested
	// rounds and relaxes additively on calm ones.
	ControllerAIMD = adaptive.KindAIMD
	// ControllerTargetUtil integrates the utilisation error against a
	// setpoint.
	ControllerTargetUtil = adaptive.KindTargetUtil
	// ControllerDelayGradient backs off when the client's own demand
	// delay rises round-over-round.
	ControllerDelayGradient = adaptive.KindDelayGradient
)

// ControllerKinds lists the built-in λ controllers in canonical order.
func ControllerKinds() []ControllerKind { return adaptive.Kinds() }

// NewController builds a standalone λ controller. Simulated clients do
// not need this: setting MultiClientConfig.Adaptive equips every client
// with its own instance, validated alongside the rest of the composed
// config. Reach for NewController only to drive a controller directly.
func NewController(cfg ControllerConfig) (Controller, error) { return adaptive.New(cfg) }

// Prediction subsystem: the access model each multiclient client plans
// over (MultiClientConfig.Predict) — the paper's presupposed knowledge
// made pluggable, so the oracle-vs-learned gap is a sweepable axis.
type (
	// PredictConfig selects and tunes the prediction source.
	PredictConfig = predict.Config
	// PredictorKind names a built-in prediction source.
	PredictorKind = predict.Kind
	// PredictorFallback selects a learned source's cold-start behaviour.
	PredictorFallback = predict.Fallback
	// PredictorOracleSource answers from a true-distribution hook.
	PredictorOracleSource = predict.Oracle
	// PredictorAggregate is the server-side shared model pooled over all
	// clients' access streams (also the cache-warming popularity model).
	PredictorAggregate = predict.Aggregate
)

// The built-in prediction sources.
const (
	// PredictorOracle plans over the surfer's true next-page
	// distribution — the default, bit-for-bit the pre-subsystem planner.
	PredictorOracle = predict.KindOracle
	// PredictorDepGraph learns an order-1 dependency graph online from
	// the client's own access stream.
	PredictorDepGraph = predict.KindDepGraph
	// PredictorPPM learns an order-k PPM model online from the client's
	// own access stream (PredictConfig.Order).
	PredictorPPM = predict.KindPPM
	// PredictorShared plans over one server-side model trained on the
	// aggregate access stream of every client.
	PredictorShared = predict.KindShared
	// PredictorDecay learns order-1 transitions with exponentially
	// decayed counts (PredictConfig.HalfLife) — the predictor that
	// re-converges after a non-stationary workload shifts its hot set.
	PredictorDecay = predict.KindDecay
	// PredictorMixture blends order-1 transitions with global page
	// popularity at PredictConfig.MixWeight.
	PredictorMixture = predict.KindMixture
	// PredictorPPMEscape is PPM with escape blending across context
	// orders down to global frequencies — no hard cold-start cliff.
	PredictorPPMEscape = predict.KindPPMEscape
)

// The learned sources' cold-start fallbacks.
const (
	// PredictorFallbackNone predicts nothing on a cold state.
	PredictorFallbackNone = predict.FallbackNone
	// PredictorFallbackUniform predicts uniformly over the pages
	// observed so far.
	PredictorFallbackUniform = predict.FallbackUniform
)

// PredictorKinds lists the built-in prediction sources in canonical order.
func PredictorKinds() []PredictorKind { return predict.Kinds() }

// NewOraclePredictor wraps a true-distribution hook as a Predictor.
func NewOraclePredictor(fn func(state int) map[int]float64) *PredictorOracleSource {
	return predict.NewOracle(fn)
}

// NewPredictorAggregate returns an empty shared aggregate model; obtain
// per-client Predictor views with ForClient.
func NewPredictorAggregate() *PredictorAggregate { return predict.NewAggregate() }

// PredictionL1 returns the L1 distance between two distributions — the
// prediction-error metric the multiclient simulation records per round.
func PredictionL1(p, q map[int]float64) float64 { return predict.L1(p, q) }

// DefaultMultiClientConfig returns a contended but healthy starting point.
func DefaultMultiClientConfig() MultiClientConfig { return multiclient.DefaultConfig() }

// RunMultiClient plays N concurrent sessions against the shared server.
// Identical seeds replay bit-for-bit.
func RunMultiClient(cfg MultiClientConfig) (MultiClientResult, error) { return multiclient.Run(cfg) }

// CompareMultiClient runs cfg with and without prefetching over the
// identical workload and reports the access improvement under contention.
func CompareMultiClient(cfg MultiClientConfig) (MultiClientComparison, error) {
	return multiclient.Compare(cfg)
}
