// Package repro is a rule-management platform for semantics-intensive Big
// Data systems, reproducing "Why Big Data Industrial Systems Need Rules and
// What We Can Do About It" (SIGMOD 2015).
//
// The package is a documented facade over the implementation packages in
// internal/; examples/ and cmd/ build exclusively against it. The main entry
// points:
//
//   - Rules: NewWhitelist / NewBlacklist / NewGate / NewAttrExists /
//     NewAttrValue / NewFilter construct analyst rules; NewRulebase manages
//     them with versioning, scale-down/up and an audit log.
//   - Execution: NewIndexedExecutor / NewSequentialExecutor evaluate rules
//     over items; ExecuteBatch shards a batch across workers.
//   - The pipeline: NewPipeline assembles the Chimera architecture
//     (Figure 2): Gate Keeper → rule, attribute and learned classifiers →
//     Voting Master → Filter, plus the crowd-evaluation / analyst-repair
//     loop.
//   - Tools: NewSynonymTool is the §5.1 synonym finder; GenerateRules is
//     the §5.2 rule miner (AprioriAll + Greedy-Biased selection).
//   - Evaluation: EvaluateWithValidationSet / EvaluatePerRule /
//     EvaluateModule are the three §4 quality-evaluation methods.
//   - Maintenance: FindSubsumed / FindDuplicates / FindOverlaps / FindStale
//     / ConsolidateWhitelists are the §4 maintenance analyses.
//   - Substrates: NewCatalog generates the synthetic product feed; NewCrowd
//     and NewAnalyst simulate the human layer; the em, ie, kb and social
//     capabilities of §6 are re-exported under their own names.
package repro

import (
	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/em"
	"repro/internal/evaluate"
	"repro/internal/faultinject"
	"repro/internal/ie"
	"repro/internal/kb"
	"repro/internal/learn"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/opshttp"
	"repro/internal/pattern"
	"repro/internal/persist"
	"repro/internal/randx"
	"repro/internal/serve"
	"repro/internal/social"
	"repro/internal/synonym"
)

// --- Rule model and management (internal/core) -----------------------------

type (
	// Rule is one managed classification rule (whitelist, blacklist, gate,
	// attribute, or filter).
	Rule = core.Rule
	// Rulebase is the versioned, auditable rule repository.
	Rulebase = core.Rulebase
	// RuleKind enumerates rule families.
	RuleKind = core.Kind
	// Guard is an attribute-side rule condition (§4's language extension:
	// "title contains Apple AND price < 100").
	Guard = core.Guard
	// Verdict is the outcome of executing a rule set on an item.
	Verdict = core.Verdict
	// Executor evaluates rule sets against items.
	Executor = core.Executor
	// RuleIndex locates the rules likely to match an item.
	RuleIndex = core.RuleIndex
	// BatchMatcher evaluates a rule index against whole batches via the
	// batch-inverted join (§5.3 set-oriented execution).
	BatchMatcher = core.BatchMatcher
	// BatchApplier is the batch-at-a-time counterpart of Executor.
	BatchApplier = core.BatchApplier
	// DataIndex locates the items a rule is likely to match.
	DataIndex = core.DataIndex
	// SubsumedPair, DuplicatePair, OverlapPair and StaleRule are the
	// maintenance findings of §4.
	SubsumedPair  = core.SubsumedPair
	DuplicatePair = core.DuplicatePair
	OverlapPair   = core.OverlapPair
	StaleRule     = core.StaleRule
	// Consolidation is a merge of several whitelist rules.
	Consolidation = core.Consolidation
	// DevSession is the indexed rule-development loop of §4.
	DevSession = core.DevSession
	// DevReport is one rule attempt's feedback.
	DevReport = core.DevReport
	// RetargetProposal suggests successor rules after a taxonomy split.
	RetargetProposal = core.RetargetProposal
)

// Rule kinds.
const (
	Whitelist  = core.Whitelist
	Blacklist  = core.Blacklist
	AttrExists = core.AttrExists
	AttrValue  = core.AttrValue
	Gate       = core.Gate
	Filter     = core.Filter
	// TypeRestrict constrains an item's admissible types by title pattern.
	TypeRestrict = core.TypeRestrict
)

// Rule constructors.
var (
	NewWhitelist    = core.NewWhitelist
	NewBlacklist    = core.NewBlacklist
	NewGate         = core.NewGate
	NewAttrExists   = core.NewAttrExists
	NewAttrValue    = core.NewAttrValue
	NewFilter       = core.NewFilter
	NewTypeRestrict = core.NewTypeRestrict
	NewRulebase     = core.NewRulebase
	NewDevSession   = core.NewDevSession
)

// Execution.
var (
	NewSequentialExecutor    = core.NewSequentialExecutor
	NewIndexedExecutor       = core.NewIndexedExecutor
	NewIndexedExecutorWithDF = core.NewIndexedExecutorWithDF
	NewRuleIndex             = core.NewRuleIndex
	NewDataIndex             = core.NewDataIndex
	NewBatchMatcher          = core.NewBatchMatcher
	ExecuteBatch             = core.ExecuteBatch
	ExecuteBatchItemwise     = core.ExecuteBatchItemwise
	TokenDF                  = core.TokenDF
	CheckOrderIndependence   = core.CheckOrderIndependence
	FindConflicts            = core.FindConflicts
)

// Maintenance analyses.
var (
	FindSubsumed          = core.FindSubsumed
	FindDuplicates        = core.FindDuplicates
	FindOverlaps          = core.FindOverlaps
	FindStale             = core.FindStale
	ConsolidateWhitelists = core.ConsolidateWhitelists
	SplitConsolidated     = core.SplitConsolidated
	ProposeRetarget       = core.ProposeRetarget
)

// --- Pattern language (internal/pattern) -----------------------------------

type (
	// Pattern is a compiled analyst rule pattern.
	Pattern = pattern.Pattern
	// SynMatch is one \syn-slot match with its context windows.
	SynMatch = pattern.SynMatch
)

var (
	// ParsePattern compiles the analyst pattern dialect (rings?,
	// (motor | engine) oils?, diamond.*trio sets?, …).
	ParsePattern = pattern.Parse
	// MustParsePattern panics on error; for static patterns.
	MustParsePattern = pattern.MustParse
	// Subsumes reports provable pattern subsumption.
	Subsumes = pattern.Subsumes
)

// --- Chimera pipeline (internal/chimera) -----------------------------------

type (
	// Pipeline is the Figure-2 classification system.
	Pipeline = chimera.Pipeline
	// PipelineConfig parameterizes it.
	PipelineConfig = chimera.Config
	// Decision is the pipeline's per-item output.
	Decision = chimera.Decision
	// BatchResult aggregates a processed batch.
	BatchResult = chimera.BatchResult
	// ImproveReport summarizes one evaluation/repair round.
	ImproveReport = chimera.ImproveReport
	// OnboardReport summarizes a §2.2 scale-up round over declined items.
	OnboardReport = chimera.OnboardReport
	// RestoreToken undoes a type scale-down.
	RestoreToken = chimera.RestoreToken
)

// NewPipeline assembles a pipeline with the standard ensemble.
var NewPipeline = chimera.New

// --- Learning (internal/learn) ----------------------------------------------

type (
	// Classifier is the train/predict contract.
	Classifier = learn.Classifier
	// Prediction is one ranked class guess.
	Prediction = learn.Prediction
	// Ensemble combines classifiers by weighted vote.
	Ensemble = learn.Ensemble
)

var (
	NewNaiveBayes = learn.NewNaiveBayes
	NewKNN        = learn.NewKNN
	NewPerceptron = learn.NewPerceptron
	NewEnsemble   = learn.NewEnsemble
)

// --- Tools (internal/synonym, internal/mining) ------------------------------

type (
	// SynonymTool is one §5.1 expansion session.
	SynonymTool = synonym.Tool
	// SynonymOptions configures it.
	SynonymOptions = synonym.Options
	// SynonymSessionStats summarizes a completed session.
	SynonymSessionStats = synonym.SessionStats
	// SynonymOracle answers accept/reject for candidates.
	SynonymOracle = synonym.Oracle
	// MiningOptions configures §5.2 rule generation.
	MiningOptions = mining.Options
	// MiningResult is its output.
	MiningResult = mining.Result
	// MiningCandidate is one generated rule with confidence and coverage.
	MiningCandidate = mining.Candidate
)

var (
	NewSynonymTool    = synonym.NewTool
	RunSynonymSession = synonym.RunSession
	GenerateRules     = mining.GenerateRules
	FrequentSequences = mining.FrequentSequences
	GreedySelect      = mining.Greedy
	GreedyBiased      = mining.GreedyBiased
)

// --- Evaluation (internal/evaluate) -----------------------------------------

type (
	// RulePrecision is one rule's estimated precision.
	RulePrecision = evaluate.RulePrecision
	// PerRuleResult is the method-2 outcome.
	PerRuleResult = evaluate.PerRuleResult
	// ModuleResult is the method-3 outcome.
	ModuleResult = evaluate.ModuleResult
	// ImpactTracker alerts on impactful un-evaluated rules.
	ImpactTracker = evaluate.ImpactTracker
)

var (
	EvaluateWithValidationSet = evaluate.WithValidationSet
	EvaluatePerRule           = evaluate.PerRule
	EvaluateModule            = evaluate.Module
	HeadTailSplit             = evaluate.HeadTailSplit
	NewImpactTracker          = evaluate.NewImpactTracker
	ValidateRule              = evaluate.ValidateRule
)

// --- Substrates (internal/catalog, internal/crowd, internal/randx) -----------

type (
	// Catalog generates the synthetic product feed.
	Catalog = catalog.Catalog
	// CatalogConfig parameterizes it.
	CatalogConfig = catalog.Config
	// Item is one product record (Figure 1).
	Item = catalog.Item
	// BatchSpec describes one incoming batch.
	BatchSpec = catalog.BatchSpec
	// TypeSpec is one product type's vocabulary.
	TypeSpec = catalog.TypeSpec
	// Crowd is the budgeted worker-pool simulator.
	Crowd = crowd.Crowd
	// CrowdConfig parameterizes it.
	CrowdConfig = crowd.Config
	// Analyst is a single high-accuracy oracle.
	Analyst = crowd.Analyst
	// Rand is the deterministic splittable RNG.
	Rand = randx.Rand
)

var (
	NewCatalog = catalog.New
	NewCrowd   = crowd.New
	NewAnalyst = crowd.NewAnalyst
	NewRand    = randx.New
)

// --- §6 sister systems (internal/em, internal/ie, internal/kb, internal/social)

type (
	// EMRule is a conjunction of match predicates.
	EMRule = em.Rule
	// EMRuleSet is a disjunction of EM rules.
	EMRuleSet = em.RuleSet
	// EMPair is a labeled record pair.
	EMPair = em.Pair
	// EMMetrics scores a rule set on labeled pairs.
	EMMetrics = em.Metrics
	// IEExtractor bundles IE rules with normalizers.
	IEExtractor = ie.Extractor
	// IEExtraction is one extracted attribute value.
	IEExtraction = ie.Extraction
	// KB is a built knowledge base.
	KB = kb.KB
	// CurationLog is the replayable analyst-edit log.
	CurationLog = kb.CurationLog
	// CurationRule is one captured edit.
	CurationRule = kb.CurationRule
	// Tagger is the entity-mention pipeline.
	Tagger = social.Tagger
	// EventMonitor is the Tweetbeat-style display monitor.
	EventMonitor = social.Monitor
	// SocialEvent is one monitored event.
	SocialEvent = social.Event
)

var (
	NewEMRule         = em.NewRule
	EMAttrEquals      = em.AttrEquals
	EMQGramJaccard    = em.QGramJaccard
	EMTokenJaccard    = em.TokenJaccard
	EMNumericWithin   = em.NumericWithin
	EvaluateEM        = em.Evaluate
	GenerateEMPairs   = em.GeneratePairs
	NewEMBlocker      = em.NewBlocker
	EMMatchCorpus     = em.MatchCorpus
	EMClusters        = em.Clusters
	EMNot             = em.Not
	EMPredicatePool   = em.DefaultPredicatePool
	EMLabelPairs      = em.LabelPairs
	EMInduceRules     = em.InduceRules
	NewIEDictRule     = ie.NewDictRule
	NewIERuleset      = ie.NewRuleset
	NewIENormalizer   = ie.NewNormalizer
	NewIETokenTagger  = ie.NewTokenTagger
	EvaluateIE        = ie.EvaluateExtractor
	BuildKB           = kb.Build
	SyntheticKBSource = kb.SyntheticSource
	NewTagger         = social.NewTagger
	NewEventMonitor   = social.NewMonitor
	NewTweetStream    = social.NewStream
)

// --- Observability (internal/obs, instrumentation in core and chimera) ------

type (
	// Metrics is a registry of counters, gauges and latency histograms with
	// atomic hot paths; Snapshot() round-trips through JSON and renders
	// Prometheus text exposition.
	Metrics = obs.Registry
	// MetricsSnapshot is a frozen, serializable registry.
	MetricsSnapshot = obs.Snapshot
	// Tracer records per-stage span trees (the -profile timing output).
	Tracer = obs.Tracer
	// Span is one timed pipeline stage.
	Span = obs.Span
	// InstrumentedExecutor decorates an executor with per-rule hit counts,
	// index selectivity and per-Apply latency; verdicts are identical to
	// the wrapped executor's.
	InstrumentedExecutor = core.InstrumentedExecutor
	// RuleHealth is one rule's telemetry-derived health record (never-fired,
	// always-vetoed, low-precision).
	RuleHealth = core.RuleHealth
	// HealthAction is a telemetry-derived maintenance recommendation.
	HealthAction = core.HealthAction
	// BatchProfile is the per-batch operational profile (items/sec, decline
	// rate, queue depth, per-stage decision counts).
	BatchProfile = chimera.BatchProfile
	// AuditLog is the decision-provenance ring: a lock-free, fixed-capacity,
	// sampled log of per-item DecisionRecords with always-capture bias for
	// declines, degraded service and errors.
	AuditLog = obs.AuditLog
	// AuditConfig parameterizes an AuditLog (capacity, sample stride).
	AuditConfig = obs.AuditConfig
	// DecisionRecord is one item's decision provenance: request ID, snapshot
	// version, path taken, rules fired/vetoed, stage latencies and outcome.
	DecisionRecord = obs.DecisionRecord
	// StageLatency is one named stage duration inside a DecisionRecord.
	StageLatency = obs.StageLatency
	// OpsServer is the embeddable live-ops HTTP surface (/metrics, /healthz,
	// /readyz, /decisions, /snapshot, /debug/pprof).
	OpsServer = opshttp.Server
	// OpsOptions wires an OpsServer to the process's observability state.
	OpsOptions = opshttp.Options
	// OpsHealthStatus is one health-probe result.
	OpsHealthStatus = opshttp.HealthStatus
	// OpsSnapshotInfo describes the active rule set for /snapshot.
	OpsSnapshotInfo = opshttp.SnapshotInfo
)

// Decision-provenance paths and outcomes (DecisionRecord vocabulary).
const (
	DecisionPathPerItem    = obs.PathPerItem
	DecisionPathBatchGate  = obs.PathBatchGate
	DecisionPathClassifier = obs.PathClassifier
	DecisionPathDegraded   = obs.PathDegraded
	DecisionPathCrowd      = obs.PathCrowd
	DecisionPathManual     = obs.PathManual
	DecisionPathServe      = obs.PathServe

	DecisionOutcomeClassified = obs.OutcomeClassified
	DecisionOutcomeDeclined   = obs.OutcomeDeclined
	DecisionOutcomeShed       = obs.OutcomeShed
	DecisionOutcomeDrain      = obs.OutcomeDrain
	DecisionOutcomeExpired    = obs.OutcomeExpired
	DecisionOutcomeVerified   = obs.OutcomeVerified
	DecisionOutcomeFlagged    = obs.OutcomeFlagged
	DecisionOutcomeLabeled    = obs.OutcomeLabeled
)

// --- Serving layer (internal/serve) ------------------------------------------

type (
	// ServeSnapshot is an immutable, pre-built view of the active rules at
	// one rulebase version: lock-free to read, never torn.
	ServeSnapshot = serve.Snapshot
	// ServeEngine owns the current snapshot and keeps it fresh — either
	// synchronously and version-cached (Acquire) or via the async
	// rebuild-and-swap loop (Start/Current).
	ServeEngine = serve.Engine
	// ServeEngineOptions parameterizes a ServeEngine.
	ServeEngineOptions = serve.EngineOptions
	// ServeOptions parameterizes a Server (workers, queue depth).
	ServeOptions = serve.ServerOptions
	// Server is the concurrent serving frontend instantiated by
	// Pipeline.NewServer: bounded queue, worker pool, explicit shed and
	// graceful drain. Each batch is classified under one snapshot.
	Server = serve.Server[chimera.Decision]
	// ServeTicket is the caller's handle on a submitted batch.
	ServeTicket = serve.Ticket[chimera.Decision]
	// ServeRetrier wraps Submit with capped exponential backoff and full
	// jitter for queue-full sheds.
	ServeRetrier = serve.Retrier[chimera.Decision]
	// ServeRetryOptions parameterizes a ServeRetrier.
	ServeRetryOptions = serve.RetryOptions
	// ResilientClient is the failure-aware pipeline frontend: deadline
	// propagation, retry/backoff, and gate-only degraded fallback
	// (Pipeline.NewResilientClient).
	ResilientClient = chimera.ResilientClient
	// ResilienceOptions parameterizes a ResilientClient.
	ResilienceOptions = chimera.ResilienceOptions
	// FaultInjector is the deterministic, seeded fault-injection source for
	// chaos drills (handler latency, rebuild stalls/failures, crowd faults).
	FaultInjector = faultinject.Injector
	// FaultConfig parameterizes a FaultInjector.
	FaultConfig = faultinject.Config
)

var (
	// NewServeEngine builds the snapshot engine for a standalone rulebase
	// (pipelines get one automatically; see Pipeline.Snapshots).
	NewServeEngine = serve.NewEngine
	// NewServeRetrier wraps a pipeline Server in retry/backoff.
	NewServeRetrier = serve.NewRetrier[chimera.Decision]
	// BuildServeSnapshot builds an immutable serving snapshot of a rulebase's
	// active rules directly (engines do this internally; exposed for restart
	// drills and tests that compare verdicts byte for byte).
	BuildServeSnapshot = serve.BuildSnapshot
	// NewFaultInjector builds a seeded fault injector.
	NewFaultInjector = faultinject.New
	// ErrServeQueueFull is Submit's explicit-shed error.
	ErrServeQueueFull = serve.ErrQueueFull
	// ErrServeShutdown is returned by Submit after shutdown began.
	ErrServeShutdown = serve.ErrShutdown
	// ErrServeDeclined resolves tickets declined by an expiring drain.
	ErrServeDeclined = serve.ErrDeclined
	// ErrServeRetryBudget is returned when a retrier's lifetime budget is
	// exhausted; it unwraps to ErrServeQueueFull.
	ErrServeRetryBudget = serve.ErrRetryBudget
	// ErrFaultInjected marks every injected failure (errors.Is-matchable).
	ErrFaultInjected = faultinject.ErrInjected
	// ErrCrowdNoAnswers is returned when every crowd assignment for a task
	// was lost to timeouts or no-shows.
	ErrCrowdNoAnswers = crowd.ErrNoAnswers
	// CrowdFloat makes a *float64 for CrowdConfig's pointer-typed knobs
	// (explicit zero accuracy/spread is distinct from unset).
	CrowdFloat = crowd.Float
)

// Serving-layer metric names (in the pipeline's Obs registry).
const (
	MetricServeSnapshotSwaps   = serve.MetricSnapshotSwaps
	MetricServeQueueDepth      = serve.MetricQueueDepth
	MetricServeShed            = serve.MetricShed
	MetricServeBatches         = serve.MetricBatches
	MetricServeItems           = serve.MetricItems
	MetricServeDeclined        = serve.MetricDeclined
	MetricServeDeadlineExpired = serve.MetricDeadlineExpired
	MetricServeRetryAttempts   = serve.MetricRetryAttempts
	MetricServeRetrySuccess    = serve.MetricRetrySuccess
	MetricServeRetryGiveUp     = serve.MetricRetryGiveUp
	MetricServeBuildErrors     = serve.MetricBuildErrors
	MetricServeDegraded        = serve.MetricDegraded
	MetricDegradedItems        = chimera.MetricDegradedItems
	MetricDegradedBatches      = chimera.MetricDegradedBatches
)

// --- Durable rulebase (internal/persist) -------------------------------------

type (
	// PersistStore is the durable rulebase store: a CRC-framed write-ahead
	// log of rule mutations plus periodic compacted snapshots, with
	// crash-safe valid-prefix recovery (OpenPersist → Restore → Attach).
	PersistStore = persist.Store
	// PersistOptions parameterizes OpenPersist (directory, fsync policy,
	// snapshot cadence, metrics registry, fault injector).
	PersistOptions = persist.Options
	// PersistRestoreStats summarizes one Restore (snapshot version, WAL
	// records replayed, final version).
	PersistRestoreStats = persist.RestoreStats
	// WALRecord is one decoded write-ahead-log entry.
	WALRecord = persist.Record
	// RulebaseChange is one applyable rulebase mutation — the change-feed
	// payload (Rulebase.SubscribeChanges) the WAL persists and
	// Rulebase.ApplyChange replays.
	RulebaseChange = core.Change
)

var (
	// OpenPersist opens (or creates) a durable store directory.
	OpenPersist = persist.Open
	// ExportDecisions writes the audit ring's newest n decision records to a
	// file as NDJSON, atomically (temp + rename).
	ExportDecisions = persist.ExportDecisions
	// WriteDecisionsNDJSON streams decision records to a writer as NDJSON.
	WriteDecisionsNDJSON = persist.WriteDecisionsNDJSON
	// ErrPersistTornWrite marks a store killed by a torn WAL append; reopen
	// to recover the valid prefix.
	ErrPersistTornWrite = persist.ErrTornWrite
	// ErrPersistShortRead marks a store that saw a truncated WAL read at
	// open: restores serve the valid prefix, writes are refused.
	ErrPersistShortRead = persist.ErrShortRead
)

// Persistence metric names (persist_*, in the store's Obs registry).
const (
	MetricPersistWALAppends      = persist.MetricWALAppends
	MetricPersistWALBytes        = persist.MetricWALBytes
	MetricPersistFsyncSeconds    = persist.MetricFsyncSeconds
	MetricPersistSnapshots       = persist.MetricSnapshots
	MetricPersistSnapshotBytes   = persist.MetricSnapshotBytes
	MetricPersistSnapshotSeconds = persist.MetricSnapshotSeconds
	MetricPersistReplayed        = persist.MetricReplayed
	MetricPersistRestores        = persist.MetricRestores
	MetricPersistTornTails       = persist.MetricTornTails
)

var (
	// NewMetrics returns an empty metric registry.
	NewMetrics = obs.NewRegistry
	// DefaultMetrics is the process-wide registry, dumped by the CLIs.
	DefaultMetrics = obs.Default
	// NewTracer returns an empty span tracer.
	NewTracer = obs.NewTracer
	// NewInstrumentedExecutor wraps an executor with telemetry.
	NewInstrumentedExecutor = core.NewInstrumentedExecutor
	// PlanHealthActions turns a RuleHealth report into maintenance actions.
	PlanHealthActions = core.PlanHealthActions
	// LatencyBuckets is the default latency histogram layout (seconds).
	LatencyBuckets = obs.LatencyBuckets
	// NewAuditLog builds a decision-provenance ring (see AuditConfig; a
	// negative Capacity disables capture entirely).
	NewAuditLog = obs.NewAuditLog
	// FormatDecisionBreakdown renders an AuditLog.Breakdown() as the aligned
	// path × outcome table the CLI prints.
	FormatDecisionBreakdown = obs.FormatBreakdown
	// NewOpsServer assembles the live-ops HTTP surface (not yet listening;
	// call Start).
	NewOpsServer = opshttp.New
	// WithRequestID / RequestIDFrom / NewRequestID propagate decision
	// provenance request IDs through context.Context.
	WithRequestID = obs.WithRequestID
	RequestIDFrom = obs.RequestID
	NewRequestID  = obs.NewRequestID
)
