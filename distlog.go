// Package distlog is a Go implementation of the distributed logging
// service of Daniels, Spector & Thompson, "Distributed Logging for
// Transaction Processing" (SIGMOD 1987): transaction-processing nodes
// write their recovery logs to shared log server nodes, with each
// record replicated on N of M servers by a single-client quorum
// consensus algorithm that uses epoch numbers and present flags to
// make crash-interrupted writes appear atomic.
//
// The package re-exports the system's public surface:
//
//   - Open / Client — the replicated log (WriteLog, ForceLog, ReadLog,
//     EndOfLog) with client initialization and crash recovery.
//   - NewServer / Server — a log server node over a pluggable Store
//     (memory, NVRAM+disk model, or ordinary files).
//   - Transports — an in-memory fault-injecting network and UDP.
//   - Engine — a write-ahead-logging transaction engine (the client
//     side recovery manager) that runs over a replicated log or a
//     local duplexed-disk log.
//   - Availability and capacity models reproducing the paper's
//     analysis (Figure 3.4, Section 4.1).
//
// See examples/ for runnable walkthroughs and DESIGN.md for the map
// from paper sections to packages.
package distlog

import (
	"net/http"

	"distlog/internal/availability"
	"distlog/internal/capacity"
	"distlog/internal/core"
	"distlog/internal/disk"
	"distlog/internal/idgen"
	"distlog/internal/loadassign"
	"distlog/internal/locallog"
	"distlog/internal/nvram"
	"distlog/internal/recman"
	"distlog/internal/record"
	"distlog/internal/retention"
	"distlog/internal/server"
	"distlog/internal/splitlog"
	"distlog/internal/storage"
	"distlog/internal/telemetry"
	"distlog/internal/transport"
	"distlog/internal/workload"
)

// Core vocabulary.
type (
	// LSN is a log sequence number: records in a replicated log are
	// identified by increasing LSNs.
	LSN = record.LSN
	// Epoch numbers distinguish records written in different client
	// crash epochs.
	Epoch = record.Epoch
	// ClientID identifies the single client node owning a replicated
	// log.
	ClientID = record.ClientID
	// Record is a log record with its LSN, epoch, and present flag.
	Record = record.Record
	// Interval is one consecutive sequence of records on a log server.
	Interval = record.Interval
	// StreamDep is one dependency-vector entry on a commit-class
	// record of a multi-stream log: "stream Stream had published
	// through LSN High when this record was appended".
	StreamDep = record.StreamDep
)

// Client side (the paper's primary contribution).
type (
	// Client is a replicated log handle.
	Client = core.ReplicatedLog
	// ClientConfig configures Open.
	ClientConfig = core.Config
	// ClientStats counts client protocol activity.
	ClientStats = core.Stats
	// Cursor streams log records in one direction with pipelined
	// prefetch; see Client.OpenCursor.
	Cursor = core.Cursor
	// Direction selects a cursor's scan direction.
	Direction = core.Direction
	// Stream is one independent logging stream of a multi-stream
	// client; see Client.Stream and ClientConfig.Streams.
	Stream = core.Stream
	// MergedCursor scans all streams of a multi-stream client as one
	// dependency-ordered sequence; see Client.OpenMergedCursor.
	MergedCursor = core.MergedCursor
	// StreamRecord is a MergedCursor record tagged with its stream.
	StreamRecord = core.StreamRecord
)

// Cursor scan directions.
const (
	// Forward scans toward the end of the log.
	Forward = core.Forward
	// Backward scans toward LSN 1.
	Backward = core.Backward
)

// Open dials the configured log servers, runs client initialization
// and crash recovery (Section 3.1.2), and returns a usable replicated
// log.
func Open(cfg ClientConfig) (*Client, error) { return core.Open(cfg) }

// Client-side errors.
var (
	ErrNotPresent  = core.ErrNotPresent
	ErrBeyondEnd   = core.ErrBeyondEnd
	ErrUnavailable = core.ErrUnavailable
	ErrInitQuorum  = core.ErrInitQuorum
	ErrClosed      = core.ErrClosed
)

// Server side.
type (
	// Server is a log server node.
	Server = server.Server
	// ServerConfig configures NewServer.
	ServerConfig = server.Config
	// ServerStats counts server activity.
	ServerStats = server.Stats
	// EpochHost hosts epoch-generator state representatives.
	EpochHost = server.EpochHost
	// MemEpochHost is the in-memory EpochHost implementation.
	MemEpochHost = server.MemEpochHost
)

// NewServer creates a log server; call Start on the result.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// NewMemEpochHost returns an in-memory epoch representative host.
func NewMemEpochHost() *MemEpochHost { return server.NewMemEpochHost() }

// Stores.
type (
	// Store is the log server storage abstraction.
	Store = storage.Store
	// DiskGeometry describes a simulated logging disk.
	DiskGeometry = disk.Geometry
	// Disk is the simulated track-addressed logging disk.
	Disk = disk.Disk
	// NVRAM is the battery-backed staging memory fronting a Disk.
	NVRAM = nvram.NVRAM
)

// NewMemStore returns a volatile in-memory store.
func NewMemStore() Store { return storage.NewMemStore() }

// NewModelledStore returns a store over a simulated track disk fronted
// by battery-backed NVRAM sized to nvramTracks tracks, along with the
// devices (which survive simulated power failures and can be passed to
// a future NewDiskStoreOver call).
func NewModelledStore(g DiskGeometry, nvramTracks int) (Store, *Disk, *NVRAM, error) {
	d, err := disk.New(g)
	if err != nil {
		return nil, nil, nil, err
	}
	nv := nvram.New(nvramTracks * g.TrackSize)
	s, err := storage.NewDiskStore(d, nv)
	if err != nil {
		return nil, nil, nil, err
	}
	return s, d, nv, nil
}

// NewDiskStoreOver reopens a store over existing devices (a server
// node reboot).
func NewDiskStoreOver(d *Disk, nv *NVRAM) (Store, error) {
	return storage.NewDiskStore(d, nv)
}

// Log space management (Section 5.3).
type (
	// SegStore is the segmented durable store: fixed-size append
	// segments, whole-segment reclamation, archive-tier compaction.
	SegStore = storage.SegStore
	// SegOptions configures OpenSegStore.
	SegOptions = storage.SegOptions
	// ArchiveTier is the write-once cold tier compaction migrates
	// fully-stable segments into.
	ArchiveTier = storage.ArchiveTier
	// StoreUsage reports a store's disk footprint.
	StoreUsage = storage.Usage
	// Archive is the file-backed ArchiveTier implementation (append
	// forest per client over fixed-size rotating volumes).
	Archive = retention.Archive
	// ArchiveOptions configures OpenArchive (volume capacity).
	ArchiveOptions = retention.ArchiveOptions
	// Compactor reclaims segments in the background, paced off the
	// force-latency histogram.
	Compactor = retention.Compactor
	// CompactorConfig configures NewCompactor.
	CompactorConfig = retention.CompactorConfig
)

// OpenSegStore opens (or recovers) a segmented store rooted at dir.
func OpenSegStore(dir string, opts SegOptions) (*SegStore, error) {
	return storage.OpenSegStore(dir, opts)
}

// OpenArchive opens (or recovers) a write-once archive tier at dir.
func OpenArchive(dir string, opts ArchiveOptions) (*Archive, error) {
	return retention.OpenArchive(dir, opts)
}

// NewCompactor starts a background compactor; Stop shuts it down.
func NewCompactor(cfg CompactorConfig) *Compactor { return retention.NewCompactor(cfg) }

// DefaultDiskGeometry returns the slow-disk model used in the paper's
// capacity analysis.
func DefaultDiskGeometry() DiskGeometry { return disk.DefaultGeometry() }

// Transports.
type (
	// Endpoint is a datagram network attachment.
	Endpoint = transport.Endpoint
	// Network is the in-memory fault-injecting network.
	Network = transport.Network
	// Faults configures drop/duplicate/corrupt/delay injection.
	Faults = transport.Faults
	// UDPEndpoint is a datagram endpoint on a real UDP socket.
	UDPEndpoint = transport.UDPEndpoint
	// DualEndpoint binds two independent networks into one endpoint
	// with automatic failover.
	DualEndpoint = transport.DualEndpoint
)

// NewNetwork returns an in-memory network with deterministic faults.
func NewNetwork(seed int64) *Network { return transport.NewNetwork(seed) }

// Observability (metrics + LSN-lifecycle tracing).
type (
	// Telemetry is a per-process registry of metric families and an
	// optional event trace; pass one in ClientConfig/ServerConfig/
	// ClusterOptions to observe the corresponding component.
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time view of every instrument.
	TelemetrySnapshot = telemetry.Snapshot
	// TraceEvent is one LSN-lifecycle occurrence from the event trace.
	TraceEvent = telemetry.Event
)

// NewTelemetry returns an empty telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// TelemetryHandler serves a registry over HTTP: /metrics (JSON),
// /debug/telemetry (text), /debug/trace (the recent event timeline).
func TelemetryHandler(r *Telemetry) http.Handler { return telemetry.Handler(r) }

// ListenUDP opens a UDP endpoint ("host:port", ":0" for ephemeral).
func ListenUDP(addr string) (*UDPEndpoint, error) { return transport.ListenUDP(addr) }

// NewDualEndpoint binds interfaces on two independent networks into
// one endpoint — the Section 2 arrangement ("two complete networks,
// including two network interfaces in each processing node"). The
// client fails over between them automatically when one LAN dies.
func NewDualEndpoint(a, b Endpoint) *DualEndpoint {
	return transport.NewDualEndpoint(a, b)
}

// Load-assignment control plane (write-set migration).
type (
	// Rebalancer is the live load-assignment controller; build one
	// with Cluster.NewRebalancer (or assemble Snapshot/Move by hand
	// for a real deployment) and call Step.
	Rebalancer = loadassign.Controller
	// RebalancePolicy decides which clients migrate where.
	RebalancePolicy = loadassign.Policy
	// RendezvousPolicy is the default policy: rendezvous placement,
	// moving only clients whose write set lost a member.
	RendezvousPolicy = loadassign.RendezvousPolicy
	// HeadroomPolicy places displaced clients on the servers with the
	// most reclaimable archive headroom.
	HeadroomPolicy = loadassign.HeadroomPolicy
	// LoadView is one control-plane snapshot of servers and clients.
	LoadView = loadassign.View
	// ServerLoad describes one server in a LoadView.
	ServerLoad = loadassign.ServerLoad
	// ClientLoad describes one client in a LoadView.
	ClientLoad = loadassign.ClientLoad
	// MigrationDecision directs one client to a new write set.
	MigrationDecision = loadassign.Decision
)

// Recovery manager (transaction engine substrate).
type (
	// Engine is a WAL transaction engine over a recovery log.
	Engine = recman.Engine
	// EngineOptions configures OpenEngine.
	EngineOptions = recman.Options
	// Txn is one transaction.
	Txn = recman.Txn
	// RecoveryLog is what the engine needs from a log; *Client and
	// *LocalLog both satisfy it.
	RecoveryLog = recman.Log
	// StableStore models the database's non-volatile page storage.
	StableStore = recman.StableStore
	// SplitCache is the volatile undo-component cache behind
	// EngineOptions.Split (Section 5.2 log record splitting): undo
	// values stay in memory and reach the log only when their page is
	// about to be cleaned.
	SplitCache = splitlog.Cache
	// SplitAppender is what a SplitCache logs spilled undo components
	// through; *Client and *LocalLog both satisfy it.
	SplitAppender = splitlog.Appender
	// SplitStats counts a SplitCache's activity.
	SplitStats = splitlog.Stats
)

// NewSplitCache returns an empty undo cache spilling to log. The
// engine builds its own when EngineOptions.Split is set; a standalone
// cache serves resource managers with their own logging discipline.
func NewSplitCache(log SplitAppender) *SplitCache { return splitlog.New(log) }

// OpenEngine recovers the database state and returns a ready engine.
func OpenEngine(log RecoveryLog, stable *StableStore, opts EngineOptions) (*Engine, error) {
	return recman.Open(log, stable, opts)
}

// NewStableStore returns an empty stable store.
func NewStableStore() *StableStore { return recman.NewStableStore() }

// ApplyET1 runs one ET1 (DebitCredit) transaction on the engine.
func ApplyET1(e *Engine, txn workload.ET1Txn) (int64, error) { return recman.ApplyET1(e, txn) }

// Local duplexed-disk baseline (what the paper replaces).
type LocalLog = locallog.Log

// OpenLocalLog opens a local log with the given number of mirror files
// in dir (1 = single disk, 2 = duplexed).
func OpenLocalLog(dir string, mirrors int) (*LocalLog, error) { return locallog.Open(dir, mirrors) }

// Epoch generator (Appendix I).
type (
	// IDGenerator is a replicated increasing unique identifier
	// generator.
	IDGenerator = idgen.Generator
	// Representative stores one copy of generator state.
	Representative = idgen.Representative
)

// NewIDGenerator returns a generator over the representatives.
func NewIDGenerator(reps ...Representative) (*IDGenerator, error) { return idgen.New(reps...) }

// Analysis models.
type (
	// AvailabilityConfig is an (M, N, p) replicated log configuration.
	AvailabilityConfig = availability.Config
	// AvailabilityPoint is one Figure 3.4 data point.
	AvailabilityPoint = availability.Point
	// CapacityParams configures the Section 4.1 analysis.
	CapacityParams = capacity.Params
	// CapacityReport is its closed-form result.
	CapacityReport = capacity.Report
	// ET1Txn is one generated DebitCredit transaction.
	ET1Txn = workload.ET1Txn
	// ET1Scale sizes the ET1 bank.
	ET1Scale = workload.ET1Scale
	// ET1Generator generates a reproducible ET1 transaction stream.
	ET1Generator = workload.ET1Generator
	// LongTxnGenerator generates the Section 2 workstation workload:
	// long design transactions with savepoints and partial rollbacks.
	LongTxnGenerator = workload.LongTxnGenerator
	// LongTxnOp is one operation of a long design transaction.
	LongTxnOp = workload.LongTxnOp
)

// WriteLogAvailability returns P(WriteLog available) for the config.
func WriteLogAvailability(c AvailabilityConfig) float64 { return availability.WriteLog(c) }

// ClientInitAvailability returns P(client initialization available).
func ClientInitAvailability(c AvailabilityConfig) float64 { return availability.ClientInit(c) }

// Figure34 computes the paper's Figure 3.4 series.
func Figure34(p float64, maxM int) []AvailabilityPoint { return availability.Figure34(p, maxM) }

// AnalyzeCapacity runs the Section 4.1 closed-form analysis.
func AnalyzeCapacity(p CapacityParams) CapacityReport { return capacity.Analyze(p) }

// PaperCapacityParams returns the paper's 500 TPS target configuration.
func PaperCapacityParams() CapacityParams { return capacity.PaperParams() }

// NewET1 returns a reproducible ET1 transaction generator.
func NewET1(scale ET1Scale, seed int64) *ET1Generator { return workload.NewET1(scale, seed) }

// DefaultET1Scale returns a laptop-sized ET1 bank.
func DefaultET1Scale() ET1Scale { return workload.DefaultScale() }

// NewLongTxn returns a reproducible long-transaction generator over
// keyspace keys.
func NewLongTxn(keys int, seed int64) *LongTxnGenerator { return workload.NewLongTxn(keys, seed) }
