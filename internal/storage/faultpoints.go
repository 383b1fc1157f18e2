package storage

import "distlog/internal/faultpoint"

// Fault points of the storage layer, shared by all backends.
const (
	// FPForce is hit by every Store.Force before it makes appended
	// records stable.
	FPForce = "storage.force"
	// FPInstallPartial is hit (via HitErr) once per staged record as
	// InstallCopies applies the batch; arming it with an error tears
	// the install inside one server — some copies indexed, the rest
	// abandoned — which the next client recovery must converge over.
	FPInstallPartial = "storage.install.partial"

	// FPSegmentSeal is hit by the segmented store just after the active
	// segment was synced and sealed but before the next segment accepts
	// the append that overflowed it — a crash here leaves a full sealed
	// segment and nothing after it.
	FPSegmentSeal = "retention.segment.seal"
	// FPArchivePublish is hit (via HitErr) by segment compaction after
	// the live records of the victim segment were written and synced to
	// the archive tier but before the manifest advances the replay
	// boundary — a crash here leaves the records in both tiers, and the
	// retried compaction must re-archive idempotently.
	FPArchivePublish = "retention.archive.publish"
	// FPSegmentFold is hit by segment compaction after the victim's live
	// records were archived and published, just before its entries are
	// folded into the manifest's base state — a crash here is a crash
	// before the boundary advance; a stall here must not hold up the
	// foreground, which the fold runs beside.
	FPSegmentFold = "retention.segment.fold"
	// FPSegmentDelete is hit (via HitErr) by segment compaction after
	// the manifest advanced past the victim segment but before its file
	// was removed — a crash here leaves a stray segment below the
	// boundary that the next open (or compaction pass) must discard
	// without replaying it.
	FPSegmentDelete = "retention.segment.delete"
	// FPSyncDir is hit (via HitErr) by every directory fsync of the
	// segmented store: after a new segment file is created and after the
	// manifest is renamed into place. An injected error is a directory
	// entry that may not survive a crash — the segment must take no
	// record, the compaction must remove no file.
	FPSyncDir = "retention.segment.sync-dir"
)

var _ = faultpoint.Register(FPForce, FPInstallPartial,
	FPSegmentSeal, FPArchivePublish, FPSegmentFold, FPSegmentDelete, FPSyncDir)
