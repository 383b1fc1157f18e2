package retention

import "distlog/internal/faultpoint"

// Crash points on the archive lifecycle path, swept by the segmented
// crashaudit mode.
const (
	// FPVolumeSeal fires after the active archive volume is synced and
	// sealed, before its successor is created: a crash here reopens the
	// full volume as the active one, and the next overflowing append
	// re-runs the rotation.
	FPVolumeSeal = "retention.volume.seal"
	// FPVolumeRetire fires after the retirement boundary is durably
	// advanced past a fully-truncated volume, before the volume file is
	// unlinked: a crash here leaves a stray volume below the boundary,
	// which OpenArchive deletes.
	FPVolumeRetire = "retention.volume.retire"
	// FPSyncDir is hit (via HitErr) by every directory fsync of the
	// archive: after a volume is created, after a rewritten forest or
	// overlay log and after the manifest are renamed into place. An
	// injected error is a directory entry that may not survive a crash —
	// the volume must take no frame, Sync must not report the rewritten
	// log durable, and the manifest's floors must retire nothing.
	FPSyncDir = "retention.archive.sync-dir"
)

var _ = faultpoint.Register(FPVolumeSeal, FPVolumeRetire, FPSyncDir)
