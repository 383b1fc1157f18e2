// Package crashaudit drives the crash-point audit of the Section 3.1.2
// recovery procedure. It runs a write/force workload against a memnet
// cluster, kills the client — or its log servers — at a chosen
// faultpoint pass, reboots every server over its surviving store, opens
// a new client incarnation, and hands it to sim.CrashChecker, which
// audits the Section 3.1 guarantees (acknowledged records durable, the
// doubtful window bounded by δ, doubtful outcomes stable, epochs
// strictly increasing).
//
// Sweep walks every registered crash point in turn, escalating the
// per-point hit count until a trigger no longer fires; Randomized
// replays the same scenario under a lossy network with random points,
// hit counts, and seeds. Both are exposed through the core package's
// tests and the crashaudit command.
package crashaudit

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"distlog/internal/core"
	"distlog/internal/faultpoint"
	"distlog/internal/record"
	"distlog/internal/retention"
	"distlog/internal/server"
	"distlog/internal/sim"
	"distlog/internal/storage"
	"distlog/internal/telemetry"
	"distlog/internal/transport"
)

const clientID = record.ClientID(7)

// segSegmentBytes is the segment capacity of the segmented-rig stores:
// small enough that the audit workload (a few dozen short records)
// seals several segments, so the retention crash points are reached.
const segSegmentBytes = 200

// segVolumeBytes is the archive volume capacity of the segmented-rig
// archives: roughly two data frames, so compaction rotates (seals)
// volumes and truncation-floor advances retire them within the audit
// workload, reaching the retention.volume.* crash points.
const segVolumeBytes = 96

// traceDump is how many of the dying incarnation's trace events are
// appended to a failure report — enough to cover the last force round
// on every server plus the retries leading into the crash.
const traceDump = 32

// errInjected is the storage failure injected at error-returning
// faultpoints (storage.install.partial).
var errInjected = errors.New("crashaudit: injected storage fault")

// Options configures one audit scenario.
type Options struct {
	// Seed fixes the memnet fault schedule (and, for Randomized, the
	// point/hit-count choices) so failures replay identically.
	Seed int64
	// Servers is M, N the copies per record, Delta the δ bound.
	Servers int
	N       int
	Delta   int
	// CallTimeout and Retries are the client's; the defaults are small
	// so crash scenarios fail over quickly.
	CallTimeout time.Duration
	Retries     int
	// Faults, when non-zero, misbehaves the network during workload
	// phases (never during the post-crash audit, which must observe the
	// log, not the network).
	Faults transport.Faults
	// MaxHits caps Sweep's per-point hit-count escalation.
	MaxHits uint64
	// Segmented backs every server with a storage.SegStore (tiny
	// segments, a retention.Archive cold tier) instead of a MemStore,
	// and the workload adds checkpoint + compaction steps: the
	// compacted-store recovery sweep. RunPoint turns it on
	// automatically for the retention.* crash points, which are only
	// reachable on a segmented store.
	Segmented bool
	// Logf, when set, receives one line per run.
	Logf func(format string, args ...interface{})

	// forceDelay, when non-zero, slows every server's store force (see
	// slowForce). RunPoint sets it for the group-force handoff point.
	forceDelay time.Duration
}

func (o *Options) fillDefaults() {
	if o.Servers == 0 {
		o.Servers = 3
	}
	if o.N == 0 {
		o.N = 2
	}
	if o.Delta == 0 {
		o.Delta = 4
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 20 * time.Millisecond
		if o.Segmented {
			// Segmented stores fsync for real (segment seals, manifest
			// replaces, archive publishes), so a single staging call can
			// legitimately outlast the memnet-tuned timeout on a loaded
			// machine.
			o.CallTimeout = 150 * time.Millisecond
		}
	}
	if o.Retries == 0 {
		o.Retries = 1
	}
	if o.MaxHits == 0 {
		o.MaxHits = 4
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
}

// Report summarizes a Sweep or Randomized pass.
type Report struct {
	Runs       int                 // crash scenarios executed
	Recoveries int                 // crash/recover cycles audited
	Fired      map[string][]uint64 // per point: hit counts whose trigger fired
}

// slowForce widens the force window: the group-force handoff point
// can only be reached while one store force is in flight and another
// session is waiting, so the scenario that audits it stretches every
// underlying force by a few milliseconds.
type slowForce struct {
	storage.Store
	delay time.Duration
}

func (s *slowForce) Force() error {
	time.Sleep(s.delay)
	return s.Store.Force()
}

// rig is the cluster under audit: M log servers over MemStores on one
// memnet. Stores and epoch hosts survive server restarts — a reboot
// keeps its stable storage, exactly the paper's failure model.
type rig struct {
	net        *transport.Network
	names      []string
	stores     map[string]storage.Store
	forceDelay time.Duration // non-zero: servers see slowForce-wrapped stores
	epochs     map[string]*server.MemEpochHost

	// Segmented mode: stores are SegStores under dir, each with its
	// own archive; restartAll reopens them from disk so recovery
	// exercises the manifest + segment replay path.
	segmented bool
	dir       string
	archives  map[string]*retention.Archive

	// reg collects LSN-lifecycle trace events from every node in the
	// scenario; when an audit fails, the tail of the trace shows what
	// was in flight when the armed point killed the incarnation.
	reg *telemetry.Registry

	mu      sync.Mutex
	servers map[string]*server.Server
	seps    map[string]transport.Endpoint
}

func newRig(o Options) (*rig, error) {
	reg := telemetry.NewRegistry()
	reg.EnableTrace(1024)
	r := &rig{
		net:        transport.NewNetwork(o.Seed),
		stores:     make(map[string]storage.Store),
		forceDelay: o.forceDelay,
		epochs:     make(map[string]*server.MemEpochHost),
		segmented:  o.Segmented,
		reg:        reg,
		servers:    make(map[string]*server.Server),
		seps:       make(map[string]transport.Endpoint),
	}
	if r.segmented {
		dir, err := os.MkdirTemp("", "crashaudit-seg")
		if err != nil {
			return nil, err
		}
		r.dir = dir
		r.archives = make(map[string]*retention.Archive)
	}
	r.net.SetTelemetry(reg)
	for i := 0; i < o.Servers; i++ {
		name := fmt.Sprintf("ls%d", i+1)
		r.names = append(r.names, name)
		if r.segmented {
			if err := r.openSegStore(name); err != nil {
				r.stopAll()
				return nil, err
			}
		} else {
			r.stores[name] = storage.NewMemStore()
		}
		r.epochs[name] = server.NewMemEpochHost()
		r.start(name)
	}
	return r, nil
}

// openSegStore (re)opens one server's segmented store and archive from
// its on-disk state.
func (r *rig) openSegStore(name string) error {
	arch, err := retention.OpenArchive(filepath.Join(r.dir, name, "archive"), retention.ArchiveOptions{VolumeBytes: segVolumeBytes})
	if err != nil {
		return err
	}
	st, err := storage.OpenSegStore(filepath.Join(r.dir, name, "segs"), storage.SegOptions{
		SegmentBytes: segSegmentBytes,
		Archive:      arch,
	})
	if err != nil {
		arch.Close()
		return err
	}
	r.archives[name] = arch
	r.stores[name] = st
	return nil
}

func (r *rig) start(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.startLocked(name)
}

func (r *rig) startLocked(name string) {
	ep := r.net.Endpoint(name)
	st := r.stores[name]
	if r.forceDelay > 0 {
		st = &slowForce{Store: st, delay: r.forceDelay}
	}
	srv := server.New(server.Config{
		Name:      name,
		Store:     st,
		Endpoint:  ep,
		Epochs:    r.epochs[name],
		Telemetry: r.reg,
	})
	srv.Start()
	r.servers[name] = srv
	r.seps[name] = ep
}

// stop halts one server gracefully (endpoint closed, receive loop
// joined). Safe only from the harness goroutine.
func (r *rig) stop(name string) {
	r.mu.Lock()
	srv := r.servers[name]
	r.servers[name] = nil
	r.mu.Unlock()
	if srv != nil {
		srv.Stop()
	}
}

// crashServers closes every live server endpoint without joining the
// receive loops: it runs as a faultpoint callback on a server's own
// goroutine, where Stop would deadlock waiting for the very loop that
// is executing the callback.
func (r *rig) crashServers() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ep := range r.seps {
		ep.Close()
	}
}

// restartAll reboots every server over its surviving store. In
// segmented mode the store itself is closed and reopened from disk —
// a real server reboot — so the manifest, stray-segment cleanup, and
// segment replay paths run under audit.
func (r *rig) restartAll() error {
	for _, name := range r.names {
		r.stop(name)
		if r.segmented {
			r.stores[name].Close()
			r.archives[name].Close()
			if err := r.openSegStore(name); err != nil {
				return fmt.Errorf("crashaudit: reopening segmented store %s: %w", name, err)
			}
		}
		r.start(name)
	}
	return nil
}

// checkpointAndCompact is the segmented-mode workload step: the client
// checkpoints (advancing its truncation point, reported to every
// server fire-and-forget) and compaction then reclaims and archives the
// segments the truncation freed — reaching the segment-seal,
// archive-publish and segment-delete crash points. Skipped once the
// armed point has fired: the dying incarnation must not keep issuing
// calls.
func (r *rig) checkpointAndCompact(l *core.ReplicatedLog, chk *sim.CrashChecker, pointName string) {
	if !r.segmented || faultpoint.Fired(pointName) {
		return
	}
	lsn, err := l.Checkpoint([]byte("ckpt"))
	if err != nil || faultpoint.Fired(pointName) {
		return
	}
	chk.Wrote(lsn, []byte("ckpt"))
	chk.Forced()
	chk.Truncated(l.Truncated())
	r.waitFloorApplied(l.Truncated(), pointName)
	r.compactAll()
	r.retireAll()
}

// waitFloorApplied polls until every store holding the audited
// client's records has applied the truncation floor the checkpoint
// just reported. The report is fire-and-forget (§5.3), so without
// this bound the synchronous compactAll/retireAll below race the
// report datagrams and the archive's retirement decisions become
// schedule-dependent. Bails early once the armed point fires — the
// dying incarnation's floors may legitimately never land.
func (r *rig) waitFloorApplied(floor record.LSN, pointName string) {
	if floor <= 1 {
		return
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) && !faultpoint.Fired(pointName) {
		applied := true
		for _, st := range r.stores {
			cs, ok := st.(*storage.SegStore)
			if !ok {
				continue
			}
			// Truncate clamps so the last record always survives; a
			// store whose stream ends below the floor is done once its
			// first interval starts at its own last key.
			want := floor
			if last, _ := cs.LastKey(clientID); last < want {
				want = last
			}
			if ivs := cs.Intervals(clientID); len(ivs) > 0 && ivs[0].Low < want {
				applied = false
				break
			}
		}
		if applied {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// retireAll drives archive volume retirement to exhaustion on every
// server — the rig's synchronous stand-in for the compactor's
// retirement pass, so the volume-seal and volume-retire points are
// reached deterministically. Errors are expected when a retention
// point is armed; the post-recovery reopen converges.
func (r *rig) retireAll() {
	if !r.segmented {
		return
	}
	for _, a := range r.archives {
		for {
			ok, err := a.RetireOnce()
			if err != nil || !ok {
				break
			}
		}
	}
}

// compactAll drives segment compaction to exhaustion on every store —
// the rig's synchronous stand-in for the background compactor, so the
// archive-publish and segment-delete points are reached
// deterministically. Errors are expected: an armed retention point
// injects them, and the next pass (or the post-recovery reopen)
// converges.
func (r *rig) compactAll() {
	if !r.segmented {
		return
	}
	for _, st := range r.stores {
		cs, ok := st.(*storage.SegStore)
		if !ok {
			continue
		}
		for {
			ok, err := cs.CompactOnce()
			if err != nil || !ok {
				break
			}
		}
	}
}

func (r *rig) stopAll() {
	for _, name := range r.names {
		r.stop(name)
	}
	if r.segmented {
		for _, st := range r.stores {
			st.Close()
		}
		for _, a := range r.archives {
			a.Close()
		}
		os.RemoveAll(r.dir)
	}
}

// clientEndpoint returns the client node's network attachment. After a
// crash closed the previous one, the same name yields a fresh endpoint
// — the new incarnation at the old address.
func (r *rig) clientEndpoint() transport.Endpoint {
	return r.net.Endpoint("client")
}

func openLog(r *rig, o Options, ep transport.Endpoint) (*core.ReplicatedLog, error) {
	return core.Open(core.Config{
		ClientID:    clientID,
		Servers:     append([]string(nil), r.names...),
		N:           o.N,
		Delta:       o.Delta,
		Endpoint:    ep,
		CallTimeout: o.CallTimeout,
		Retries:     o.Retries,
		FlushBatch:  2, // stream early so a crash can strand a partially sent tail
		Streams:     2, // multi-stream: every open also recovers stream 1
		Telemetry:   r.reg,
	})
}

// Crash kinds: which node the armed trigger takes down.
const (
	kindClient  = iota // close the client endpoint
	kindServers        // close every server endpoint
	kindInject         // inject a storage error (no node dies)
)

func kindOf(point string) int {
	switch {
	case strings.HasPrefix(point, "client."), strings.HasPrefix(point, "core."):
		return kindClient
	case point == storage.FPInstallPartial,
		point == storage.FPArchivePublish,
		point == storage.FPSegmentDelete,
		point == storage.FPSyncDir,
		point == retention.FPVolumeSeal,
		point == retention.FPVolumeRetire,
		point == retention.FPSyncDir:
		return kindInject
	default:
		return kindServers
	}
}

// worker drives writes and forces, feeding the checker only operations
// that succeeded. Once the armed point fires the incarnation is dead —
// stopped() — and remaining operations are skipped.
type worker struct {
	l       *core.ReplicatedLog
	chk     *sim.CrashChecker
	stopped func() bool
	n       int
}

func (w *worker) write(count int, tag string) {
	for i := 0; i < count; i++ {
		if w.stopped != nil && w.stopped() {
			return
		}
		w.n++
		data := []byte(fmt.Sprintf("%s-%d", tag, w.n))
		if lsn, err := w.l.WriteLog(data); err == nil {
			w.chk.Wrote(lsn, data)
		}
	}
}

// scan runs a short backward cursor scan over the log's tail, the read
// a recovery manager performs. Errors are ignored — with the armed
// point killing a node mid-stream, a failed scan is the very scenario
// under audit; the invariant checks happen in the next incarnation.
func (w *worker) scan() {
	if w.stopped != nil && w.stopped() {
		return
	}
	end := w.l.EndOfLog()
	if end == 0 {
		return
	}
	cur, err := w.l.OpenCursor(end, core.Backward)
	if err != nil {
		return
	}
	for i := 0; i < 6; i++ {
		if _, err := cur.Next(); err != nil {
			break
		}
	}
	cur.Close()
}

func (w *worker) force() {
	if w.stopped != nil && w.stopped() {
		return
	}
	if err := w.l.Force(); err == nil {
		w.chk.Forced()
	}
}

// multiStream drives the second log stream: plain writes, a
// dependency-vectored commit (client.stream.commit-vector fires between
// the vector read and the append), a force, and a merged
// dependency-ordered scan over both streams
// (recman.merge.before-apply fires as each merged record is yielded).
// Stream-1 LSNs live in their own sequence, so they are not fed to the
// checker — it audits stream 0; stream 1's own durability is enforced
// by its own Section 3.1.2 recovery at every reopen.
func (w *worker) multiStream() {
	if w.stopped != nil && w.stopped() {
		return
	}
	s1 := w.l.Stream(1)
	w.n++
	s1.WriteLog([]byte(fmt.Sprintf("s1-%d", w.n)))
	s1.WriteCommit([]byte(fmt.Sprintf("s1-commit-%d", w.n)))
	if w.stopped != nil && w.stopped() {
		return
	}
	s1.Force()
	mc, err := w.l.OpenMergedCursor()
	if err != nil {
		return
	}
	for i := 0; i < 8; i++ {
		if _, err := mc.Next(); err != nil {
			break
		}
	}
	mc.Close()
}

// runAuxForcer opens an extra client (its own ClientID, hence its own
// write-set rotation) and loops write+force until stopped or the armed
// point fires. Its acknowledgments are not audited — it exists to keep
// server force groups busy so the main workload's forces coalesce.
func runAuxForcer(r *rig, o Options, id record.ClientID, pointName string, stop chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	ep := r.net.Endpoint(fmt.Sprintf("aux%d", id))
	defer ep.Close()
	al, err := core.Open(core.Config{
		ClientID:    id,
		Servers:     append([]string(nil), r.names...),
		N:           o.N,
		Delta:       o.Delta,
		Endpoint:    ep,
		CallTimeout: o.CallTimeout,
		Retries:     o.Retries,
		Telemetry:   r.reg,
	})
	if err != nil {
		return
	}
	defer al.Close()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if faultpoint.Fired(pointName) {
			return
		}
		al.WriteLog([]byte(fmt.Sprintf("aux%d-%d", id, i)))
		al.Force()
	}
}

// RunPoint executes one crash scenario: an unarmed incarnation leaves
// a doubtful tail, a second incarnation runs recovery and a workload
// with the named point armed to crash on its n-th pass, then the
// cluster reboots and fresh incarnations are audited against the
// Section 3.1 invariants. It reports whether the trigger fired (a hit
// count beyond what the workload reaches leaves it unfired; the
// scenario still ends with a clean recovery audit) and the first
// invariant violation found.
func RunPoint(o Options, pointName string, hitN uint64) (fired bool, err error) {
	if strings.HasPrefix(pointName, "retention.") {
		// The retention points only exist on a segmented store. Set
		// this before the defaults so the segmented timeout applies,
		// and floor a caller-supplied memnet-tuned timeout the same
		// way (Sweep fills defaults once for all points).
		o.Segmented = true
		if o.CallTimeout != 0 && o.CallTimeout < 150*time.Millisecond {
			o.CallTimeout = 150 * time.Millisecond
		}
		if o.Delta < 12 {
			// A wider doubtful window keeps more of the post-checkpoint
			// tail live: the records surviving each truncation span
			// several sealed 200-byte segments, so compaction reliably
			// archives frames — and the tiny archive volumes rotate and
			// retire — at hit 1 of every retention.volume.* point.
			o.Delta = 12
		}
	}
	o.fillDefaults()
	faultpoint.Reset()
	defer faultpoint.Reset()

	if pointName == server.FPForceBetweenCoalesced {
		// The handoff between coalesced force rounds only runs while
		// one store force is in flight and another session waits on it;
		// stretch every force so the auxiliary forcers below overlap.
		o.forceDelay = 2 * time.Millisecond
	}
	r, err := newRig(o)
	if err != nil {
		return false, fmt.Errorf("crashaudit: rig setup: %w", err)
	}
	defer r.stopAll()
	chk := sim.NewCrashChecker(o.Delta)

	// Incarnation 1: clean workload ending in an unforced tail, then an
	// abrupt crash — recovery always has doubtful records to resolve.
	ep1 := r.clientEndpoint()
	l1, err := openLog(r, o, ep1)
	if err != nil {
		return false, fmt.Errorf("crashaudit: first open: %w", err)
	}
	if err := chk.Audit(l1); err != nil {
		l1.Close()
		return false, err
	}
	r.net.SetFaults(o.Faults)
	w1 := &worker{l: l1, chk: chk}
	w1.write(5, "pre")
	w1.force()
	w1.write(3, "tail")
	r.net.SetFaults(transport.Faults{})
	ep1.Close()
	l1.Close()
	chk.Crashed()

	// Incarnation 2 runs with the point armed: recovery and workload
	// both pass through crash points, and the n-th pass kills the
	// corresponding node mid-protocol.
	ep2 := r.clientEndpoint()
	switch kindOf(pointName) {
	case kindClient:
		faultpoint.Arm(pointName, hitN, func() { ep2.Close() })
	case kindServers:
		faultpoint.Arm(pointName, hitN, r.crashServers)
	case kindInject:
		faultpoint.ArmErr(pointName, hitN, errInjected)
	}
	l2, err := openLog(r, o, ep2)
	if err == nil {
		// Open survived (the trigger fires later, or not at all).
		r.net.SetFaults(o.Faults)

		// The group-force handoff needs concurrent forces on one
		// server, which the serial workload never produces: for that
		// point only, background forcer clients hammer ForceLog (their
		// write sets overlap each other's and the main client's) so
		// coalesced rounds — and the handoff between them — occur.
		var auxStop chan struct{}
		var auxDone sync.WaitGroup
		if pointName == server.FPForceBetweenCoalesced {
			auxStop = make(chan struct{})
			for i := 1; i <= 2; i++ {
				auxDone.Add(1)
				go runAuxForcer(r, o, clientID+record.ClientID(i), pointName, auxStop, &auxDone)
			}
		}

		w2 := &worker{l: l2, chk: chk, stopped: func() bool { return faultpoint.Fired(pointName) }}
		w2.write(3, "w2a")
		w2.force()
		w2.scan()
		w2.multiStream()
		r.checkpointAndCompact(l2, chk, pointName)
		// Migrate the write set onto the spare server with an unforced
		// tail outstanding: the tail must drain onto the new interval via
		// the closing force, or — when the armed point is one of the
		// client.migrate.* points — be resolved as doubtful by the next
		// incarnation's recovery.
		w2.write(2, "w2m")
		if !faultpoint.Fired(pointName) {
			if ws := l2.WriteSet(); len(ws) == o.N {
				inSet := make(map[string]bool, len(ws))
				for _, m := range ws {
					inSet[m] = true
				}
				target := append([]string(nil), ws[1:]...)
				for _, name := range r.names {
					if !inSet[name] {
						target = append(target, name)
						break
					}
				}
				if len(target) == o.N {
					if err := l2.Migrate(target); err == nil {
						// The closing force confirmed everything written
						// so far on the new set.
						chk.Forced()
					}
				}
			}
		}
		if !faultpoint.Fired(pointName) {
			// Take a write-set member down mid-stream so the force path
			// exercises retry and failover (client.failover.before-swap
			// fires here), then bring it back.
			if ws := l2.WriteSet(); len(ws) > 0 {
				victim := ws[0]
				r.stop(victim)
				w2.write(2, "w2b")
				w2.force()
				r.start(victim)
			}
		}
		w2.write(3, "w2c")
		w2.force()
		w2.scan()
		r.checkpointAndCompact(l2, chk, pointName)
		w2.write(2, "w2d") // unforced tail again
		r.net.SetFaults(transport.Faults{})
		if auxStop != nil {
			close(auxStop)
			auxDone.Wait()
		}
		ep2.Close()
		l2.Close()
	}
	chk.Crashed()
	fired = faultpoint.Fired(pointName)
	faultpoint.Disarm(pointName)

	// Snapshot the dying incarnation's last trace events now, before
	// recovery overwrites the ring: every failure report below carries
	// this timeline so a violation shows what each node was doing when
	// the armed point fired.
	dying := r.reg.Trace().Tail(traceDump)
	fail := func(err error, context string) error {
		return fmt.Errorf("crashaudit: %s, crash at %s (hit %d): %w\ndying incarnation's last %d trace events:\n%s",
			context, pointName, hitN, err, len(dying), telemetry.FormatEvents(dying))
	}

	// Recovery: heal the network, reboot every server over its
	// surviving store, and audit a fresh incarnation.
	if err := r.restartAll(); err != nil {
		return fired, fail(err, "server reboot")
	}
	ep3 := r.clientEndpoint()
	l3, err := openLog(r, o, ep3)
	if err != nil {
		return fired, fail(err, "recovery open")
	}
	if err := chk.Audit(l3); err != nil {
		l3.Close()
		return fired, fail(err, "recovery audit")
	}
	// The recovered log must be fully usable: commit through it on the
	// healthy cluster, and re-audit with the new records acknowledged.
	w3 := &worker{l: l3, chk: chk}
	w3.write(4, "post")
	if err := l3.Force(); err != nil {
		l3.Close()
		return fired, fail(err, "post-recovery force")
	}
	chk.Forced()
	if err := chk.Audit(l3); err != nil {
		l3.Close()
		return fired, fail(err, "post-recovery audit")
	}

	// One more clean crash/reboot cycle: the audited state must survive
	// a recovery that had nothing to repair.
	ep3.Close()
	l3.Close()
	chk.Crashed()
	if err := r.restartAll(); err != nil {
		return fired, fail(err, "final server reboot")
	}
	l4, err := openLog(r, o, r.clientEndpoint())
	if err != nil {
		return fired, fail(err, "final open")
	}
	defer l4.Close()
	if err := chk.Audit(l4); err != nil {
		return fired, fail(err, "final incarnation audit")
	}
	if r.segmented {
		// The surviving cold tier must also pass the offline verifier —
		// the same walk `logctl archive verify` performs: frame
		// checksums, volume chain continuity, and forest/overlay
		// consistency against the manifest floors.
		for _, name := range r.names {
			rep, verr := retention.VerifyArchiveDir(filepath.Join(r.dir, name, "archive"))
			if verr != nil {
				return fired, fail(verr, "archive verify "+name)
			}
			if len(rep.Issues) > 0 {
				return fired, fail(fmt.Errorf("%d issues, first: %s", len(rep.Issues), rep.Issues[0].String()), "archive verify "+name)
			}
		}
	}
	return fired, nil
}

// sweepFirstTries is how many runs a point gets at hit count 1 before
// the sweep calls it unreachable. Most points fire on every run, but
// goroutine scheduling decides a few: retention.volume.retire needs
// the oldest archive volume to hold only records below the floor, and
// which stream's recovery copies reach a server first varies, so about
// one run in thirty finds it pinned by the second stream's records.
const sweepFirstTries = 3

// Sweep arms every registered crash point in turn, escalating the hit
// count until a run completes without the trigger firing. A registered
// point that never fires is a coverage hole — the workload does not
// reach the protocol step it guards — and fails the sweep. Sweep runs
// on a fault-free network so every run is deterministic up to
// goroutine scheduling.
func Sweep(o Options) (*Report, error) {
	o.fillDefaults()
	o.Faults = transport.Faults{}
	rep := &Report{Fired: make(map[string][]uint64)}
	for _, pointName := range faultpoint.Points() {
		for hitN := uint64(1); hitN <= o.MaxHits; hitN++ {
			fired := false
			for try := 0; !fired && (try == 0 || hitN == 1 && try < sweepFirstTries); try++ {
				var err error
				fired, err = RunPoint(o, pointName, hitN)
				rep.Runs++
				rep.Recoveries += 3
				if err != nil {
					return rep, err
				}
			}
			if !fired {
				break
			}
			rep.Fired[pointName] = append(rep.Fired[pointName], hitN)
			o.Logf("crashaudit: %-28s hit %d: recovered clean", pointName, hitN)
		}
		if len(rep.Fired[pointName]) == 0 {
			return rep, fmt.Errorf("crashaudit: point %s never fired: the workload does not reach it", pointName)
		}
	}
	return rep, nil
}

// Randomized replays the crash scenario iters times under a lossy,
// reordering network, with the point, hit count, and fault schedule
// drawn from o.Seed. Every iteration must recover clean; firing is
// opportunistic (a deep hit count may go unreached).
func Randomized(o Options, iters int) (*Report, error) {
	o.fillDefaults()
	if o.Faults == (transport.Faults{}) {
		o.Faults = transport.Faults{DropProb: 0.02, DupProb: 0.02, MaxDelay: 2 * time.Millisecond}
	}
	rng := rand.New(rand.NewSource(o.Seed))
	points := faultpoint.Points()
	rep := &Report{Fired: make(map[string][]uint64)}
	for i := 0; i < iters; i++ {
		pointName := points[rng.Intn(len(points))]
		hitN := uint64(1 + rng.Intn(3))
		ro := o
		ro.Seed = rng.Int63()
		fired, err := RunPoint(ro, pointName, hitN)
		rep.Runs++
		rep.Recoveries += 3
		if err != nil {
			return rep, fmt.Errorf("crashaudit: iteration %d (point %s, hit %d, seed %d): %w", i, pointName, hitN, ro.Seed, err)
		}
		if fired {
			rep.Fired[pointName] = append(rep.Fired[pointName], hitN)
		}
		o.Logf("crashaudit: iter %3d %-28s hit %d fired=%v", i, pointName, hitN, fired)
	}
	return rep, nil
}
